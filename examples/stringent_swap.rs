//! The transient-constraint deadlock, isolated.
//!
//! Two machines near capacity hold mismatched shards; the only improving
//! rearrangement is a swap, but neither shard fits on the other machine
//! while both copies exist — without staging space the fleet is stuck,
//! exactly the situation the paper's abstract opens with. Lending a single
//! exchange machine unlocks it.
//!
//! ```sh
//! cargo run --example stringent_swap
//! ```

use resource_exchange::baselines::{GreedyRebalancer, LocalSearchRebalancer, Rebalancer};
use resource_exchange::cluster::{Instance, InstanceBuilder};
use resource_exchange::core::{solve, SraConfig};

fn build(with_exchange: bool) -> Instance {
    let mut b = InstanceBuilder::new(1).alpha(0.0).label("stringent-swap");
    let m0 = b.machine(&[10.0]);
    let m1 = b.machine(&[10.0]);
    if with_exchange {
        b.exchange_machine(&[10.0]);
    }
    // m0: 9.5 (peak machine); m1: 7.5. The improving rearrangement swaps
    // the 4.5 on m0 with the 3.0 on m1 (loads become 8.0 | 9.0), but
    // 7.5 + 4.5 and 9.5 + 3.0 both exceed capacity: neither leg can go
    // first. Plain moves are all capacity-infeasible.
    b.shard(&[5.0], 1.0, m0);
    b.shard(&[4.5], 1.0, m0);
    b.shard(&[4.5], 1.0, m1);
    b.shard(&[3.0], 1.0, m1);
    b.build().expect("valid instance")
}

fn main() {
    // Without exchange machines, both deployable baselines are stuck.
    let stuck = build(false);
    let ls = LocalSearchRebalancer
        .rebalance(&stuck)
        .expect("local search");
    let gr = GreedyRebalancer.rebalance(&stuck).expect("greedy");
    println!(
        "no exchange:  local-search {:.3} → {:.3} ({} moves), greedy {:.3} → {:.3} ({} moves)",
        ls.initial_report.peak,
        ls.final_report.peak,
        ls.migration.total_moves,
        gr.initial_report.peak,
        gr.final_report.peak,
        gr.migration.total_moves
    );

    // With one borrowed machine, SRA stages the swap through it and hands
    // a vacant machine back afterwards.
    let unlocked = build(true);
    let sra = solve(
        &unlocked,
        &SraConfig {
            iters: 3_000,
            seed: 5,
            ..Default::default()
        },
    )
    .expect("SRA");
    println!(
        "one exchange: SRA {:.3} → {:.3} ({} moves, {} staging hops), returned {:?}",
        sra.initial_report.peak,
        sra.final_report.peak,
        sra.migration.total_moves,
        sra.migration.extra_hops,
        sra.returned_machines
    );
    println!("\nschedule:");
    for (i, batch) in sra.plan.batches.iter().enumerate() {
        let moves: Vec<String> = batch
            .iter()
            .map(|m| format!("{}:{}→{}", m.shard, m.from, m.to))
            .collect();
        println!("  batch {i}: {}", moves.join(", "));
    }

    assert_eq!(
        ls.migration.total_moves, 0,
        "local search must be transient-blocked"
    );
    assert_eq!(
        gr.migration.total_moves, 0,
        "greedy must be transient-blocked"
    );
    assert!(
        sra.final_report.peak < 0.95 - 1e-9,
        "SRA must break the deadlock"
    );
}
