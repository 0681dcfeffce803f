//! **E15 — query-level routing: replica selection vs resource exchange.**
//!
//! The closed-loop experiments (E11–E14) treat load at tick granularity;
//! this one drops to individual queries. A search fleet routes a Poisson
//! query stream — every query fans out to `fanout` shards, every shard
//! subrequest picks one of `R` replicas — through the `rex-router` event
//! engine, under a mid-run flash crowd on a hot subset of shards. Two
//! mechanisms can absorb the crowd, at different layers and timescales:
//!
//! * **replica routing** (microseconds, per query): load-aware replica
//!   selection — power-of-d choices, Prequal-style async probing with
//!   hot/cold classification, token counting — steers individual
//!   subrequests off the queues that are already deep;
//! * **resource exchange** (tens of milliseconds, per epoch): the SRA
//!   solver periodically re-solves the *replica placement* from a load
//!   snapshot and migrates replicas away from saturated machines — the
//!   paper's mechanism, coupled mid-run into the event engine.
//!
//! Part 1 races the five routing policies under the identical arrival
//! sequence (policies share one arrival RNG stream, so the query streams
//! are literally the same). Part 2 ablates the two layers: SRA alone
//! (random routing), Prequal alone (static placement), and both together.
//! The expected shape — asserted, not just printed — is that the informed
//! policies beat random on tail latency, and that the combination is at
//! least as good as either layer alone.
//!
//! Every run is deterministic: same flags → byte-identical reports (the
//! CI routing-determinism job re-proves this over the CLI).

use crate::{f2, scaled, Table};
use rex_router::{FlashCrowd, PolicyKind, RouterConfig, RouterReport, SraCoupling};
use rex_workload::synthetic::{generate, DemandFamily, Placement, SynthConfig};

/// Hotspot fleet: 16 machines, 240 shards, correlated demand with 30% of
/// shards packed hot — the regime where placement quality matters.
fn fleet() -> rex_cluster::Instance {
    generate(&SynthConfig {
        n_machines: 16,
        n_exchange: 0,
        n_shards: 240,
        dims: 1,
        stringency: 0.55,
        family: DemandFamily::Correlated,
        placement: Placement::Hotspot(0.3),
        seed: 17,
        ..Default::default()
    })
    .expect("generate")
}

/// The shared scenario: a 3× flash crowd on 15% of shards through the
/// middle half of the run.
fn base_cfg(horizon_us: u64) -> RouterConfig {
    RouterConfig {
        horizon_us,
        qps: 30_000.0,
        base_service_us: 400.0,
        spike: Some(FlashCrowd {
            at_us: horizon_us / 4,
            duration_us: horizon_us / 2,
            factor: 3.0,
            shard_fraction: 0.15,
        }),
        seed: 42,
        ..Default::default()
    }
}

fn sra(horizon_us: u64) -> SraCoupling {
    SraCoupling {
        every_us: horizon_us / 10,
        iters: scaled(600) as u64,
    }
}

fn row(t: &mut Table, name: &str, r: &RouterReport) {
    t.row(vec![
        name.into(),
        r.queries.to_string(),
        f2(r.mean_us),
        f2(r.p50_us),
        f2(r.p95_us),
        f2(r.p99_us),
        r.probes_sent.to_string(),
        r.sra_solves.to_string(),
        r.sra_moves.to_string(),
    ]);
}

pub fn run() {
    let horizon = scaled(160_000) as u64;
    let inst = fleet();

    // Part 1: the five policies on the identical arrival sequence.
    let mut t1 = Table::new("policy | queries | mean | p50 | p95 | p99 | probes | solves | moves");
    let mut p99 = std::collections::HashMap::new();
    let mut queries = Vec::new();
    for policy in PolicyKind::ALL {
        let cfg = RouterConfig {
            policy,
            ..base_cfg(horizon)
        };
        let r = rex_router::run(&inst, &cfg);
        // Determinism, at experiment scale: the report is a pure function
        // of (instance, config).
        assert_eq!(
            r.to_json(),
            rex_router::run(&inst, &cfg).to_json(),
            "{}: same-seed runs must be byte-identical",
            policy.name()
        );
        p99.insert(policy, r.p99_us);
        queries.push(r.queries);
        row(&mut t1, policy.name(), &r);
    }
    assert!(
        queries.windows(2).all(|w| w[0] == w[1]),
        "policies must ride the identical arrival sequence: {queries:?}"
    );
    // The informed policies must beat blind random on the tail. Routing
    // cannot fix an overloaded *placement* (that is part 2's point), but
    // under the same placement, load-awareness must pay.
    for informed in [PolicyKind::PowerOfD, PolicyKind::Prequal, PolicyKind::Token] {
        assert!(
            p99[&informed] <= p99[&PolicyKind::Random],
            "{} p99 {:.1} must not exceed random {:.1}",
            informed.name(),
            p99[&informed],
            p99[&PolicyKind::Random]
        );
    }
    t1.print("E15a — routing policies under a 3x flash crowd (identical arrivals)");

    // Part 2: layer ablation — exchange alone, routing alone, both.
    let mut t2 =
        Table::new("scenario | queries | mean | p50 | p95 | p99 | probes | solves | moves");
    let scenarios: [(&str, PolicyKind, Option<SraCoupling>); 3] = [
        ("sra_only", PolicyKind::Random, Some(sra(horizon))),
        ("prequal_only", PolicyKind::Prequal, None),
        ("both", PolicyKind::Prequal, Some(sra(horizon))),
    ];
    let mut tail = std::collections::HashMap::new();
    for (name, policy, coupling) in scenarios {
        let cfg = RouterConfig {
            policy,
            sra: coupling,
            ..base_cfg(horizon)
        };
        let r = rex_router::run(&inst, &cfg);
        if coupling.is_some() {
            assert!(r.sra_solves > 0, "{name}: the SRA coupling must have run");
        }
        tail.insert(name, r.p99_us);
        row(&mut t2, name, &r);
    }
    // The combination must be at least as good as either layer alone
    // (small tolerance: the layers are not perfectly orthogonal — a
    // mid-run migration invalidates some of Prequal's probe pool).
    assert!(
        tail["both"] <= tail["sra_only"] * 1.02,
        "both ({:.1}) must not lose to sra_only ({:.1})",
        tail["both"],
        tail["sra_only"]
    );
    assert!(
        tail["both"] <= tail["prequal_only"] * 1.02,
        "both ({:.1}) must not lose to prequal_only ({:.1})",
        tail["both"],
        tail["prequal_only"]
    );
    t2.print("E15b — layer ablation: resource exchange vs replica routing vs both");

    println!(
        "\n16 machines, 240 shards x3 replicas, fanout 4, {} us horizon; 30k qps \
         Poisson stream, 3x flash crowd on 15% of shards through the middle half.",
        horizon
    );
    println!(
        "Expected shape: informed policies (power_of_d, prequal, token) beat random \
         on p99 under the same placement; in the ablation, mid-run SRA re-placement \
         and query-level routing compose — `both` matches or beats either alone."
    );
}
