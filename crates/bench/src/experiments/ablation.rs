//! **E9 / Table 5 — SRA ablations.**
//!
//! Three axes, each run on the same instance and seed:
//!
//! * destroy operators: full portfolio vs leave-one-out,
//! * repair operators: full portfolio vs each alone,
//! * acceptance criterion: SA vs hill-climb vs record-to-record.

use crate::{f4, instance, pct, scaled, synth, Table};
use rex_cluster::{Assignment, Objective};
use rex_core::{
    GreedyBestFit, MachineExchangeRemoval, RandomRemoval, RandomizedGreedy, Regret2Insert,
    RelatedRemoval, SraProblem, WorstMachineRemoval,
};
use rex_lns::{
    DestroyInPlace, Engine, LnsConfig, RepairInPlace, SearchOutcome, SimulatedAnnealing,
};

type D<'a> = Box<dyn DestroyInPlace<SraProblem<'a>>>;
type R<'a> = Box<dyn RepairInPlace<SraProblem<'a>>>;

fn destroys<'a>(skip: Option<&str>) -> Vec<D<'a>> {
    let cap = 64;
    let all: Vec<D<'a>> = vec![
        Box::new(RandomRemoval { cap }),
        Box::new(WorstMachineRemoval { cap }),
        Box::new(RelatedRemoval { cap }),
        Box::new(MachineExchangeRemoval { cap }),
    ];
    all.into_iter().filter(|d| Some(d.name()) != skip).collect()
}

fn repairs<'a>(only: Option<&str>) -> Vec<R<'a>> {
    let all: Vec<R<'a>> = vec![
        Box::new(GreedyBestFit),
        Box::new(Regret2Insert),
        Box::new(RandomizedGreedy { sample: 8 }),
    ];
    match only {
        None => all,
        Some(name) => all.into_iter().filter(|r| r.name() == name).collect(),
    }
}

fn run_lns<'a>(
    problem: &'a SraProblem<'a>,
    ds: Vec<D<'a>>,
    rs: Vec<R<'a>>,
    iters: u64,
    seed: u64,
) -> SearchOutcome<Assignment> {
    let engine = Engine::new(
        problem,
        Assignment::from_initial(problem.inst),
        ds,
        rs,
        Box::new(SimulatedAnnealing::for_normalized_loads(iters as usize)),
        LnsConfig {
            max_iters: iters,
            ..Default::default()
        },
    );
    engine.run(seed)
}

pub fn run() {
    let inst = instance(synth(scaled(24), 3, scaled(240), 0.85, 29));
    let problem = SraProblem::new(&inst, Objective::pure());
    let iters = scaled(8_000) as u64;
    let seed = 29;
    let run = |p, ds, rs| run_lns(p, ds, rs, iters, seed).best_objective;

    let initial_peak = Assignment::from_initial(&inst).peak_load(&inst);
    let full = run(&problem, destroys(None), repairs(None));

    let mut t = Table::new("variant | best objective | vs full | vs initial");
    let mut push = |name: String, obj: f64| {
        t.row(vec![
            name,
            f4(obj),
            pct((obj - full) / full),
            pct((obj - initial_peak) / initial_peak),
        ]);
    };

    push("full SRA".into(), full);
    for op in [
        "random-removal",
        "worst-machine",
        "related-removal",
        "machine-exchange",
    ] {
        let obj = run(&problem, destroys(Some(op)), repairs(None));
        push(format!("without destroy `{op}`"), obj);
    }
    for op in ["greedy-best-fit", "regret-2", "randomized-greedy"] {
        let obj = run(&problem, destroys(None), repairs(Some(op)));
        push(format!("repair `{op}` only"), obj);
    }

    // Design-choice ablations (DESIGN.md §1.7). Objectives are reported on
    // the same smoothed scale as `full` for comparability: the no-smoothing
    // variant's best is re-evaluated with the smoothing term added back.
    let mut raw = SraProblem::new(&inst, Objective::pure());
    raw.smoothing = 0.0;
    let out = run_lns(&raw, destroys(None), repairs(None), iters, seed);
    let (peak, msq) = out.best.load_stats(&inst);
    push(
        "without plateau smoothing".into(),
        peak + problem.smoothing * msq,
    );
    let ungated = SraProblem::new(&inst, Objective::pure()).without_plan_checks();
    // NOTE: this best may be undeliverable — that is the point.
    push(
        "without plannability gate (may be undeliverable)".into(),
        run(&ungated, destroys(None), repairs(None)),
    );

    t.print("E9 / Table 5 — SRA operator ablation (same instance and seed)");
    println!(
        "\nAcceptance-criterion ablation is covered by E4's per-criterion convergence series."
    );
    println!("Expected shape: no single destroy operator is load-bearing (leaving any one out stays within 0.2% of full SRA); `regret-2` alone and `randomized-greedy` alone trail the adaptive portfolio.");
}
