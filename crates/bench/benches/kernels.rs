//! Criterion microbenchmarks of the hot kernels: resource arithmetic,
//! assignment bookkeeping, insertion scoring, migration planning, and
//! inverted-index search.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rex_cluster::{
    plan_migration, Assignment, MachineId, Objective, PlannerConfig, ResourceVec, ShardId,
};
use rex_core::SraProblem;
use rex_searchsim::corpus::{Corpus, CorpusConfig};
use rex_searchsim::index::{InvertedIndex, QueryMode};
use rex_workload::synthetic::{generate, DemandFamily, Placement, SynthConfig};
use std::hint::black_box;

fn medium_instance() -> rex_cluster::Instance {
    generate(&SynthConfig {
        n_machines: 64,
        n_exchange: 8,
        n_shards: 640,
        stringency: 0.8,
        family: DemandFamily::Correlated,
        placement: Placement::Hotspot(0.4),
        seed: 3,
        ..Default::default()
    })
    .expect("generate")
}

fn bench_resource_vec(c: &mut Criterion) {
    let a = ResourceVec::from_slice(&[0.1, 0.2, 0.3]);
    let b = ResourceVec::from_slice(&[0.05, 0.1, 0.15]);
    let cap = ResourceVec::splat(3, 1.0);
    c.bench_function("resourcevec/fits_after_add", |bench| {
        bench.iter(|| black_box(&a).fits_after_add(black_box(&b), black_box(&cap)))
    });
    c.bench_function("resourcevec/max_ratio", |bench| {
        bench.iter(|| black_box(&a).max_ratio(black_box(&cap)))
    });
}

fn bench_assignment_moves(c: &mut Criterion) {
    let inst = medium_instance();
    c.bench_function("assignment/move_shard", |bench| {
        bench.iter_batched(
            || Assignment::from_initial(&inst),
            |mut asg| {
                for i in 0..64u32 {
                    let s = ShardId(i * 7 % inst.n_shards() as u32);
                    let m = MachineId(i % inst.n_machines() as u32);
                    asg.move_shard(&inst, s, m);
                }
                asg
            },
            BatchSize::SmallInput,
        )
    });
    let asg = Assignment::from_initial(&inst);
    c.bench_function("assignment/peak_load", |bench| {
        bench.iter(|| black_box(&asg).peak_load(black_box(&inst)))
    });
}

fn bench_insertion_score(c: &mut Criterion) {
    let inst = medium_instance();
    let problem = SraProblem::new(&inst, Objective::default());
    let mut asg = Assignment::from_initial(&inst);
    asg.detach_shard(&inst, ShardId(0));
    c.bench_function("sra/insertion_score_full_scan", |bench| {
        bench.iter(|| {
            let mut best = f64::INFINITY;
            for m in 0..inst.n_machines() {
                if let Some(s) = problem.insertion_score(&asg, ShardId(0), MachineId::from(m)) {
                    best = best.min(s);
                }
            }
            black_box(best)
        })
    });
}

fn bench_planner(c: &mut Criterion) {
    let inst = medium_instance();
    // A target that moves ~10% of shards to the least-loaded machines.
    let mut asg = Assignment::from_initial(&inst);
    for i in 0..(inst.n_shards() / 10) {
        let s = ShardId::from(i * 10);
        let m = MachineId::from(i % inst.n_machines());
        if asg.fits(&inst, s, m) {
            asg.move_shard(&inst, s, m);
        }
    }
    let target = asg.into_placement();
    c.bench_function("migration/plan_64_moves", |bench| {
        bench.iter(|| {
            plan_migration(
                black_box(&inst),
                black_box(&inst.initial),
                black_box(&target),
                &PlannerConfig::default(),
            )
        })
    });
}

fn bench_index_search(c: &mut Criterion) {
    let corpus = Corpus::generate(&CorpusConfig {
        n_docs: 5_000,
        vocab: 10_000,
        seed: 5,
        ..Default::default()
    });
    let ix = InvertedIndex::build(&corpus.docs);
    c.bench_function("index/search_or_3terms", |bench| {
        bench.iter(|| black_box(&ix).search(black_box(&[0, 5, 20]), QueryMode::Or, 10))
    });
    c.bench_function("index/search_and_3terms", |bench| {
        bench.iter(|| black_box(&ix).search(black_box(&[0, 5, 20]), QueryMode::And, 10))
    });
    c.bench_function("index/search_maxscore_3terms", |bench| {
        bench.iter(|| black_box(&ix).search_or_pruned(black_box(&[0, 5, 20]), 10))
    });
}

fn bench_compress(c: &mut Criterion) {
    use rex_searchsim::compress::CompressedPostings;
    use rex_searchsim::index::Posting;
    let list: Vec<Posting> = (0..10_000u32)
        .map(|i| Posting {
            doc: i * 7,
            tf: 1 + i % 5,
        })
        .collect();
    c.bench_function("compress/encode_10k", |bench| {
        bench.iter(|| CompressedPostings::compress(black_box(&list)))
    });
    let compressed = CompressedPostings::compress(&list);
    c.bench_function("compress/decode_10k", |bench| {
        bench.iter(|| black_box(&compressed).decompress())
    });
}

/// Iteration throughput of the unified engine spine (`rex_lns::Engine`)
/// on a stringent 16-machine / 120-shard instance — the allocation-free
/// undo-log hot loop that replaced the per-iteration-clone engine.
fn bench_lns_iteration_throughput(c: &mut Criterion) {
    use rex_core::{default_destroys_in_place, default_repairs_in_place};
    use rex_lns::{Engine, LnsConfig, LnsProblem, SimulatedAnnealing};

    let inst = generate(&SynthConfig {
        n_machines: 16,
        n_exchange: 2,
        n_shards: 120,
        stringency: 0.85,
        family: DemandFamily::Correlated,
        placement: Placement::Hotspot(0.4),
        seed: 11,
        ..Default::default()
    })
    .expect("generate");
    // Plannability gating of new bests is disabled: `plan_migration` would
    // drown the per-iteration work this bench isolates.
    let problem = SraProblem::new(&inst, Objective::default()).without_plan_checks();
    let initial = Assignment::from_initial(&inst);
    assert!(
        LnsProblem::is_feasible(&problem, &initial),
        "benchmark start must be feasible"
    );

    const ITERS: u64 = 2_000;
    let cfg = LnsConfig {
        max_iters: ITERS,
        intensity: (0.02, 0.25),
        ..Default::default()
    };

    let mut group = c.benchmark_group("lns_hot_loop");
    group.sample_size(10);
    group.bench_function("spine_engine_2k_iters", |bench| {
        bench.iter(|| {
            let engine = Engine::new(
                &problem,
                initial.clone(),
                default_destroys_in_place(64),
                default_repairs_in_place(),
                Box::new(SimulatedAnnealing::for_normalized_loads(ITERS as usize)),
                cfg,
            );
            black_box(engine.run(42).best_objective)
        })
    });
    group.finish();
}

/// The observability tax: the same in-place hot loop as `lns_hot_loop`,
/// run three ways — the plain `run()` entry point, `run_recorded` with a
/// `Recorder::Noop` (what production runs pay for the instrumentation being
/// *compiled in*: one enum-discriminant check per call site), and
/// `run_recorded` with an active recorder (full per-iteration narration).
/// DESIGN.md §8's "disabled tracing is free" claim is this group.
fn bench_obs_overhead(c: &mut Criterion) {
    use rex_core::{default_destroys_in_place, default_repairs_in_place};
    use rex_lns::{Engine, LnsConfig, LnsProblem, SimulatedAnnealing};
    use rex_obs::Recorder;

    let inst = generate(&SynthConfig {
        n_machines: 16,
        n_exchange: 2,
        n_shards: 120,
        stringency: 0.85,
        family: DemandFamily::Correlated,
        placement: Placement::Hotspot(0.4),
        seed: 11,
        ..Default::default()
    })
    .expect("generate");
    let problem = SraProblem::new(&inst, Objective::default()).without_plan_checks();
    let initial = Assignment::from_initial(&inst);
    assert!(LnsProblem::is_feasible(&problem, &initial));

    const ITERS: u64 = 2_000;
    let cfg = LnsConfig {
        max_iters: ITERS,
        intensity: (0.02, 0.25),
        ..Default::default()
    };
    let make_engine = || {
        Engine::new(
            &problem,
            initial.clone(),
            default_destroys_in_place(64),
            default_repairs_in_place(),
            Box::new(SimulatedAnnealing::for_normalized_loads(ITERS as usize)),
            cfg,
        )
    };

    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    group.bench_function("in_place_plain_2k_iters", |bench| {
        bench.iter(|| black_box(make_engine().run(42).best_objective))
    });
    group.bench_function("in_place_noop_recorder_2k_iters", |bench| {
        bench.iter(|| {
            let mut rec = Recorder::noop();
            black_box(make_engine().run_recorded(42, &mut rec).best_objective)
        })
    });
    group.bench_function("in_place_active_recorder_2k_iters", |bench| {
        bench.iter(|| {
            let mut rec = Recorder::active();
            black_box(make_engine().run_recorded(42, &mut rec).best_objective)
        })
    });
    group.finish();
}

fn bench_qos_and_timeline(c: &mut Criterion) {
    use rex_cluster::migration::timeline::{time_plan, TimelineConfig};
    use rex_cluster::plan_migration;
    use rex_searchsim::qos::{qos_of_plan, QosConfig};
    let inst = medium_instance();
    // The hand-built perturbation is not guaranteed plannable (the greedy
    // packing can paint the planner into a deadlock), so back off to
    // smaller perturbations until one plans. The identity target (empty
    // plan) terminates the search in the worst case.
    let plan = [10usize, 20, 40, 80, usize::MAX]
        .iter()
        .find_map(|&stride| {
            let mut asg = Assignment::from_initial(&inst);
            let n_moves = if stride == usize::MAX {
                0
            } else {
                inst.n_shards() / stride
            };
            for i in 0..n_moves {
                let s = ShardId::from(i * stride);
                let m = MachineId::from(i % inst.n_machines());
                if asg.fits(&inst, s, m) {
                    asg.move_shard(&inst, s, m);
                }
            }
            let target = asg.into_placement();
            plan_migration(&inst, &inst.initial, &target, &PlannerConfig::default()).ok()
        })
        .expect("identity target is always plannable");
    c.bench_function("migration/qos_profile", |bench| {
        bench.iter(|| qos_of_plan(black_box(&inst), black_box(&plan), &QosConfig::default()))
    });
    c.bench_function("migration/timeline", |bench| {
        bench.iter(|| {
            time_plan(
                black_box(&inst),
                black_box(&plan),
                &TimelineConfig::default(),
            )
        })
    });
}

criterion_group!(
    benches,
    bench_resource_vec,
    bench_assignment_moves,
    bench_insertion_score,
    bench_planner,
    bench_index_search,
    bench_compress,
    bench_lns_iteration_throughput,
    bench_obs_overhead,
    bench_qos_and_timeline
);
criterion_main!(benches);
