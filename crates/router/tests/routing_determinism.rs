//! Cross-crate determinism contract of the router: the report is a pure
//! function of `(Instance, RouterConfig)` — independent of the worker
//! thread count (the mid-run SRA solves run the serial engine) and of
//! whether a recorder is attached. The CI job re-proves the same property
//! end-to-end over the `exp_routing` binary; this test pins it at the
//! library boundary where a failure localizes better.

use rex_obs::Recorder;
use rex_router::{run, run_traced, FlashCrowd, PolicyKind, RouterConfig, SraCoupling};
use rex_workload::synthetic::{generate, DemandFamily, Placement, SynthConfig};

fn hotspot_fleet() -> rex_cluster::Instance {
    generate(&SynthConfig {
        n_machines: 12,
        n_exchange: 0,
        n_shards: 144,
        dims: 1,
        stringency: 0.55,
        placement: Placement::Hotspot(0.3),
        family: DemandFamily::Correlated,
        seed: 17,
        ..Default::default()
    })
    .expect("generate")
}

/// The full-feature config: probing policy, flash crowd, and mid-run SRA
/// reassignment all on at once.
fn loaded_cfg() -> RouterConfig {
    RouterConfig {
        horizon_us: 40_000,
        qps: 25_000.0,
        base_service_us: 400.0,
        policy: PolicyKind::Prequal,
        spike: Some(FlashCrowd {
            at_us: 10_000,
            duration_us: 10_000,
            factor: 3.0,
            shard_fraction: 0.15,
        }),
        sra: Some(SraCoupling {
            every_us: 8_000,
            iters: 300,
        }),
        seed: 42,
        ..Default::default()
    }
}

/// One test function on purpose: the rayon thread override is
/// process-global, so the 1-thread and 8-thread runs must not race other
/// tests' parallelism (see `vendor/rayon`).
#[test]
fn report_is_independent_of_threads_and_tracing() {
    let inst = hotspot_fleet();
    let cfg = loaded_cfg();

    rayon::set_threads_override(Some(1));
    let one_thread = run(&inst, &cfg);
    rayon::set_threads_override(Some(8));
    let eight_threads = run(&inst, &cfg).to_json();
    rayon::set_threads_override(None);

    assert!(one_thread.sra_solves > 0, "the SRA coupling must have run");
    assert!(one_thread.probes_sent > 0, "prequal must have probed");
    assert_eq!(
        one_thread.to_json(),
        eight_threads,
        "thread count must not leak into the report"
    );

    // Tracing the very same run must not perturb it either.
    let mut rec = Recorder::active();
    let traced = run_traced(&inst, &cfg, &mut rec).to_json();
    assert_eq!(one_thread.to_json(), traced);
    assert!(
        rec.events().iter().any(|e| e.name == "sra_poll"),
        "the trace must contain the coupling's poll events"
    );
}
