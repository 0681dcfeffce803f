//! The arrival feed fills its batches inline at one worker thread and on a
//! producer thread above one; the event loop must read the same schedule
//! and draws either way. This pins it at the library boundary: report JSON
//! and traced JSONL are byte-identical at thread overrides 1 and 2 for
//! every policy, at replication 1 and 3, with a flash crowd and with a
//! crowd plus a mid-run SRA coupling.
//!
//! One test function on purpose: the rayon thread override is
//! process-global (see `vendor/rayon`).

use rex_obs::Recorder;
use rex_router::{run_traced, FlashCrowd, PolicyKind, RouterConfig, SraCoupling};
use rex_workload::synthetic::{generate, DemandFamily, Placement, SynthConfig};

#[test]
fn feed_thread_leaves_reports_and_traces_byte_identical() {
    let inst = generate(&SynthConfig {
        n_machines: 10,
        n_exchange: 0,
        n_shards: 120,
        dims: 1,
        stringency: 0.55,
        placement: Placement::Hotspot(0.3),
        family: DemandFamily::Correlated,
        seed: 29,
        ..Default::default()
    })
    .expect("generate");
    let crowd = Some(FlashCrowd {
        at_us: 6_000,
        duration_us: 9_000,
        factor: 3.0,
        shard_fraction: 0.15,
    });
    let sra = Some(SraCoupling {
        every_us: 7_000,
        iters: 60,
    });
    for replication in [1, 3] {
        for policy in PolicyKind::ALL {
            for sra in [None, sra] {
                let cfg = RouterConfig {
                    horizon_us: 25_000,
                    qps: 30_000.0,
                    base_service_us: 400.0,
                    replication,
                    policy,
                    spike: crowd,
                    sra,
                    seed: 3,
                    ..Default::default()
                };
                let at = |threads: usize| {
                    rayon::set_threads_override(Some(threads));
                    let mut rec = Recorder::active();
                    let report = run_traced(&inst, &cfg, &mut rec).to_json();
                    (report, rec.to_jsonl())
                };
                let (inline, threaded) = (at(1), at(2));
                rayon::set_threads_override(None);
                assert!(inline.1.contains("spike_start"), "the crowd must have run");
                assert_eq!(
                    inline,
                    threaded,
                    "{policy:?} replication {replication} sra {}",
                    sra.is_some()
                );
            }
        }
    }
}
