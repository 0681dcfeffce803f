//! Workload trace record/replay (DESIGN.md §16).
//!
//! A workload trace is the *realized* fault/demand stream of one run —
//! every crash, recovery, flash-crowd flip, and popularity epoch the
//! engine actually applied, with the RNG-dependent choices (spike hot
//! sets, popularity rank permutations) pinned to their realized values.
//!
//! The format is JSONL: line 1 is a `TraceHeader` carrying the workload
//! spec and the exact instance the run started from; every further line is
//! one [`TraceLine`]. Replaying a trace rebuilds the simulation from the
//! header and pins the realized choices through a [`ReplayScript`], so the
//! replayed run reproduces the original utilization gauges byte for byte —
//! through either engine, at any `REX_THREADS`. A future *real* trace (a
//! production fault log) slots into the same format.
//!
//! Recording is an append-only side channel: it never perturbs the run.

use rex_cluster::{Instance, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Line 1 of a trace file: what the run was.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TraceHeader {
    /// The workload spec the run lowered.
    pub workload: WorkloadSpec,
    /// The exact instance the run started from.
    pub inst: Instance,
}

/// One realized workload event.
///
/// `kind` is one of `"crash"`, `"recover"`, `"spike_start"`,
/// `"spike_end"`, `"popularity"`. Fields irrelevant to a kind stay at
/// their zero values so every line has the same shape (greppable JSONL).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceLine {
    /// Tick the event fired.
    pub tick: u64,
    /// Event kind (see type docs).
    pub kind: String,
    /// Fault-table index (`spike_start`/`spike_end` lines).
    pub fault: usize,
    /// Machine id (`crash`/`recover` lines).
    pub machine: u32,
    /// Realized hot set (`spike_start` lines) — the RNG-dependent choice
    /// replay must pin.
    pub shards: Vec<u32>,
    /// Realized rank permutation (`popularity` lines) — `ranks[shard] =
    /// rank`, the only state a popularity epoch needs to replay exactly.
    pub ranks: Vec<u32>,
}

impl TraceLine {
    /// A line with every payload field at its zero value.
    pub fn at(tick: u64, kind: &str) -> Self {
        Self {
            tick,
            kind: kind.to_string(),
            fault: 0,
            machine: 0,
            shards: Vec::new(),
            ranks: Vec::new(),
        }
    }
}

/// Serializes a trace to JSONL: header line, then one line per event.
pub fn write_jsonl(workload: &WorkloadSpec, inst: &Instance, lines: &[TraceLine]) -> String {
    let header = TraceHeader {
        workload: workload.clone(),
        inst: inst.clone(),
    };
    let mut out = serde_json::to_string(&header).expect("trace headers always serialize");
    out.push('\n');
    for line in lines {
        out.push_str(&serde_json::to_string(line).expect("trace lines always serialize"));
        out.push('\n');
    }
    out
}

/// Parses a JSONL trace back into `(workload, instance, events)`.
pub fn parse_jsonl(text: &str) -> Result<(WorkloadSpec, Instance, Vec<TraceLine>), String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines.next().ok_or_else(|| "empty trace".to_string())?;
    let header: TraceHeader =
        serde_json::from_str(header_line).map_err(|e| format!("bad trace header: {e}"))?;
    header
        .workload
        .validate()
        .map_err(|e| format!("trace workload invalid: {e}"))?;
    header
        .inst
        .validate()
        .map_err(|e| format!("trace instance invalid: {e}"))?;
    let mut events = Vec::new();
    for (i, l) in lines.enumerate() {
        let line: TraceLine =
            serde_json::from_str(l).map_err(|e| format!("bad trace line {}: {e}", i + 2))?;
        events.push(line);
    }
    Ok((header.workload, header.inst, events))
}

/// The RNG-dependent realizations a replayed run pins instead of
/// re-deriving: spike hot sets by fault index and popularity rank
/// permutations in epoch order. Scheduled events (crash/recover timing)
/// come from the replayed workload spec itself.
#[derive(Debug, Clone, Default)]
pub struct ReplayScript {
    spikes: BTreeMap<usize, Vec<u32>>,
    pops: Vec<Vec<u32>>,
}

impl ReplayScript {
    /// Extracts the pinned realizations from recorded trace lines.
    pub fn from_lines(lines: &[TraceLine]) -> Self {
        let mut script = Self::default();
        for l in lines {
            match l.kind.as_str() {
                "spike_start" => {
                    script.spikes.insert(l.fault, l.shards.clone());
                }
                "popularity" => script.pops.push(l.ranks.clone()),
                _ => {}
            }
        }
        script
    }

    /// The recorded hot set for spike `fault`, if any.
    pub fn spike_shards(&self, fault: usize) -> Option<&[u32]> {
        self.spikes.get(&fault).map(|v| v.as_slice())
    }

    /// The recorded rank permutation of popularity epoch `epoch` (0-based).
    pub fn popularity_ranks(&self, epoch: usize) -> Option<&[u32]> {
        self.pops.get(epoch).map(|v| v.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_cluster::{ScenarioSpec, WorkloadSpec};

    fn tiny_instance() -> Instance {
        let mut b = rex_cluster::InstanceBuilder::new(1);
        let m = b.machine(&[10.0]);
        b.shard(&[1.0], 0.1, m);
        b.build().unwrap()
    }

    #[test]
    fn jsonl_roundtrip() {
        let w = WorkloadSpec::from_scenario(ScenarioSpec::default());
        let inst = tiny_instance();
        let lines = vec![
            TraceLine {
                shards: vec![3, 5],
                fault: 0,
                ..TraceLine::at(10, "spike_start")
            },
            TraceLine {
                machine: 2,
                ..TraceLine::at(20, "crash")
            },
            TraceLine {
                ranks: vec![1, 0],
                ..TraceLine::at(30, "popularity")
            },
        ];
        let text = write_jsonl(&w, &inst, &lines);
        let (w2, inst2, back) = parse_jsonl(&text).unwrap();
        assert_eq!(w2, w);
        assert_eq!(inst2.n_shards(), inst.n_shards());
        assert_eq!(back, lines);
        // And the written form is deterministic.
        assert_eq!(text, write_jsonl(&w, &inst, &lines));
    }

    #[test]
    fn replay_script_pins_spikes_and_epochs() {
        let lines = vec![
            TraceLine {
                shards: vec![7],
                fault: 1,
                ..TraceLine::at(5, "spike_start")
            },
            TraceLine {
                ranks: vec![0, 1],
                ..TraceLine::at(8, "popularity")
            },
            TraceLine {
                ranks: vec![1, 0],
                ..TraceLine::at(16, "popularity")
            },
        ];
        let script = ReplayScript::from_lines(&lines);
        assert_eq!(script.spike_shards(1), Some(&[7u32][..]));
        assert_eq!(script.spike_shards(0), None);
        assert_eq!(script.popularity_ranks(0), Some(&[0u32, 1][..]));
        assert_eq!(script.popularity_ranks(1), Some(&[1u32, 0][..]));
        assert_eq!(script.popularity_ranks(2), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_jsonl("").is_err());
        assert!(parse_jsonl("not json\n").is_err());
        let w = WorkloadSpec::from_scenario(ScenarioSpec::default());
        let inst = tiny_instance();
        let mut text = write_jsonl(&w, &inst, &[]);
        text.push_str("{\"oops\": true}\n");
        assert!(parse_jsonl(&text).is_err());
    }
}
