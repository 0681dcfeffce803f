//! Problem instances: machines + shards + initial placement + exchange terms.

use crate::error::ClusterError;
use crate::kernels;
use crate::machine::{Machine, MachineId};
use crate::resources::ResourceVec;
use crate::shard::{Shard, ShardId};
use serde::{Deserialize, Serialize};

/// A complete shard-reassignment problem instance.
///
/// The machine list contains both the original fleet and the borrowed
/// **exchange machines** (flagged [`Machine::exchange`], initially vacant).
/// After reassignment, at least [`Instance::k_return`] machines — any
/// machines, not necessarily the borrowed ones — must be completely vacant;
/// they are handed back as compensation for the loan.
///
/// `alpha` is the transient migration-overhead factor: while a shard with
/// demand `d` is in flight from `m` to `m'`, machine `m` bears `(1+alpha)·d`
/// (it still serves the shard, plus copy overhead) and `m'` bears
/// `(1+alpha)·d` (the arriving replica plus copy overhead).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Instance {
    /// Number of resource dimensions (same for every machine and shard).
    pub dims: usize,
    /// All machines; index must equal `Machine::id`.
    pub machines: Vec<Machine>,
    /// All shards; index must equal `Shard::id`.
    pub shards: Vec<Shard>,
    /// Initial placement: `initial[s]` is the machine hosting shard `s`.
    pub initial: Vec<MachineId>,
    /// Number of vacant machines that must be returned after reassignment.
    pub k_return: usize,
    /// Transient migration-overhead factor (>= 0).
    pub alpha: f64,
    /// Optional human-readable label (workload family, seed, …).
    pub label: String,
}

impl Instance {
    /// Number of machines (original + exchange).
    #[inline]
    pub fn n_machines(&self) -> usize {
        self.machines.len()
    }

    /// Number of shards.
    #[inline]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Identifiers of the borrowed exchange machines.
    pub fn exchange_machines(&self) -> Vec<MachineId> {
        self.machines
            .iter()
            .filter(|m| m.exchange)
            .map(|m| m.id)
            .collect()
    }

    /// Number of borrowed exchange machines.
    pub fn n_exchange(&self) -> usize {
        self.machines.iter().filter(|m| m.exchange).count()
    }

    /// Capacity of machine `m`.
    #[inline]
    pub fn capacity(&self, m: MachineId) -> &ResourceVec {
        &self.machines[m.idx()].capacity
    }

    /// Demand of shard `s`.
    #[inline]
    pub fn demand(&self, s: ShardId) -> &ResourceVec {
        &self.shards[s.idx()].demand
    }

    /// Sum of all shard demands.
    ///
    /// Runs through the branch-free lane-unrolled reduction of
    /// [`kernels::scan_with`] per dimension: allocation-free (asserted by
    /// the `alloc_hot_loop` test) and vectorizable, so fleet-wide totals
    /// stay cheap at web scale.
    pub fn total_demand(&self) -> ResourceVec {
        let mut acc = ResourceVec::zero(self.dims);
        for d in 0..self.dims {
            acc[d] = kernels::scan_with(self.shards.len(), |i| self.shards[i].demand[d]).sum;
        }
        acc
    }

    /// Sum of all machine capacities (same reduction as
    /// [`Instance::total_demand`]).
    pub fn total_capacity(&self) -> ResourceVec {
        let mut acc = ResourceVec::zero(self.dims);
        for d in 0..self.dims {
            acc[d] = kernels::scan_with(self.machines.len(), |i| self.machines[i].capacity[d]).sum;
        }
        acc
    }

    /// Overall utilization pressure: per-dimension total demand over total
    /// capacity, maximized over dimensions. Values near 1.0 mean a
    /// *stringent* environment — the regime the paper targets.
    pub fn stringency(&self) -> f64 {
        self.total_demand().max_ratio(&self.total_capacity())
    }

    /// Validates internal consistency; every constructor of downstream
    /// state assumes a validated instance.
    pub fn validate(&self) -> Result<(), ClusterError> {
        if !(self.alpha.is_finite() && self.alpha >= 0.0) {
            return Err(ClusterError::BadOverhead { alpha: self.alpha });
        }
        for (i, m) in self.machines.iter().enumerate() {
            if m.id.idx() != i {
                return Err(ClusterError::BadMachineId { index: i, id: m.id });
            }
            if m.capacity.dims() != self.dims {
                return Err(ClusterError::DimensionMismatch {
                    expected: self.dims,
                    found: m.capacity.dims(),
                    what: "machine capacity",
                });
            }
        }
        for (i, s) in self.shards.iter().enumerate() {
            if s.id.idx() != i {
                return Err(ClusterError::BadShardId { index: i, id: s.id });
            }
            if s.demand.dims() != self.dims {
                return Err(ClusterError::DimensionMismatch {
                    expected: self.dims,
                    found: s.demand.dims(),
                    what: "shard demand",
                });
            }
        }
        if self.initial.len() != self.shards.len() {
            return Err(ClusterError::BadPlacementLength {
                expected: self.shards.len(),
                found: self.initial.len(),
            });
        }
        if self.k_return > self.machines.len() {
            return Err(ClusterError::BadReturnCount {
                k_return: self.k_return,
                machines: self.machines.len(),
            });
        }
        // Initial placement: known machines, not on exchange machines,
        // within capacity.
        let mut usage: Vec<ResourceVec> = vec![ResourceVec::zero(self.dims); self.machines.len()];
        for (i, &m) in self.initial.iter().enumerate() {
            let sid = ShardId::from(i);
            if m.idx() >= self.machines.len() {
                return Err(ClusterError::UnknownMachine {
                    shard: sid,
                    machine: m,
                });
            }
            if self.machines[m.idx()].exchange {
                return Err(ClusterError::ShardOnExchangeMachine {
                    shard: sid,
                    machine: m,
                });
            }
            usage[m.idx()] += &self.shards[i].demand;
        }
        for m in &self.machines {
            if !usage[m.id.idx()].fits_within(&m.capacity) {
                return Err(ClusterError::InitialOverload { machine: m.id });
            }
        }
        let vacant = usage.iter().filter(|u| u.is_zero()).count();
        if vacant < self.k_return {
            return Err(ClusterError::InsufficientVacancy {
                k_return: self.k_return,
                vacant,
            });
        }
        Ok(())
    }

    /// Splits shard `s` in place: `s` keeps exactly half of its demand and
    /// move cost, and a new shard carrying the other half is appended on
    /// the same machine. Returns the new shard's id.
    ///
    /// Halving is `× 0.5`, which is exact in IEEE-754, and the new shard is
    /// always the *last* entry, so `merge_shards(s, new)` restores the
    /// instance bit-for-bit (no renumbering, `0.5·d + 0.5·d = d` exactly).
    /// Total demand, per-machine usage, and therefore capacity feasibility
    /// and vacancy counts are all preserved: a valid instance stays valid.
    pub fn split_shard(&mut self, s: ShardId) -> ShardId {
        assert!(s.idx() < self.shards.len(), "split of unknown shard {s}");
        let half = self.shards[s.idx()].demand.scaled(0.5);
        let half_cost = self.shards[s.idx()].move_cost * 0.5;
        self.shards[s.idx()].demand = half;
        self.shards[s.idx()].move_cost = half_cost;
        let id = ShardId::from(self.shards.len());
        self.shards.push(Shard::new(id, half, half_cost));
        self.initial.push(self.initial[s.idx()]);
        id
    }

    /// Merges shard `drop` into `keep`: `keep` absorbs `drop`'s demand and
    /// move cost, and `drop` is removed from the shard list. Both shards
    /// must exist, be distinct, and be co-located in `initial` (merging
    /// across machines would teleport load without a migration).
    ///
    /// The shard list stays densely id-numbered by swap-removing `drop`;
    /// when that renumbers another shard into the vacated id, its *old* id
    /// is returned so callers can remap outstanding references (spike
    /// lists, load caches, schedulers). `Ok(None)` means `drop` was the
    /// last shard and nothing was renumbered.
    pub fn merge_shards(
        &mut self,
        keep: ShardId,
        drop: ShardId,
    ) -> Result<Option<ShardId>, ClusterError> {
        let n = self.shards.len();
        if keep == drop || keep.idx() >= n || drop.idx() >= n {
            return Err(ClusterError::BadMerge { keep, drop });
        }
        if self.initial[keep.idx()] != self.initial[drop.idx()] {
            return Err(ClusterError::BadMerge { keep, drop });
        }
        let absorbed = self.shards[drop.idx()].demand;
        let absorbed_cost = self.shards[drop.idx()].move_cost;
        self.shards[keep.idx()].demand += &absorbed;
        self.shards[keep.idx()].move_cost += absorbed_cost;
        self.shards.swap_remove(drop.idx());
        self.initial.swap_remove(drop.idx());
        if drop.idx() < self.shards.len() {
            let moved = self.shards[drop.idx()].id;
            self.shards[drop.idx()].id = drop;
            Ok(Some(moved))
        } else {
            Ok(None)
        }
    }
}

/// Ergonomic construction of [`Instance`]s for tests, examples, and
/// generators.
#[derive(Clone, Debug, Default)]
pub struct InstanceBuilder {
    dims: usize,
    machines: Vec<Machine>,
    shards: Vec<Shard>,
    initial: Vec<MachineId>,
    k_return: Option<usize>,
    alpha: f64,
    label: String,
}

impl InstanceBuilder {
    /// Starts a builder for instances with `dims` resource dimensions.
    pub fn new(dims: usize) -> Self {
        Self {
            dims,
            alpha: 0.0,
            label: String::from("unnamed"),
            ..Default::default()
        }
    }

    /// [`InstanceBuilder::new`] with the machine and shard tables
    /// pre-sized, so streaming construction of a 100k-shard instance
    /// never re-grows (and therefore never memmoves) the tables.
    pub fn with_capacity(dims: usize, machines: usize, shards: usize) -> Self {
        let mut b = Self::new(dims);
        b.reserve(machines, shards);
        b
    }

    /// Reserves room for `machines` more machines and `shards` more
    /// shards (streaming generators call this per batch).
    fn reserve(&mut self, machines: usize, shards: usize) {
        self.machines.reserve(machines);
        self.shards.reserve(shards);
        self.initial.reserve(shards);
    }

    /// Sets the human-readable label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Sets the transient migration-overhead factor.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Overrides the number of vacant machines to return (defaults to the
    /// number of exchange machines added).
    pub fn k_return(mut self, k: usize) -> Self {
        self.k_return = Some(k);
        self
    }

    /// Adds an ordinary machine; returns its id.
    pub fn machine(&mut self, capacity: &[f64]) -> MachineId {
        let id = MachineId::from(self.machines.len());
        self.machines
            .push(Machine::new(id, ResourceVec::from_slice(capacity)));
        id
    }

    /// Adds a borrowed exchange machine; returns its id.
    pub fn exchange_machine(&mut self, capacity: &[f64]) -> MachineId {
        let id = MachineId::from(self.machines.len());
        self.machines
            .push(Machine::exchange(id, ResourceVec::from_slice(capacity)));
        id
    }

    /// Adds a shard initially placed on `on`; returns its id.
    pub fn shard(&mut self, demand: &[f64], move_cost: f64, on: MachineId) -> ShardId {
        self.push_shard(ResourceVec::from_slice(demand), move_cost, on)
    }

    /// Streaming variant of [`InstanceBuilder::machine`] taking an
    /// already-built [`ResourceVec`] — no slice round-trip, no clone.
    pub fn push_machine(&mut self, capacity: ResourceVec) -> MachineId {
        let id = MachineId::from(self.machines.len());
        self.machines.push(Machine::new(id, capacity));
        id
    }

    /// Streaming variant of [`InstanceBuilder::exchange_machine`].
    pub fn push_exchange(&mut self, capacity: ResourceVec) -> MachineId {
        let id = MachineId::from(self.machines.len());
        self.machines.push(Machine::exchange(id, capacity));
        id
    }

    /// Streaming variant of [`InstanceBuilder::shard`].
    pub fn push_shard(&mut self, demand: ResourceVec, move_cost: f64, on: MachineId) -> ShardId {
        let id = ShardId::from(self.shards.len());
        self.shards.push(Shard::new(id, demand, move_cost));
        self.initial.push(on);
        id
    }

    /// Finalizes and validates the instance.
    pub fn build(self) -> Result<Instance, ClusterError> {
        let n_exchange = self.machines.iter().filter(|m| m.exchange).count();
        let inst = Instance {
            dims: self.dims,
            machines: self.machines,
            shards: self.shards,
            initial: self.initial,
            k_return: self.k_return.unwrap_or(n_exchange),
            alpha: self.alpha,
            label: self.label,
        };
        inst.validate()?;
        Ok(inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 loaded machines + 1 exchange machine, 3 shards.
    fn tiny() -> Instance {
        let mut b = InstanceBuilder::new(2).alpha(0.1).label("tiny");
        let m0 = b.machine(&[10.0, 10.0]);
        let m1 = b.machine(&[10.0, 10.0]);
        let _x = b.exchange_machine(&[10.0, 10.0]);
        b.shard(&[4.0, 2.0], 1.0, m0);
        b.shard(&[3.0, 3.0], 1.0, m0);
        b.shard(&[2.0, 2.0], 1.0, m1);
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_valid_instance() {
        let inst = tiny();
        assert_eq!(inst.n_machines(), 3);
        assert_eq!(inst.n_shards(), 3);
        assert_eq!(inst.n_exchange(), 1);
        assert_eq!(inst.k_return, 1);
        assert_eq!(inst.exchange_machines(), vec![MachineId(2)]);
    }

    #[test]
    fn totals_and_stringency() {
        let inst = tiny();
        let d = inst.total_demand();
        assert_eq!(d.as_slice(), &[9.0, 7.0]);
        let c = inst.total_capacity();
        assert_eq!(c.as_slice(), &[30.0, 30.0]);
        assert!((inst.stringency() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn streaming_builder_matches_slice_builder() {
        let a = tiny();
        let mut b = InstanceBuilder::with_capacity(2, 3, 3)
            .alpha(0.1)
            .label("tiny");
        let m0 = b.push_machine(ResourceVec::from_slice(&[10.0, 10.0]));
        let m1 = b.push_machine(ResourceVec::from_slice(&[10.0, 10.0]));
        let _x = b.push_exchange(ResourceVec::from_slice(&[10.0, 10.0]));
        b.push_shard(ResourceVec::from_slice(&[4.0, 2.0]), 1.0, m0);
        b.push_shard(ResourceVec::from_slice(&[3.0, 3.0]), 1.0, m0);
        b.push_shard(ResourceVec::from_slice(&[2.0, 2.0]), 1.0, m1);
        let streamed = b.build().unwrap();
        assert_eq!(
            serde_json::to_string(&streamed).unwrap(),
            serde_json::to_string(&a).unwrap()
        );
    }

    #[test]
    fn rejects_shard_on_exchange_machine() {
        let mut b = InstanceBuilder::new(1);
        let x = b.exchange_machine(&[10.0]);
        b.shard(&[1.0], 1.0, x);
        assert!(matches!(
            b.build(),
            Err(ClusterError::ShardOnExchangeMachine { .. })
        ));
    }

    #[test]
    fn rejects_initial_overload() {
        let mut b = InstanceBuilder::new(1);
        let m = b.machine(&[1.0]);
        b.shard(&[2.0], 1.0, m);
        assert!(matches!(
            b.build(),
            Err(ClusterError::InitialOverload { .. })
        ));
    }

    #[test]
    fn rejects_unknown_machine() {
        let mut b = InstanceBuilder::new(1);
        let _ = b.machine(&[1.0]);
        b.shard(&[0.5], 1.0, MachineId(9));
        assert!(matches!(
            b.build(),
            Err(ClusterError::UnknownMachine { .. })
        ));
    }

    #[test]
    fn rejects_k_return_without_vacancy() {
        let mut b = InstanceBuilder::new(1).k_return(1);
        let m = b.machine(&[1.0]);
        b.shard(&[0.5], 1.0, m);
        assert!(matches!(
            b.build(),
            Err(ClusterError::InsufficientVacancy { .. })
        ));
    }

    #[test]
    fn rejects_bad_alpha() {
        let mut b = InstanceBuilder::new(1).alpha(f64::NAN);
        let m = b.machine(&[1.0]);
        b.shard(&[0.5], 1.0, m);
        assert!(matches!(b.build(), Err(ClusterError::BadOverhead { .. })));
    }

    #[test]
    fn rejects_dim_mismatch() {
        let mut inst = tiny();
        inst.machines[0].capacity = ResourceVec::from_slice(&[1.0]);
        assert!(matches!(
            inst.validate(),
            Err(ClusterError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn serde_roundtrip() {
        let inst = tiny();
        let json = serde_json::to_string(&inst).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        back.validate().unwrap();
        assert_eq!(back.n_shards(), inst.n_shards());
        assert_eq!(back.label, "tiny");
    }

    #[test]
    fn split_halves_demand_and_stays_valid() {
        let mut inst = tiny();
        let total = inst.total_demand();
        let new = inst.split_shard(ShardId(0));
        assert_eq!(new, ShardId(3));
        inst.validate().unwrap();
        assert_eq!(inst.n_shards(), 4);
        assert_eq!(inst.initial[3], inst.initial[0]);
        assert_eq!(inst.demand(ShardId(0)).as_slice(), &[2.0, 1.0]);
        assert_eq!(inst.demand(new).as_slice(), &[2.0, 1.0]);
        assert_eq!(inst.shards[0].move_cost, 0.5);
        assert_eq!(inst.total_demand().as_slice(), total.as_slice());
    }

    #[test]
    fn merge_of_split_is_bitwise_identity() {
        let inst = tiny();
        let before = serde_json::to_string(&inst).unwrap();
        let mut m = inst.clone();
        let new = m.split_shard(ShardId(1));
        assert_eq!(m.merge_shards(ShardId(1), new).unwrap(), None);
        assert_eq!(serde_json::to_string(&m).unwrap(), before);
    }

    #[test]
    fn merge_renumbers_the_displaced_last_shard() {
        // Merge s0 into s1 (both on m0): s2 is swap-moved into id 0.
        let mut inst = tiny();
        let moved = inst.merge_shards(ShardId(1), ShardId(0)).unwrap();
        assert_eq!(moved, Some(ShardId(2)));
        inst.validate().unwrap();
        assert_eq!(inst.n_shards(), 2);
        // The old s2 now answers to id 0 on its old machine m1.
        assert_eq!(inst.demand(ShardId(0)).as_slice(), &[2.0, 2.0]);
        assert_eq!(inst.initial[0], MachineId(1));
        // The merged shard carries both demands and move costs.
        assert_eq!(inst.demand(ShardId(1)).as_slice(), &[7.0, 5.0]);
        assert_eq!(inst.shards[1].move_cost, 2.0);
    }

    #[test]
    fn merge_rejects_bad_pairs() {
        let mut inst = tiny();
        // Not co-located: s0 on m0, s2 on m1.
        assert!(matches!(
            inst.merge_shards(ShardId(0), ShardId(2)),
            Err(ClusterError::BadMerge { .. })
        ));
        // Not distinct.
        assert!(inst.merge_shards(ShardId(0), ShardId(0)).is_err());
        // Not present.
        assert!(inst.merge_shards(ShardId(0), ShardId(9)).is_err());
        assert!(inst.merge_shards(ShardId(9), ShardId(0)).is_err());
        // The failed attempts mutated nothing.
        inst.validate().unwrap();
        assert_eq!(inst.n_shards(), 3);
    }

    #[test]
    fn vacant_original_machine_counts_toward_quota() {
        let mut b = InstanceBuilder::new(1).k_return(1);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]); // stays vacant
        b.shard(&[1.0], 1.0, m0);
        let inst = b.build().unwrap();
        assert_eq!(inst.k_return, 1);
        assert_eq!(inst.n_exchange(), 0);
    }
}
