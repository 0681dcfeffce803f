//! Mutable shard placements with incrementally maintained usage.
//!
//! [`Assignment`] is the working state every algorithm in the system mutates:
//! a shard→machine map plus, per machine, the aggregated resource usage and
//! the list of hosted shards. Moves are O(D) in resource arithmetic and O(1)
//! in bookkeeping (swap-remove with a position index), which is what lets
//! the LNS inner loop evaluate tens of thousands of candidate insertions per
//! second on thousand-machine instances.
//!
//! An `Assignment` does not borrow the [`Instance`]; methods take `&Instance`
//! explicitly. Debug builds assert the instance shape matches.

use crate::arena::PackedVecs;
use crate::error::ClusterError;
use crate::instance::Instance;
use crate::machine::MachineId;
use crate::resources::ResourceVec;
use crate::shard::ShardId;

/// Sentinel machine id marking a detached shard inside a partial solution.
///
/// Destroy operators *detach* shards (removing them from their machine's
/// usage) and repair operators *attach* them elsewhere; between the two the
/// placement entry holds this sentinel. Complete solutions never contain it.
const DETACHED: MachineId = MachineId(u32::MAX);

/// An undo log over [`Assignment`] edits.
///
/// The in-place LNS hot loop destroys and repairs **one** working
/// assignment instead of cloning a candidate every iteration. Each
/// [`Assignment::detach_shard_logged`] / [`Assignment::attach_shard_logged`]
/// call records enough state here that [`Assignment::revert`] can undo the
/// whole burst of edits; [`UndoLog::commit`] instead makes the edits the
/// new baseline. All buffers are reused across bursts, so a
/// destroy→repair→revert cycle performs no allocations in steady state.
///
/// Reverts are **bit-exact**: along with the move list, the log snapshots
/// each touched machine's usage vector on first touch and restores it
/// verbatim. Replaying inverse arithmetic would not be exact — f64
/// addition does not cancel (`(u - d) + d ≠ u` in general) — and the
/// search relies on a rejected candidate leaving the incumbent truly
/// untouched.
#[derive(Clone, Debug, Default)]
pub struct UndoLog {
    /// Edits in application order: the shard and the machine it was on
    /// *before* the edit (`DETACHED` for attaches).
    moves: Vec<(ShardId, MachineId)>,
    /// First-touch usage snapshots of machines modified this burst.
    snapshots: Vec<(MachineId, ResourceVec)>,
    /// `stamp[m] == epoch` ⇔ machine `m` is already snapshotted this burst.
    stamp: Vec<u64>,
    /// Current burst number (starts at 1 so a zeroed stamp means never
    /// touched).
    epoch: u64,
}

impl UndoLog {
    /// An empty log.
    pub fn new() -> Self {
        Self {
            moves: Vec::new(),
            snapshots: Vec::new(),
            stamp: Vec::new(),
            epoch: 1,
        }
    }

    /// True when no edits have been recorded since the last commit/revert.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// Number of edits recorded since the last commit/revert.
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// Machines touched by the edits of the current burst (each reported
    /// once, in first-touch order).
    pub fn touched_machines(&self) -> impl Iterator<Item = MachineId> + '_ {
        self.snapshots.iter().map(|&(m, _)| m)
    }

    /// Forgets all recorded edits, making the assignment's current state
    /// the new baseline. O(#edits), no deallocation.
    pub fn commit(&mut self) {
        self.moves.clear();
        self.snapshots.clear();
        self.epoch += 1;
    }

    fn snapshot(&mut self, m: MachineId, usage: &ResourceVec) {
        let i = m.idx();
        if self.stamp.len() <= i {
            self.stamp.resize(i + 1, 0);
        }
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.snapshots.push((m, *usage));
        }
    }
}

/// A placement of every shard onto a machine, with derived per-machine state.
#[derive(Debug)]
pub struct Assignment {
    /// `placement[s]` = machine currently hosting shard `s`.
    placement: Vec<MachineId>,
    /// Row `m` = sum of demands of shards on machine `m`, stored as a
    /// row-major packed arena ([`PackedVecs`]): `dims` floats per machine,
    /// no inline padding — a full-fleet load scan streams `n*dims*8` bytes
    /// instead of `n*72`.
    usage: PackedVecs,
    /// `shards_on[m]` = shards currently hosted by machine `m` (unordered).
    shards_on: Vec<Vec<ShardId>>,
    /// `pos[s]` = index of shard `s` within `shards_on[placement[s]]`.
    pos: Vec<u32>,
}

impl Clone for Assignment {
    fn clone(&self) -> Self {
        Self {
            placement: self.placement.clone(),
            usage: self.usage.clone(),
            shards_on: self.shards_on.clone(),
            pos: self.pos.clone(),
        }
    }

    /// Reuses `self`'s buffers, per-machine shard lists included — the
    /// migration planner resets its working copy this way on every plan.
    fn clone_from(&mut self, source: &Self) {
        self.placement.clone_from(&source.placement);
        self.usage.clone_from(&source.usage);
        self.shards_on.clone_from(&source.shards_on);
        self.pos.clone_from(&source.pos);
    }
}

impl Assignment {
    /// Builds the assignment corresponding to the instance's initial
    /// placement.
    pub fn from_initial(inst: &Instance) -> Self {
        Self::from_placement_unchecked(inst, inst.initial.clone())
    }

    /// Builds an assignment from an arbitrary placement vector, validating
    /// its shape (length and machine ids). Capacity feasibility is *not*
    /// checked here — algorithms routinely pass through transiently
    /// infeasible states; use [`Assignment::check_target`] for full checks.
    pub fn from_placement(
        inst: &Instance,
        placement: Vec<MachineId>,
    ) -> Result<Self, ClusterError> {
        if placement.len() != inst.n_shards() {
            return Err(ClusterError::BadPlacementLength {
                expected: inst.n_shards(),
                found: placement.len(),
            });
        }
        for (i, &m) in placement.iter().enumerate() {
            if m.idx() >= inst.n_machines() {
                return Err(ClusterError::UnknownMachine {
                    shard: ShardId::from(i),
                    machine: m,
                });
            }
        }
        Ok(Self::from_placement_unchecked(inst, placement))
    }

    fn from_placement_unchecked(inst: &Instance, placement: Vec<MachineId>) -> Self {
        let mut usage = PackedVecs::zeroed(inst.dims, inst.n_machines());
        let mut shards_on: Vec<Vec<ShardId>> = vec![Vec::new(); inst.n_machines()];
        let mut pos = vec![0u32; inst.n_shards()];
        for (i, &m) in placement.iter().enumerate() {
            let sid = ShardId::from(i);
            usage.add_assign(m.idx(), &inst.shards[i].demand);
            pos[i] = shards_on[m.idx()].len() as u32;
            shards_on[m.idx()].push(sid);
        }
        Self {
            placement,
            usage,
            shards_on,
            pos,
        }
    }

    /// The machine currently hosting shard `s`.
    #[inline]
    pub fn machine_of(&self, s: ShardId) -> MachineId {
        self.placement[s.idx()]
    }

    /// The full placement vector (one entry per shard).
    #[inline]
    pub fn placement(&self) -> &[MachineId] {
        &self.placement
    }

    /// Consumes the assignment, returning the placement vector.
    pub fn into_placement(self) -> Vec<MachineId> {
        self.placement
    }

    /// Aggregated usage of machine `m`, materialized from the packed
    /// arena row (by value — `ResourceVec` is `Copy`).
    #[inline]
    pub fn usage(&self, m: MachineId) -> ResourceVec {
        self.usage.get(m.idx())
    }

    /// The packed per-machine usage arena (row `m` = machine `m`), for
    /// flat kernels like [`crate::kernels::ratio_scan_rows`].
    #[inline]
    pub fn usage_rows(&self) -> &PackedVecs {
        &self.usage
    }

    /// Shards currently hosted by machine `m` (unordered).
    #[inline]
    pub fn shards_on(&self, m: MachineId) -> &[ShardId] {
        &self.shards_on[m.idx()]
    }

    /// True if machine `m` hosts no shards.
    #[inline]
    pub fn is_vacant(&self, m: MachineId) -> bool {
        self.shards_on[m.idx()].is_empty()
    }

    /// All currently vacant machines.
    pub fn vacant_machines(&self) -> Vec<MachineId> {
        (0..self.shards_on.len())
            .filter(|&i| self.shards_on[i].is_empty())
            .map(MachineId::from)
            .collect()
    }

    /// Number of currently vacant machines.
    pub fn vacant_count(&self) -> usize {
        self.shards_on.iter().filter(|v| v.is_empty()).count()
    }

    /// Moves shard `s` to machine `to`, updating all derived state.
    /// Returns the machine the shard was on. Moving a shard onto the
    /// machine it already occupies is a no-op.
    pub fn move_shard(&mut self, inst: &Instance, s: ShardId, to: MachineId) -> MachineId {
        let from = self.placement[s.idx()];
        assert_ne!(
            from, DETACHED,
            "cannot move detached shard {s}; use attach_shard"
        );
        if from == to {
            return from;
        }
        debug_assert!(to.idx() < inst.n_machines());
        let demand = &inst.shards[s.idx()].demand;

        // Detach from `from`: swap-remove using the position index.
        let from_list = &mut self.shards_on[from.idx()];
        let p = self.pos[s.idx()] as usize;
        debug_assert_eq!(from_list[p], s);
        let last = from_list.len() - 1;
        from_list.swap(p, last);
        from_list.pop();
        if p < from_list.len() {
            self.pos[from_list[p].idx()] = p as u32;
        }
        self.usage.saturating_sub_assign(from.idx(), demand);

        // Attach to `to`.
        self.pos[s.idx()] = self.shards_on[to.idx()].len() as u32;
        self.shards_on[to.idx()].push(s);
        self.usage.add_assign(to.idx(), demand);
        self.placement[s.idx()] = to;
        from
    }

    /// Detaches shard `s` from its machine: usage and shard lists are
    /// updated and the placement entry becomes `DETACHED`. Returns the
    /// machine the shard was on.
    ///
    /// # Panics
    /// If the shard is already detached.
    pub fn detach_shard(&mut self, inst: &Instance, s: ShardId) -> MachineId {
        let from = self.placement[s.idx()];
        assert_ne!(from, DETACHED, "shard {s} is already detached");
        let demand = &inst.shards[s.idx()].demand;
        let from_list = &mut self.shards_on[from.idx()];
        let p = self.pos[s.idx()] as usize;
        debug_assert_eq!(from_list[p], s);
        let last = from_list.len() - 1;
        from_list.swap(p, last);
        from_list.pop();
        if p < from_list.len() {
            self.pos[from_list[p].idx()] = p as u32;
        }
        self.usage.saturating_sub_assign(from.idx(), demand);
        self.placement[s.idx()] = DETACHED;
        from
    }

    /// Attaches a detached shard to machine `to`.
    ///
    /// # Panics
    /// If the shard is not currently detached.
    pub fn attach_shard(&mut self, inst: &Instance, s: ShardId, to: MachineId) {
        assert_eq!(
            self.placement[s.idx()],
            DETACHED,
            "shard {s} is not detached"
        );
        debug_assert!(to.idx() < inst.n_machines());
        self.pos[s.idx()] = self.shards_on[to.idx()].len() as u32;
        self.shards_on[to.idx()].push(s);
        self.usage
            .add_assign(to.idx(), &inst.shards[s.idx()].demand);
        self.placement[s.idx()] = to;
    }

    /// [`Assignment::detach_shard`], recording the edit in `log` so
    /// [`Assignment::revert`] can undo it.
    pub fn detach_shard_logged(
        &mut self,
        inst: &Instance,
        s: ShardId,
        log: &mut UndoLog,
    ) -> MachineId {
        let from = self.placement[s.idx()];
        assert_ne!(from, DETACHED, "shard {s} is already detached");
        log.snapshot(from, &self.usage.get(from.idx()));
        log.moves.push((s, from));
        self.detach_shard(inst, s)
    }

    /// [`Assignment::attach_shard`], recording the edit in `log` so
    /// [`Assignment::revert`] can undo it.
    pub fn attach_shard_logged(
        &mut self,
        inst: &Instance,
        s: ShardId,
        to: MachineId,
        log: &mut UndoLog,
    ) {
        assert_eq!(
            self.placement[s.idx()],
            DETACHED,
            "shard {s} is not detached"
        );
        log.snapshot(to, &self.usage.get(to.idx()));
        log.moves.push((s, DETACHED));
        self.attach_shard(inst, s, to);
    }

    /// Undoes every edit recorded in `log` since its last commit, leaving
    /// the assignment **bit-identical** to its state at that point
    /// (placement, shard lists, position index, and cached usage vectors —
    /// usage is restored from the log's first-touch snapshots rather than
    /// recomputed). Shard-list *order* on touched machines may differ; the
    /// lists are documented as unordered. The log is left empty.
    pub fn revert(&mut self, inst: &Instance, log: &mut UndoLog) {
        while let Some((s, prev)) = log.moves.pop() {
            if prev == DETACHED {
                self.detach_shard(inst, s); // the edit was an attach
            } else {
                self.attach_shard(inst, s, prev); // the edit was a detach
            }
        }
        for (m, u) in log.snapshots.drain(..) {
            self.usage.set(m.idx(), &u);
        }
        log.epoch += 1;
    }

    /// True if shard `s` is currently detached.
    #[inline]
    pub fn is_detached(&self, s: ShardId) -> bool {
        self.placement[s.idx()] == DETACHED
    }

    /// True if no shard is detached (the placement is complete).
    pub fn is_complete(&self) -> bool {
        self.placement.iter().all(|&m| m != DETACHED)
    }

    /// Load of machine `m`: peak normalized utilization over dimensions.
    #[inline]
    pub fn machine_load(&self, inst: &Instance, m: MachineId) -> f64 {
        self.usage.max_ratio(m.idx(), inst.capacity(m))
    }

    /// Loads of all machines.
    pub fn loads(&self, inst: &Instance) -> Vec<f64> {
        (0..inst.n_machines())
            .map(|i| self.usage.max_ratio(i, &inst.machines[i].capacity))
            .collect()
    }

    /// The peak load across all machines (the primary balance objective).
    pub fn peak_load(&self, inst: &Instance) -> f64 {
        crate::kernels::scan_with(inst.n_machines(), |i| {
            self.usage.max_ratio(i, &inst.machines[i].capacity)
        })
        .peak
        .max(0.0)
    }

    /// `(peak load, mean squared load)` in one pass.
    ///
    /// The mean-square term is the plateau-breaker used by search: with
    /// several machines tied at the peak, pure peak load is flat under any
    /// single improvement, while the mean square strictly rewards taking
    /// load off hot machines.
    ///
    /// Uses the chunked [`crate::kernels`] scan, so the result rounds
    /// identically to a scan over a cached load vector — the in-place
    /// solver state relies on that agreement.
    pub fn load_stats(&self, inst: &Instance) -> (f64, f64) {
        let n = inst.n_machines();
        let s =
            crate::kernels::scan_with(n, |i| self.usage.max_ratio(i, &inst.machines[i].capacity));
        (s.peak.max(0.0), s.sumsq / n as f64)
    }

    /// True if every machine's usage fits within its capacity.
    pub fn is_capacity_feasible(&self, inst: &Instance) -> bool {
        inst.machines
            .iter()
            .enumerate()
            .all(|(i, m)| self.usage.fits_within(i, &m.capacity))
    }

    /// Whether shard `s` fits on machine `m` given current usage.
    #[inline]
    pub fn fits(&self, inst: &Instance, s: ShardId, m: MachineId) -> bool {
        self.usage
            .fits_after_add(m.idx(), &inst.shards[s.idx()].demand, inst.capacity(m))
    }

    /// Total one-time migration cost relative to a reference placement:
    /// the sum of `move_cost` over shards whose machine differs.
    pub fn migration_cost(&self, inst: &Instance, reference: &[MachineId]) -> f64 {
        debug_assert_eq!(reference.len(), self.placement.len());
        self.placement
            .iter()
            .zip(reference)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| inst.shards[i].move_cost)
            .sum()
    }

    /// Number of shards placed differently from a reference placement.
    pub fn moved_count(&self, reference: &[MachineId]) -> usize {
        self.placement
            .iter()
            .zip(reference)
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Full target-feasibility check: capacity on every machine and at
    /// least `inst.k_return` vacant machines.
    pub fn check_target(&self, inst: &Instance) -> Result<(), ClusterError> {
        for m in &inst.machines {
            if !self.usage.fits_within(m.id.idx(), &m.capacity) {
                return Err(ClusterError::TargetOverload { machine: m.id });
            }
        }
        let vacant = self.vacant_count();
        if vacant < inst.k_return {
            return Err(ClusterError::VacancyShortfall {
                required: inst.k_return,
                found: vacant,
            });
        }
        Ok(())
    }

    /// Exhaustive internal-consistency check (O(S·D)): usage equals the sum
    /// of hosted demands, shard lists and position indices agree with the
    /// placement. Intended for tests and debug assertions, not hot paths.
    pub fn validate_consistency(&self, inst: &Instance) -> Result<(), String> {
        if self.placement.len() != inst.n_shards() {
            return Err("placement length mismatch".into());
        }
        let mut usage = vec![ResourceVec::zero(inst.dims); inst.n_machines()];
        for (i, &m) in self.placement.iter().enumerate() {
            if m == DETACHED {
                continue;
            }
            usage[m.idx()] += &inst.shards[i].demand;
            let p = self.pos[i] as usize;
            let list = &self.shards_on[m.idx()];
            if p >= list.len() || list[p] != ShardId::from(i) {
                return Err(format!("pos index broken for shard {i}"));
            }
        }
        #[allow(clippy::needless_range_loop)] // i indexes three parallel structures
        for i in 0..inst.n_machines() {
            if !usage[i].approx_eq(&self.usage.get(i), 1e-6) {
                return Err(format!(
                    "usage mismatch on machine {i}: recomputed {:?} cached {:?}",
                    usage[i],
                    self.usage.get(i)
                ));
            }
            let count: usize = self.shards_on[i].len();
            let expect = self
                .placement
                .iter()
                .filter(|&&m| m != DETACHED && m.idx() == i)
                .count();
            if count != expect {
                return Err(format!("shard list length mismatch on machine {i}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;

    fn tiny() -> Instance {
        let mut b = InstanceBuilder::new(2).label("tiny");
        let m0 = b.machine(&[10.0, 10.0]);
        let m1 = b.machine(&[10.0, 10.0]);
        let _x = b.exchange_machine(&[10.0, 10.0]);
        b.shard(&[4.0, 2.0], 2.0, m0);
        b.shard(&[3.0, 3.0], 3.0, m0);
        b.shard(&[2.0, 2.0], 5.0, m1);
        b.build().unwrap()
    }

    #[test]
    fn from_initial_matches_instance() {
        let inst = tiny();
        let a = Assignment::from_initial(&inst);
        assert_eq!(a.machine_of(ShardId(0)), MachineId(0));
        assert_eq!(a.usage(MachineId(0)).as_slice(), &[7.0, 5.0]);
        assert_eq!(a.usage(MachineId(2)).as_slice(), &[0.0, 0.0]);
        assert_eq!(a.shards_on(MachineId(0)).len(), 2);
        assert!(a.is_vacant(MachineId(2)));
        assert_eq!(a.vacant_count(), 1);
        a.validate_consistency(&inst).unwrap();
    }

    #[test]
    fn move_updates_everything() {
        let inst = tiny();
        let mut a = Assignment::from_initial(&inst);
        let from = a.move_shard(&inst, ShardId(0), MachineId(2));
        assert_eq!(from, MachineId(0));
        assert_eq!(a.machine_of(ShardId(0)), MachineId(2));
        assert_eq!(a.usage(MachineId(0)).as_slice(), &[3.0, 3.0]);
        assert_eq!(a.usage(MachineId(2)).as_slice(), &[4.0, 2.0]);
        assert!(!a.is_vacant(MachineId(2)));
        a.validate_consistency(&inst).unwrap();
    }

    #[test]
    fn move_to_same_machine_is_noop() {
        let inst = tiny();
        let mut a = Assignment::from_initial(&inst);
        let before = a.clone();
        a.move_shard(&inst, ShardId(1), MachineId(0));
        assert_eq!(a.placement(), before.placement());
        a.validate_consistency(&inst).unwrap();
    }

    #[test]
    fn loads_and_peak() {
        let inst = tiny();
        let a = Assignment::from_initial(&inst);
        let loads = a.loads(&inst);
        assert!((loads[0] - 0.7).abs() < 1e-12); // max(7/10, 5/10)
        assert!((loads[1] - 0.2).abs() < 1e-12);
        assert_eq!(loads[2], 0.0);
        assert!((a.peak_load(&inst) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn fits_respects_capacity() {
        let inst = tiny();
        let a = Assignment::from_initial(&inst);
        // m0 usage [7,5]; shard 2 demand [2,2] → [9,7] fits.
        assert!(a.fits(&inst, ShardId(2), MachineId(0)));
        // Construct a shard that would overflow.
        let mut b = InstanceBuilder::new(2);
        let m0 = b.machine(&[5.0, 5.0]);
        let _m1 = b.machine(&[5.0, 5.0]);
        b.shard(&[4.0, 4.0], 1.0, m0);
        b.shard(&[2.0, 2.0], 1.0, MachineId(1));
        let inst2 = b.build().unwrap();
        let a2 = Assignment::from_initial(&inst2);
        assert!(!a2.fits(&inst2, ShardId(1), MachineId(0)));
    }

    #[test]
    fn migration_cost_counts_moved_shards() {
        let inst = tiny();
        let mut a = Assignment::from_initial(&inst);
        assert_eq!(a.migration_cost(&inst, &inst.initial), 0.0);
        assert_eq!(a.moved_count(&inst.initial), 0);
        a.move_shard(&inst, ShardId(0), MachineId(2));
        a.move_shard(&inst, ShardId(2), MachineId(0));
        assert_eq!(a.migration_cost(&inst, &inst.initial), 2.0 + 5.0);
        assert_eq!(a.moved_count(&inst.initial), 2);
    }

    #[test]
    fn check_target_vacancy() {
        let inst = tiny(); // k_return = 1
        let mut a = Assignment::from_initial(&inst);
        a.check_target(&inst).unwrap();
        // Occupy the exchange machine without vacating anything else.
        a.move_shard(&inst, ShardId(0), MachineId(2));
        assert!(matches!(
            a.check_target(&inst),
            Err(ClusterError::VacancyShortfall {
                required: 1,
                found: 0
            })
        ));
        // Vacate m1 to restore the quota.
        a.move_shard(&inst, ShardId(2), MachineId(0));
        a.check_target(&inst).unwrap();
        assert_eq!(a.vacant_machines(), vec![MachineId(1)]);
    }

    #[test]
    fn from_placement_validates_shape() {
        let inst = tiny();
        assert!(matches!(
            Assignment::from_placement(&inst, vec![MachineId(0)]),
            Err(ClusterError::BadPlacementLength { .. })
        ));
        assert!(matches!(
            Assignment::from_placement(&inst, vec![MachineId(0), MachineId(0), MachineId(99)]),
            Err(ClusterError::UnknownMachine { .. })
        ));
    }

    #[test]
    fn detach_attach_roundtrip() {
        let inst = tiny();
        let mut a = Assignment::from_initial(&inst);
        let from = a.detach_shard(&inst, ShardId(0));
        assert_eq!(from, MachineId(0));
        assert!(a.is_detached(ShardId(0)));
        assert!(!a.is_complete());
        assert_eq!(a.usage(MachineId(0)).as_slice(), &[3.0, 3.0]);
        a.validate_consistency(&inst).unwrap();
        a.attach_shard(&inst, ShardId(0), MachineId(2));
        assert!(!a.is_detached(ShardId(0)));
        assert!(a.is_complete());
        assert_eq!(a.usage(MachineId(2)).as_slice(), &[4.0, 2.0]);
        a.validate_consistency(&inst).unwrap();
    }

    #[test]
    #[should_panic]
    fn double_detach_panics() {
        let inst = tiny();
        let mut a = Assignment::from_initial(&inst);
        a.detach_shard(&inst, ShardId(0));
        a.detach_shard(&inst, ShardId(0));
    }

    #[test]
    #[should_panic]
    fn attach_non_detached_panics() {
        let inst = tiny();
        let mut a = Assignment::from_initial(&inst);
        a.attach_shard(&inst, ShardId(0), MachineId(2));
    }

    #[test]
    #[should_panic]
    fn move_detached_panics() {
        let inst = tiny();
        let mut a = Assignment::from_initial(&inst);
        a.detach_shard(&inst, ShardId(0));
        a.move_shard(&inst, ShardId(0), MachineId(2));
    }

    #[test]
    fn detaching_last_shard_vacates_machine() {
        let inst = tiny();
        let mut a = Assignment::from_initial(&inst);
        a.detach_shard(&inst, ShardId(2));
        assert!(a.is_vacant(MachineId(1)));
        assert_eq!(a.vacant_count(), 2);
    }

    #[test]
    fn undo_log_revert_is_bit_exact() {
        let inst = tiny();
        let mut a = Assignment::from_initial(&inst);
        let before_placement = a.placement().to_vec();
        let before_usage: Vec<ResourceVec> = (0..inst.n_machines())
            .map(|m| a.usage(MachineId::from(m)))
            .collect();

        let mut log = UndoLog::new();
        a.detach_shard_logged(&inst, ShardId(0), &mut log);
        a.detach_shard_logged(&inst, ShardId(2), &mut log);
        a.attach_shard_logged(&inst, ShardId(0), MachineId(2), &mut log);
        a.attach_shard_logged(&inst, ShardId(2), MachineId(0), &mut log);
        assert_eq!(log.len(), 4);
        assert!(!log.is_empty());
        let touched: Vec<MachineId> = log.touched_machines().collect();
        assert_eq!(touched, vec![MachineId(0), MachineId(1), MachineId(2)]);

        a.revert(&inst, &mut log);
        assert!(log.is_empty());
        assert_eq!(a.placement(), &before_placement[..]);
        for (m, before) in before_usage.iter().enumerate() {
            // Bit-exact, not approximate: the snapshots were restored.
            assert_eq!(
                a.usage(MachineId::from(m)).as_slice(),
                before.as_slice(),
                "usage differs on machine {m}"
            );
        }
        a.validate_consistency(&inst).unwrap();
    }

    #[test]
    fn undo_log_commit_keeps_edits() {
        let inst = tiny();
        let mut a = Assignment::from_initial(&inst);
        let mut log = UndoLog::new();
        a.detach_shard_logged(&inst, ShardId(0), &mut log);
        a.attach_shard_logged(&inst, ShardId(0), MachineId(2), &mut log);
        log.commit();
        assert!(log.is_empty());
        assert_eq!(a.machine_of(ShardId(0)), MachineId(2));
        // A revert after the commit must be a no-op.
        a.revert(&inst, &mut log);
        assert_eq!(a.machine_of(ShardId(0)), MachineId(2));
        a.validate_consistency(&inst).unwrap();
    }

    #[test]
    fn undo_log_survives_many_random_bursts() {
        use rand::prelude::*;
        let inst = tiny();
        let mut a = Assignment::from_initial(&inst);
        let mut log = UndoLog::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for burst in 0..200 {
            let before_placement = a.placement().to_vec();
            let before_usage: Vec<ResourceVec> = (0..inst.n_machines())
                .map(|m| a.usage(MachineId::from(m)))
                .collect();
            // Detach a random subset, re-attach everywhere.
            let k = rng.random_range(1..=inst.n_shards());
            let picks = rand::seq::index::sample(&mut rng, inst.n_shards(), k);
            for i in &picks {
                a.detach_shard_logged(&inst, ShardId::from(*i), &mut log);
            }
            for i in &picks {
                let m = MachineId::from(rng.random_range(0..inst.n_machines()));
                a.attach_shard_logged(&inst, ShardId::from(*i), m, &mut log);
            }
            if burst % 2 == 0 {
                a.revert(&inst, &mut log);
                assert_eq!(a.placement(), &before_placement[..], "burst {burst}");
                for (m, before) in before_usage.iter().enumerate() {
                    assert_eq!(
                        a.usage(MachineId::from(m)).as_slice(),
                        before.as_slice(),
                        "burst {burst}, machine {m}"
                    );
                }
            } else {
                log.commit();
            }
            a.validate_consistency(&inst).unwrap();
        }
    }

    #[test]
    fn many_random_moves_stay_consistent() {
        use rand::prelude::*;
        let inst = tiny();
        let mut a = Assignment::from_initial(&inst);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..500 {
            let s = ShardId::from(rng.random_range(0..inst.n_shards()));
            let m = MachineId::from(rng.random_range(0..inst.n_machines()));
            a.move_shard(&inst, s, m);
        }
        a.validate_consistency(&inst).unwrap();
    }
}
