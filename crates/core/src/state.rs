//! The in-place search state for SRA: one working assignment plus the
//! incremental caches that make delta objective evaluation cheap.
//!
//! The clone-based hot loop copies the whole `Assignment` every iteration
//! and re-derives peak load, mean-square load, and migration cost from
//! scratch — `O(shards + machines·dims)` per candidate. [`SraState`]
//! instead tracks those quantities incrementally under the edits of one
//! destroy/repair burst:
//!
//! * `loads[m]` — the normalized load of every machine, refreshed in
//!   `O(dims)` whenever a shard is detached from / attached to `m`;
//! * `sumsq` — `Σ loads²` (un-normalized), updated as
//!   `sumsq += new² − old²`;
//! * `peak` — maintained eagerly while loads only grow past it, marked
//!   dirty when a peak-holding machine loses load and lazily rescanned on
//!   the next objective evaluation;
//! * `mig_cost` — the total move cost of shards placed off their initial
//!   machine, adjusted by `±move_cost` on detach/attach;
//! * `vacant` — the number of vacant machines, adjusted on transitions;
//! * `order` — machine ids by `(load, id)`, the repair scan order: machines
//!   whose load changed are listed as stale and re-filed at the start of
//!   the next repair, the rest of the fleet is never re-sorted.
//!
//! Rejections restore the committed baseline **bit-exactly**: the
//! [`rex_cluster::UndoLog`] restores placements and snapshots first-touch
//! usage vectors, per-machine loads are recomputed from those restored
//! usages (a pure function, hence bit-identical), and the scalar
//! accumulators are copied back from the `ScalarBase` taken at the last
//! commit. Accumulator drift (`sumsq`, `mig_cost` are running sums of
//! floating-point deltas) is bounded by a full resynchronization every
//! `RESYNC_EVERY` commits.

use crate::problem::SraProblem;
use rex_cluster::{Assignment, Instance, MachineId, ShardId, UndoLog};
use rex_lns::LnsProblemInPlace;

/// Full cache resynchronization period, in commits. With the compensated
/// accumulators below, each update leaves at most one *delta-sized*
/// rounding error (~`eps·|delta|`, not `eps·|sum|`), so drift stays
/// orders of magnitude below the 1e-9 test tolerance even over millions
/// of commits — the periodic resync is a belt-and-braces backstop, not a
/// load-bearing correction, and fires effectively never in real runs
/// (it used to run every 4096 commits to launder naive-summation drift).
const RESYNC_EVERY: u32 = 1 << 20;

/// Neumaier (Kahan–Babuška) compensated accumulator.
///
/// `value()` returns `sum + compensation`. Each `add` performs the
/// classic two-branch compensation step: whichever operand is smaller in
/// magnitude contributes its rounding loss to `c`. The result is a pure
/// function of the add sequence — no data-dependent reordering — so the
/// bit-determinism contracts (same seed / any thread count → same bytes)
/// hold exactly as they did for naive `+=`.
#[derive(Clone, Copy, Debug, Default)]
struct Compensated {
    sum: f64,
    c: f64,
}

impl Compensated {
    /// Resets to an exactly-known value (used by resync).
    #[inline]
    fn set(&mut self, v: f64) {
        self.sum = v;
        self.c = 0.0;
    }

    /// Adds `x` with Neumaier compensation.
    #[inline]
    fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.c += (self.sum - t) + x;
        } else {
            self.c += (x - t) + self.sum;
        }
        self.sum = t;
    }

    /// The compensated total.
    #[inline]
    fn value(&self) -> f64 {
        self.sum + self.c
    }
}

/// Scalar accumulators snapshotted at each commit, restored on revert.
/// Includes the compensation terms, so a revert restores the accumulators
/// bit-exactly — compensation state and all.
#[derive(Clone, Copy, Debug)]
struct ScalarBase {
    peak: f64,
    peak_dirty: bool,
    sumsq: Compensated,
    mig_cost: Compensated,
    vacant: usize,
}

/// Mutable search state for the in-place SRA hot loop.
///
/// Operators access it through `SraState::detach` / `SraState::attach`
/// (which keep every cache coherent and feed the undo log) and the
/// read-only accessors; the engine drives revert/commit through
/// [`LnsProblemInPlace`].
pub struct SraState {
    pub(crate) asg: Assignment,
    /// Detached shards awaiting re-insertion.
    pub(crate) removed: Vec<ShardId>,
    pub(crate) undo: UndoLog,
    /// Cached normalized load per machine.
    pub(crate) loads: Vec<f64>,
    peak: f64,
    peak_dirty: bool,
    /// Un-normalized `Σ loads²`, compensated (error-bounded, see
    /// [`Compensated`]).
    sumsq: Compensated,
    /// Total move cost of shards currently off their initial machine,
    /// compensated.
    mig_cost: Compensated,
    /// Cached vacant-machine count.
    vacant: usize,
    /// `k_return` plus the number of draining machines (fixed per run).
    reserved: usize,
    base: ScalarBase,
    commits_since_resync: u32,
    /// Total periodic resynchronizations performed (observability).
    resyncs: u64,
    /// Machine-id scratch used by revert (touched-machine list).
    touched: Vec<MachineId>,
    /// Index scratch for destroy operators (shard/machine pools).
    pub(crate) pool: Vec<u32>,
    /// Scoring scratch for destroy operators.
    pub(crate) scored: Vec<(f64, u32)>,
    /// One frontier per detached shard, for the regret-2 repair.
    pub(crate) regret: Vec<Frontier>,
    /// Per-shard `(1+α)·demand` packed row-major (static): what an arrival
    /// needs free, hoisted out of every admissibility check.
    pub(crate) inflight: rex_cluster::PackedVecs,
    /// Per-shard migration penalty (`insertion_penalty`, assignment-free):
    /// together with `loads` and `delta` it lower-bounds any insertion
    /// score, letting repair scans skip machines that cannot beat the
    /// running incumbent.
    pub(crate) pen: Vec<f64>,
    /// Per-shard minimum load growth (see [`min_load_growth`]): inserting
    /// shard `s` anywhere raises that machine's load by at least `delta[s]`.
    pub(crate) delta: Vec<f64>,
    /// Machine ids sorted by `(load, id)` ascending — the repair scan
    /// order. Kept across iterations: every machine whose load changed is
    /// listed in `stale` (the rest are still sorted among themselves),
    /// [`SraState::refresh_order`] re-files the stale ones at the start of
    /// each in-place repair and [`SraState::reposition`] keeps the order
    /// exact after each attach.
    pub(crate) order: Vec<u32>,
    /// Machines whose load changed since the last `refresh_order`, each
    /// once (`is_stale` is the membership flag).
    stale: Vec<u32>,
    is_stale: Vec<bool>,
    /// Cached `inst.demand(s).norm()` per shard (static).
    pub(crate) demand_norm: Vec<f64>,
    /// Machine capacities packed row-major (row `m` = machine `m`), the
    /// static sibling of `Assignment::usage_rows` — lets resync run the
    /// fused cache-blocked `ratio_scan_rows` kernel over two flat arrays,
    /// and the repair scans score a machine from two adjacent rows.
    pub(crate) caps: rex_cluster::PackedVecs,
}

/// Slots per [`Frontier`], chosen by timing alone. Ties break by the
/// canonical scan key (see [`Frontier`]), so every entry is a prefix of the
/// shard's whole-fleet ranking and the depth changes when frontiers are
/// rescanned, never which machine a repair picks. Deeper entries rescan less
/// often (2.1 rescans per placed shard at 8 against 9.3 at the former 3 on a
/// balanced 108×1000 fleet) but every scan runs further before it may break;
/// 6–8 measured fastest on the benchmark's fleets and 12–16 slower (the
/// depth sweep in EXPERIMENTS.md).
pub(crate) const REGRET_K: usize = 8;

/// The cheapest insertions of one detached shard: `m[..n]` are `n ≤ K`
/// allowed, admissible machines and `s[..n]` their exact scores, ascending
/// (`∞` past `n`, so `s[1] − s[0]` is the regret as it stands). No slot
/// scores above `bound` and every machine outside the entry scores at least
/// `bound`, so the `n` scores are the `n` lowest of the whole fleet; `bound`
/// is `∞` when the last scan found fewer than `K` machines — the entry is
/// then the complete feasible set. Best and second-best are exact while
/// `n ≥ 2` or `bound` is `∞`. Equal scores are ordered by the canonical
/// scan key — the shard's initial machine first, then ascending
/// `(loads[m], m)`, the order a fresh scan visits them in — and every
/// machine outside the entry ranks behind every slot by (score, key), so the
/// slots are the first `n` of the shard's ranking over the whole fleet, a
/// function of the current state alone.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Frontier {
    pub(crate) m: [u32; REGRET_K],
    pub(crate) s: [f64; REGRET_K],
    pub(crate) n: usize,
    pub(crate) bound: f64,
}

impl Frontier {
    pub(crate) const EMPTY: Self = Self {
        m: [0; REGRET_K],
        s: [f64::INFINITY; REGRET_K],
        n: 0,
        bound: f64::INFINITY,
    };

    /// Files `(m, score)` at slot `pos ≤ n`, pushing the later slots down
    /// (the last one out when the entry is full).
    pub(crate) fn insert(&mut self, pos: usize, m: MachineId, score: f64) {
        let last = self.n.min(REGRET_K - 1);
        self.m.copy_within(pos..last, pos + 1);
        self.s.copy_within(pos..last, pos + 1);
        (self.m[pos], self.s[pos]) = (m.idx() as u32, score);
        self.n = last + 1;
    }

    /// Files `(m, score)` behind every slot scoring at most `score` (a scan
    /// visits equals in key order), the last slot falling out when the
    /// entry is full; `score` must be below the last slot. Shifts slot by
    /// slot as it compares: a scan files on most of its looks, and a
    /// `copy_within` of a variable range is a `memmove` call each time.
    pub(crate) fn file(&mut self, m: MachineId, score: f64) {
        debug_assert!(score < self.s[REGRET_K - 1]);
        let mut j = self.n.min(REGRET_K - 1);
        while j > 0 && self.s[j - 1] > score {
            self.m[j] = self.m[j - 1];
            self.s[j] = self.s[j - 1];
            j -= 1;
        }
        (self.m[j], self.s[j]) = (m.idx() as u32, score);
        self.n = (self.n + 1).min(REGRET_K);
    }

    /// Drops slot `k < n`, closing the gap.
    pub(crate) fn remove(&mut self, k: usize) {
        self.m.copy_within(k + 1..self.n, k);
        self.s.copy_within(k + 1..self.n, k);
        self.n -= 1;
        self.s[self.n] = f64::INFINITY;
    }
}

/// `δ_s` for every shard: a lower bound on how much any admissible
/// insertion of `s` raises the receiving machine's load, so that
/// `loads[m] + δ_s` (one rounded addition) never exceeds the load-after
/// term of `insertion_score(s, m)`.
///
/// The dimension `d*` that defines `loads[m] = u/c` grows to `(u + a)/c`
/// with `a = demand_{s,d*}` and `c = cap_{m,d*}`, and
/// `a/c ≥ min_d demand_{s,d} / max_m' cap_{m',d}` whatever `m` and `d*`
/// are — which is what makes the bound hold on fleets whose capacities
/// differ machine to machine. A zero-demand dimension makes it `0` (the
/// load-defining dimension may be the one that does not grow).
///
/// Rounding: with `ε = 2⁻⁵³`, `loads[m] ≤ (u/c)(1+ε)`, the cached quotient
/// is `≤ (a/c)(1+ε)`, the scan's addition costs another `(1+ε)`, and the
/// true load-after is `≥ x(1−ε)²` for `x = (u+a)/c` (one rounded add, one
/// rounded divide, and the `max` over dimensions only helps). The bound
/// therefore overshoots by less than `6εx`. Admissibility caps every
/// dimension at `u + a ≤ c + EPS`, so `x ≤ hi = 1 + EPS/min cap`;
/// subtracting `16ε·hi` (and clamping at `0`, where the bound degrades to
/// plain monotonicity of rounded addition) leaves it strictly admissible.
/// A zero or negative capacity anywhere makes `hi` infinite and every
/// `δ_s` zero: such dimensions score `0`/`∞` instead of `u/c`.
fn min_load_growth(inst: &Instance) -> Vec<f64> {
    let mut max_cap = vec![0.0f64; inst.dims];
    let mut min_cap = f64::INFINITY;
    for m in &inst.machines {
        for (d, hi) in max_cap.iter_mut().enumerate() {
            *hi = hi.max(m.capacity[d]);
            min_cap = min_cap.min(m.capacity[d]);
        }
    }
    let margin = 8.0 * f64::EPSILON * (1.0 + rex_cluster::EPS / min_cap.max(0.0));
    inst.shards
        .iter()
        .map(|s| {
            let growth = (0..inst.dims)
                .map(|d| s.demand[d] / max_cap[d])
                .fold(f64::INFINITY, f64::min);
            (growth - margin).max(0.0)
        })
        .collect()
}

impl SraState {
    fn new(p: &SraProblem<'_>, asg: Assignment) -> Self {
        let inst = p.inst;
        let n = inst.n_machines();
        let mut state = Self {
            asg,
            removed: Vec::with_capacity(inst.n_shards().min(256)),
            undo: UndoLog::new(),
            loads: vec![0.0; n],
            peak: 0.0,
            peak_dirty: false,
            sumsq: Compensated::default(),
            mig_cost: Compensated::default(),
            vacant: 0,
            reserved: p.reserved_vacancies(),
            base: ScalarBase {
                peak: 0.0,
                peak_dirty: false,
                sumsq: Compensated::default(),
                mig_cost: Compensated::default(),
                vacant: 0,
            },
            commits_since_resync: 0,
            resyncs: 0,
            touched: Vec::new(),
            pool: Vec::new(),
            scored: Vec::new(),
            regret: Vec::new(),
            inflight: {
                let mut rows = rex_cluster::PackedVecs::zeroed(inst.dims, inst.n_shards());
                for (i, s) in inst.shards.iter().enumerate() {
                    rows.set(i, &s.demand.scaled(1.0 + inst.alpha));
                }
                rows
            },
            pen: (0..inst.n_shards())
                .map(|i| p.insertion_penalty(ShardId::from(i)))
                .collect(),
            delta: min_load_growth(inst),
            order: (0..n as u32).collect(),
            stale: Vec::with_capacity(n),
            is_stale: vec![false; n],
            demand_norm: (0..inst.n_shards())
                .map(|i| inst.demand(ShardId::from(i)).norm())
                .collect(),
            caps: rex_cluster::PackedVecs::from_vecs(
                inst.dims,
                inst.machines.iter().map(|m| &m.capacity),
            ),
        };
        state.resync(inst);
        state.save_base();
        state
    }

    /// The current working assignment.
    pub fn solution(&self) -> &Assignment {
        &self.asg
    }

    /// Shards detached by the current burst, not yet re-inserted.
    pub fn removed(&self) -> &[ShardId] {
        &self.removed
    }

    /// Cached normalized machine loads (index = machine id).
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Cached vacant-machine count.
    pub fn vacant_count(&self) -> usize {
        self.vacant
    }

    /// The vacancy budget for a repair pass, from the cached vacant count
    /// (the in-place equivalent of [`SraProblem::vacancy_budget`]).
    pub fn vacancy_budget(&self) -> usize {
        self.vacant.saturating_sub(self.reserved)
    }

    /// Detaches `s`, logging the edit and pushing it onto `removed`.
    pub(crate) fn detach(&mut self, p: &SraProblem<'_>, s: ShardId) {
        let inst = p.inst;
        let from = self.asg.detach_shard_logged(inst, s, &mut self.undo);
        self.refresh_load(inst, from);
        if self.asg.is_vacant(from) {
            self.vacant += 1;
        }
        if from != inst.initial[s.idx()] {
            self.mig_cost.add(-inst.shards[s.idx()].move_cost);
        }
        self.removed.push(s);
    }

    /// Attaches detached shard `s` to `m`, logging the edit. The caller
    /// owns the `removed` bookkeeping (repairs drain the list).
    pub(crate) fn attach(&mut self, p: &SraProblem<'_>, s: ShardId, m: MachineId) {
        let inst = p.inst;
        if self.asg.is_vacant(m) {
            self.vacant -= 1;
        }
        self.asg.attach_shard_logged(inst, s, m, &mut self.undo);
        self.refresh_load(inst, m);
        if m != inst.initial[s.idx()] {
            self.mig_cost.add(inst.shards[s.idx()].move_cost);
        }
    }

    /// Recomputes `loads[m]` from the assignment's usage and folds the
    /// change into `sumsq` and the (lazily maintained) peak.
    fn refresh_load(&mut self, inst: &Instance, m: MachineId) {
        let i = m.idx();
        let old = self.loads[i];
        let new = self.asg.usage_rows().max_ratio(i, inst.capacity(m));
        self.loads[i] = new;
        self.mark_stale(i);
        self.sumsq.add(new * new - old * old);
        if !self.peak_dirty {
            if new >= self.peak {
                self.peak = new; // grew past the peak: still exact
            } else if old >= self.peak {
                self.peak_dirty = true; // the peak holder shrank: rescan later
            }
        }
    }

    /// Records that `loads[i]` changed: machine `i` may be out of place in
    /// `order` until the next [`SraState::refresh_order`].
    #[inline]
    fn mark_stale(&mut self, i: usize) {
        if !self.is_stale[i] {
            self.is_stale[i] = true;
            self.stale.push(i as u32);
        }
    }

    /// Makes `order` the `(load, id)`-ascending permutation of the fleet
    /// again. `(load, id)` is a strict total order, so the result is the
    /// permutation a full sort would produce; only the work differs: the
    /// untouched machines are still sorted among themselves, so the stale
    /// ones are pulled out, sorted, and merged back in one pass from the
    /// top — `O(machines + stale·log stale)` instead of a fleet sort per
    /// repair.
    pub(crate) fn refresh_order(&mut self) {
        let Self {
            order,
            stale,
            is_stale,
            loads,
            ..
        } = self;
        if stale.is_empty() {
            return;
        }
        let by_load = |a: u32, b: u32| {
            loads[a as usize]
                .partial_cmp(&loads[b as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        };
        stale.sort_unstable_by(|&a, &b| by_load(a, b));
        order.retain(|&m| !is_stale[m as usize]);
        let mut clean = order.len();
        order.resize(clean + stale.len(), 0);
        let mut w = order.len();
        for &m in stale.iter().rev() {
            while clean > 0 && by_load(order[clean - 1], m).is_gt() {
                w -= 1;
                order[w] = order[clean - 1];
                clean -= 1;
            }
            w -= 1;
            order[w] = m;
            is_stale[m as usize] = false;
        }
        stale.clear();
    }

    /// Restores the `(load, id)` order after machine `m`'s load grew from
    /// `before` (an attach on a freshly ordered fleet): finds `m` under its
    /// old key, finds its new place to the right, and shifts the machines
    /// in between down by one.
    pub(crate) fn reposition(&mut self, m: MachineId, before: f64) {
        let raw = m.idx() as u32;
        let loads = &self.loads;
        let key = |x: u32| (loads[x as usize], x);
        let from = self
            .order
            .partition_point(|&x| x != raw && key(x) < (before, raw));
        debug_assert_eq!(self.order[from], raw, "order was stale at {m}");
        let to = from + 1 + self.order[from + 1..].partition_point(|&x| key(x) < key(raw));
        self.order.copy_within(from + 1..to, from);
        self.order[to - 1] = raw;
    }

    /// The current peak load, rescanning the cached loads if stale. The
    /// rescan is the chunked branch-free [`rex_cluster::kernels`] pass over
    /// the flat struct-of-arrays load vector.
    fn current_peak(&mut self) -> f64 {
        if self.peak_dirty {
            self.peak = rex_cluster::kernels::peak(&self.loads);
            self.peak_dirty = false;
        }
        self.peak
    }

    /// Rebuilds every cache from the assignment (drift resynchronization).
    ///
    /// One fused, cache-blocked pass over the packed usage and capacity
    /// arenas ([`rex_cluster::kernels::ratio_scan_rows`]) refreshes the
    /// load vector and its aggregate in the same traversal. The kernel's
    /// aggregate is bit-identical to `scan(&loads)` — the same kernel
    /// `Assignment::load_stats` uses — so the resynced `sumsq` rounds
    /// identically to a full objective recompute.
    fn resync(&mut self, inst: &Instance) {
        let scan = rex_cluster::kernels::ratio_scan_rows(
            inst.dims,
            self.asg.usage_rows().as_flat(),
            self.caps.as_flat(),
            &mut self.loads,
        );
        for i in 0..self.loads.len() {
            self.mark_stale(i);
        }
        self.sumsq.set(scan.sumsq);
        self.peak = scan.peak.max(0.0);
        self.peak_dirty = false;
        self.vacant = self.asg.vacant_count();
        self.mig_cost.set(
            self.asg
                .placement()
                .iter()
                .zip(&inst.initial)
                .enumerate()
                .filter(|&(i, (a, b))| a != b && !self.asg.is_detached(ShardId::from(i)))
                .map(|(i, _)| inst.shards[i].move_cost)
                .sum(),
        );
    }

    fn save_base(&mut self) {
        self.base = ScalarBase {
            peak: self.peak,
            peak_dirty: self.peak_dirty,
            sumsq: self.sumsq,
            mig_cost: self.mig_cost,
            vacant: self.vacant,
        };
    }
}

impl LnsProblemInPlace for SraProblem<'_> {
    type Solution = Assignment;
    type State = SraState;

    fn objective(&self, sol: &Assignment) -> f64 {
        let base = self.objective.value(self.inst, sol, &self.inst.initial);
        if self.smoothing > 0.0 {
            let (_, mean_sq) = sol.load_stats(self.inst);
            base + self.smoothing * mean_sq
        } else {
            base
        }
    }

    fn is_feasible(&self, sol: &Assignment) -> bool {
        sol.is_complete()
            && sol.is_capacity_feasible(self.inst)
            && sol.vacant_count() >= self.reserved_vacancies()
            && (0..self.inst.n_machines())
                .map(MachineId::from)
                .all(|m| !self.is_drained(m) || sol.is_vacant(m))
    }

    fn make_state(&self, sol: Assignment) -> SraState {
        SraState::new(self, sol)
    }

    fn state_objective(&self, state: &mut SraState) -> f64 {
        let n = self.inst.n_machines() as f64;
        let mut value = state.current_peak();
        let total = self.total_move_cost();
        if self.objective.lambda != 0.0 && total > 0.0 {
            value += self.objective.lambda * state.mig_cost.value() / total;
        }
        if self.smoothing > 0.0 {
            value += self.smoothing * state.sumsq.value() / n;
        }
        value
    }

    fn state_feasible(&self, state: &SraState) -> bool {
        if !state.removed.is_empty() || state.vacant < state.reserved {
            return false;
        }
        // Inductive invariant: the committed baseline is feasible, so only
        // machines this burst touched can have gone over capacity or
        // violated the drain condition.
        for m in state.undo.touched_machines() {
            if !state
                .asg
                .usage_rows()
                .fits_within(m.idx(), self.inst.capacity(m))
            {
                return false;
            }
            if self.is_drained(m) && !state.asg.is_vacant(m) {
                return false;
            }
        }
        true
    }

    fn state_accept_best(&self, state: &SraState) -> bool {
        self.accept_best(&state.asg)
    }

    fn snapshot(&self, state: &SraState) -> Assignment {
        state.asg.clone()
    }

    fn revert(&self, state: &mut SraState) {
        let inst = self.inst;
        let mut touched = std::mem::take(&mut state.touched);
        touched.clear();
        touched.extend(state.undo.touched_machines());
        state.asg.revert(inst, &mut state.undo);
        for &m in &touched {
            // Pure function of the bit-exactly restored usage → bit-exact.
            state.loads[m.idx()] = state.asg.usage_rows().max_ratio(m.idx(), inst.capacity(m));
            state.mark_stale(m.idx());
        }
        state.touched = touched;
        state.peak = state.base.peak;
        state.peak_dirty = state.base.peak_dirty;
        state.sumsq = state.base.sumsq;
        state.mig_cost = state.base.mig_cost;
        state.vacant = state.base.vacant;
        state.removed.clear();
    }

    fn commit(&self, state: &mut SraState) {
        debug_assert!(state.removed.is_empty(), "committing an incomplete state");
        state.undo.commit();
        state.commits_since_resync += 1;
        if state.commits_since_resync >= RESYNC_EVERY {
            state.resync(self.inst);
            state.commits_since_resync = 0;
            state.resyncs += 1;
        }
        state.save_base();
    }

    // Observability hooks: cheap field reads, only consulted when a
    // recording `Recorder` is attached to the engine.

    fn state_destroyed(&self, state: &SraState) -> usize {
        state.removed.len()
    }

    fn state_undo_depth(&self, state: &SraState) -> usize {
        state.undo.len()
    }

    fn state_resyncs(&self, state: &SraState) -> u64 {
        state.resyncs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use rex_cluster::{InstanceBuilder, Objective};

    fn inst() -> rex_cluster::Instance {
        let mut b = InstanceBuilder::new(2).label("state");
        let m0 = b.machine(&[10.0, 10.0]);
        let m1 = b.machine(&[10.0, 10.0]);
        let m2 = b.machine(&[10.0, 10.0]);
        let _x = b.exchange_machine(&[10.0, 10.0]);
        b.shard(&[4.0, 1.0], 2.0, m0);
        b.shard(&[3.0, 2.0], 1.0, m0);
        b.shard(&[1.0, 1.0], 1.5, m1);
        b.shard(&[1.5, 0.5], 1.0, m1);
        b.shard(&[2.0, 2.0], 1.0, m2);
        b.build().unwrap()
    }

    fn full_objective(p: &SraProblem<'_>, asg: &Assignment) -> f64 {
        LnsProblemInPlace::objective(p, asg)
    }

    #[test]
    fn make_state_matches_full_objective() {
        let inst = inst();
        let p = SraProblem::new(&inst, Objective::default());
        let asg = Assignment::from_initial(&inst);
        let full = full_objective(&p, &asg);
        let mut state = p.make_state(asg);
        assert!((p.state_objective(&mut state) - full).abs() < 1e-12);
    }

    #[test]
    fn revert_restores_bit_exactly() {
        let inst = inst();
        let p = SraProblem::new(&inst, Objective::default());
        let mut state = p.make_state(Assignment::from_initial(&inst));
        let before_placement = state.asg.placement().to_vec();
        let before_loads = state.loads.clone();
        let before_obj = p.state_objective(&mut state);

        state.detach(&p, ShardId(0));
        state.detach(&p, ShardId(2));
        let removed: Vec<ShardId> = state.removed.drain(..).collect();
        for s in removed {
            state.attach(&p, s, MachineId(2));
        }
        assert_ne!(state.asg.placement(), before_placement.as_slice());

        LnsProblemInPlace::revert(&p, &mut state);
        assert_eq!(state.asg.placement(), before_placement.as_slice());
        assert_eq!(state.loads, before_loads, "loads must restore bit-exactly");
        assert_eq!(p.state_objective(&mut state), before_obj);
        state.asg.validate_consistency(&inst).unwrap();
    }

    #[test]
    fn delta_objective_tracks_full_recompute_over_random_edits() {
        let inst = inst();
        let p = SraProblem::new(&inst, Objective { lambda: 0.3 });
        let mut state = p.make_state(Assignment::from_initial(&inst));
        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..500 {
            let s = ShardId::from(rng.random_range(0..inst.n_shards()));
            state.detach(&p, s);
            // Reattach somewhere it fits (possibly where it came from).
            let mut target = None;
            for mi in 0..inst.n_machines() {
                let m = MachineId::from(mi);
                if state.asg.fits(&inst, s, m) {
                    target = Some(m);
                    if rng.random_range(0..2) == 1 {
                        break;
                    }
                }
            }
            state.removed.clear();
            state.attach(&p, s, target.expect("shard fits somewhere"));
            let delta = p.state_objective(&mut state);
            let full = full_objective(&p, &state.asg);
            assert!(
                (delta - full).abs() < 1e-9,
                "round {round}: delta {delta} vs full {full}"
            );
            if round % 3 == 0 {
                LnsProblemInPlace::revert(&p, &mut state);
            } else {
                LnsProblemInPlace::commit(&p, &mut state);
            }
        }
    }

    #[test]
    fn compensated_accumulators_hold_without_resync() {
        // 20k edit bursts — far past the old 4096-commit resync period and
        // nowhere near the new one, so compensation alone must keep the
        // running `sumsq`/`mig_cost` within the 1e-9 band of a from-scratch
        // recompute.
        let inst = inst();
        let p = SraProblem::new(&inst, Objective { lambda: 0.3 });
        let mut state = p.make_state(Assignment::from_initial(&inst));
        let mut rng = StdRng::seed_from_u64(91);
        for round in 0..20_000u32 {
            let s = ShardId::from(rng.random_range(0..inst.n_shards()));
            state.detach(&p, s);
            let mut target = None;
            for mi in 0..inst.n_machines() {
                let m = MachineId::from(mi);
                if state.asg.fits(&inst, s, m) {
                    target = Some(m);
                    if rng.random_range(0..2) == 1 {
                        break;
                    }
                }
            }
            state.removed.clear();
            state.attach(&p, s, target.expect("shard fits somewhere"));
            LnsProblemInPlace::commit(&p, &mut state);
            if round % 977 == 0 {
                let delta = p.state_objective(&mut state);
                let full = full_objective(&p, &state.asg);
                assert!(
                    (delta - full).abs() < 1e-9,
                    "round {round}: delta {delta} vs full {full}"
                );
            }
        }
        assert_eq!(state.resyncs, 0, "resync must not have fired");
    }

    #[test]
    fn state_feasibility_agrees_with_clone_check() {
        let inst = inst();
        let p = SraProblem::new(&inst, Objective::default());
        let mut state = p.make_state(Assignment::from_initial(&inst));
        assert_eq!(p.state_feasible(&state), p.is_feasible(&state.asg));

        // Incomplete state is infeasible.
        state.detach(&p, ShardId(0));
        assert!(!p.state_feasible(&state));

        // Occupying the reserved vacancy is infeasible.
        let s = state.removed.pop().unwrap();
        state.attach(&p, s, MachineId(3));
        assert_eq!(p.state_feasible(&state), p.is_feasible(&state.asg));
        assert!(!p.state_feasible(&state));
        LnsProblemInPlace::revert(&p, &mut state);
        assert!(p.state_feasible(&state));
    }

    #[test]
    fn vacancy_budget_matches_clone_computation() {
        let inst = inst();
        let p = SraProblem::new(&inst, Objective::default());
        let mut state = p.make_state(Assignment::from_initial(&inst));
        assert_eq!(state.vacancy_budget(), p.vacancy_budget(&state.asg));
        state.detach(&p, ShardId(4)); // vacates m2
        assert_eq!(state.vacancy_budget(), p.vacancy_budget(&state.asg));
        assert_eq!(state.vacancy_budget(), 1);
    }

    #[test]
    fn kept_order_equals_a_fresh_sort_after_any_edits() {
        use rex_workload::synthetic::{generate, SynthConfig};
        let inst = generate(&SynthConfig {
            n_machines: 24,
            n_exchange: 4, // vacant: exact load ties, broken by id
            n_shards: 240,
            seed: 5,
            ..Default::default()
        })
        .unwrap();
        let p = SraProblem::new(&inst, Objective::default());
        let mut state = p.make_state(Assignment::from_initial(&inst));
        let sorted = |state: &SraState| {
            let mut want: Vec<u32> = (0..inst.n_machines() as u32).collect();
            want.sort_by(|&a, &b| {
                let (la, lb) = (state.loads[a as usize], state.loads[b as usize]);
                la.partial_cmp(&lb).unwrap().then(a.cmp(&b))
            });
            want
        };
        let mut rng = StdRng::seed_from_u64(23);
        for round in 0..300 {
            for _ in 0..rng.random_range(1..12) {
                let s = ShardId::from(rng.random_range(0..inst.n_shards()));
                if !state.asg.is_detached(s) {
                    state.detach(&p, s);
                }
            }
            state.refresh_order();
            assert_eq!(state.order, sorted(&state), "round {round}: refresh");
            for s in std::mem::take(&mut state.removed) {
                let m = (0..inst.n_machines())
                    .map(MachineId::from)
                    .filter(|&m| state.asg.fits(&inst, s, m))
                    .nth(rng.random_range(0..3))
                    .unwrap_or(inst.initial[s.idx()]);
                let before = state.loads[m.idx()];
                state.attach(&p, s, m);
                state.reposition(m, before);
                assert_eq!(state.order, sorted(&state), "round {round}: {s} on {m}");
            }
            match round % 3 {
                0 => LnsProblemInPlace::revert(&p, &mut state),
                1 => LnsProblemInPlace::commit(&p, &mut state),
                _ => {
                    // A burst abandoned half-way: detach again, then revert.
                    state.detach(&p, ShardId::from(round % inst.n_shards()));
                    LnsProblemInPlace::revert(&p, &mut state);
                }
            }
        }
    }
}
