//! The explicit IP model of the paper.
//!
//! Variables, for an instance with `S` shards and `M` machines:
//!
//! * `x_{s,m} ∈ {0,1}` — shard `s` placed on machine `m`,
//! * `y_m ∈ {0,1}` — machine `m` ends vacant (returnable),
//! * `t ∈ ℝ≥0` — the peak normalized load.
//!
//! Objective: `min t + λ · Σ_{s,m≠A0(s)} (cost_s / Σcost) · x_{s,m}`.
//!
//! Constraints:
//!
//! 1. assignment:     `Σ_m x_{s,m} = 1`                        for every `s`
//! 2. capacity:       `Σ_s d_s[r]·x_{s,m} ≤ C_m[r]`            for every `m, r`
//! 3. peak linkage:   `Σ_s d_s[r]·x_{s,m} − C_m[r]·t ≤ 0`      for every `m, r`
//! 4. vacancy link:   `x_{s,m} + y_m ≤ 1`                      for every `s, m`
//! 5. return quota:   `Σ_m y_m ≥ k`
//!
//! The model is materialized sparsely so candidate placements from any
//! algorithm can be *checked against the formulation itself* — that check
//! is part of the integration tests, tying SRA's outputs back to the
//! paper's IP.

use rex_cluster::{Instance, MachineId};

/// Comparison sense of a linear constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sense {
    /// `≤ rhs`
    Le,
    /// `≥ rhs`
    Ge,
    /// `= rhs`
    Eq,
}

/// One sparse linear constraint over the model's variables.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// Human-readable row name (violation reports).
    pub name: String,
    /// `(variable index, coefficient)` pairs.
    pub terms: Vec<(usize, f64)>,
    /// Comparison sense.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
}

/// A violated constraint, as reported by [`IpModel::check`].
#[derive(Clone, Debug)]
pub struct Violation {
    /// Name of the violated row.
    pub constraint: String,
    /// Left-hand-side value attained.
    pub lhs: f64,
    /// Sense of the row.
    pub sense: Sense,
    /// Right-hand side of the row.
    pub rhs: f64,
}

/// The materialized integer program.
#[derive(Clone, Debug)]
pub struct IpModel {
    n_shards: usize,
    n_machines: usize,
    /// Objective coefficients per variable (variable order: all `x_{s,m}`
    /// in shard-major order, then `y_m`, then `t`).
    pub objective: Vec<f64>,
    /// All constraint rows.
    pub constraints: Vec<Constraint>,
}

impl IpModel {
    /// Index of `x_{s,m}`.
    #[inline]
    pub fn x(&self, s: usize, m: usize) -> usize {
        s * self.n_machines + m
    }

    /// Index of `y_m`.
    #[inline]
    pub fn y(&self, m: usize) -> usize {
        self.n_shards * self.n_machines + m
    }

    /// Index of `t`.
    #[inline]
    pub fn t(&self) -> usize {
        self.n_shards * self.n_machines + self.n_machines
    }

    /// Total number of variables.
    fn n_vars(&self) -> usize {
        self.n_shards * self.n_machines + self.n_machines + 1
    }

    /// Builds the model from an instance with migration-cost weight
    /// `lambda` (matching [`rex_cluster::Objective::lambda`]).
    pub fn build(inst: &Instance, lambda: f64) -> Self {
        let s_n = inst.n_shards();
        let m_n = inst.n_machines();
        let mut model = IpModel {
            n_shards: s_n,
            n_machines: m_n,
            objective: vec![0.0; s_n * m_n + m_n + 1],
            constraints: Vec::new(),
        };

        // Objective: t + λ-normalized move costs.
        let t_idx = model.t();
        model.objective[t_idx] = 1.0;
        let total_cost: f64 = inst.shards.iter().map(|s| s.move_cost).sum();
        if lambda > 0.0 && total_cost > 0.0 {
            for s in 0..s_n {
                for m in 0..m_n {
                    if MachineId::from(m) != inst.initial[s] {
                        let idx = model.x(s, m);
                        model.objective[idx] = lambda * inst.shards[s].move_cost / total_cost;
                    }
                }
            }
        }

        // (1) assignment.
        for s in 0..s_n {
            model.constraints.push(Constraint {
                name: format!("assign[s{s}]"),
                terms: (0..m_n).map(|m| (model.x(s, m), 1.0)).collect(),
                sense: Sense::Eq,
                rhs: 1.0,
            });
        }

        // (2) capacity and (3) peak linkage.
        for m in 0..m_n {
            let cap = &inst.machines[m].capacity;
            for r in 0..inst.dims {
                let terms: Vec<(usize, f64)> = (0..s_n)
                    .filter(|&s| inst.shards[s].demand[r] != 0.0)
                    .map(|s| (model.x(s, m), inst.shards[s].demand[r]))
                    .collect();
                model.constraints.push(Constraint {
                    name: format!("cap[m{m},r{r}]"),
                    terms: terms.clone(),
                    sense: Sense::Le,
                    rhs: cap[r],
                });
                let mut peak_terms = terms;
                peak_terms.push((t_idx, -cap[r]));
                model.constraints.push(Constraint {
                    name: format!("peak[m{m},r{r}]"),
                    terms: peak_terms,
                    sense: Sense::Le,
                    rhs: 0.0,
                });
            }
        }

        // (4) vacancy linking.
        for s in 0..s_n {
            for m in 0..m_n {
                model.constraints.push(Constraint {
                    name: format!("vac[s{s},m{m}]"),
                    terms: vec![(model.x(s, m), 1.0), (model.y(m), 1.0)],
                    sense: Sense::Le,
                    rhs: 1.0,
                });
            }
        }

        // (5) return quota.
        model.constraints.push(Constraint {
            name: "quota".to_string(),
            terms: (0..m_n).map(|m| (model.y(m), 1.0)).collect(),
            sense: Sense::Ge,
            rhs: inst.k_return as f64,
        });

        model
    }

    /// Converts a placement into the induced variable vector: `x` from the
    /// placement, `y_m = 1` exactly for vacant machines, and `t` = the
    /// placement's peak load.
    pub fn variables_from_placement(&self, inst: &Instance, placement: &[MachineId]) -> Vec<f64> {
        assert_eq!(placement.len(), self.n_shards);
        let mut v = vec![0.0; self.n_vars()];
        let mut occupied = vec![false; self.n_machines];
        for (s, &m) in placement.iter().enumerate() {
            v[self.x(s, m.idx())] = 1.0;
            occupied[m.idx()] = true;
        }
        for m in 0..self.n_machines {
            if !occupied[m] {
                v[self.y(m)] = 1.0;
            }
        }
        let asg = rex_cluster::Assignment::from_placement(inst, placement.to_vec())
            .expect("placement shape already validated");
        let t_idx = self.t();
        v[t_idx] = asg.peak_load(inst);
        v
    }

    /// Objective value of a variable vector.
    pub fn objective_value(&self, vars: &[f64]) -> f64 {
        self.objective.iter().zip(vars).map(|(c, v)| c * v).sum()
    }

    /// Checks a variable vector against every constraint; returns the
    /// violated rows (empty = the vector is IP-feasible).
    pub fn check(&self, vars: &[f64]) -> Vec<Violation> {
        let tol = 1e-6;
        let mut out = Vec::new();
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(i, coef)| coef * vars[i]).sum();
            let ok = match c.sense {
                Sense::Le => lhs <= c.rhs + tol,
                Sense::Ge => lhs >= c.rhs - tol,
                Sense::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                out.push(Violation {
                    constraint: c.name.clone(),
                    lhs,
                    sense: c.sense,
                    rhs: c.rhs,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_cluster::{Assignment, InstanceBuilder, ShardId};

    fn inst() -> Instance {
        let mut b = InstanceBuilder::new(2);
        let m0 = b.machine(&[10.0, 10.0]);
        let m1 = b.machine(&[10.0, 10.0]);
        let _x = b.exchange_machine(&[10.0, 10.0]);
        b.shard(&[4.0, 2.0], 2.0, m0);
        b.shard(&[3.0, 3.0], 1.0, m1);
        b.build().unwrap()
    }

    #[test]
    fn model_dimensions() {
        let i = inst();
        let m = IpModel::build(&i, 0.0);
        // vars: 2*3 x + 3 y + 1 t = 10.
        assert_eq!(m.objective.len(), 10);
        // rows: 2 assign + (3 machines * 2 dims * 2) cap/peak + 6 vac + 1 quota = 21.
        assert_eq!(m.constraints.len(), 2 + 12 + 6 + 1);
    }

    #[test]
    fn initial_placement_is_ip_feasible() {
        let i = inst();
        let m = IpModel::build(&i, 0.0);
        let vars = m.variables_from_placement(&i, &i.initial);
        assert!(m.check(&vars).is_empty());
    }

    #[test]
    fn objective_matches_cluster_objective() {
        let i = inst();
        let lambda = 0.5;
        let m = IpModel::build(&i, lambda);
        let mut asg = Assignment::from_initial(&i);
        asg.move_shard(&i, ShardId(0), rex_cluster::MachineId(1));
        let vars = m.variables_from_placement(&i, asg.placement());
        let obj = rex_cluster::Objective { lambda };
        let expect = obj.value(&i, &asg, &i.initial);
        assert!((m.objective_value(&vars) - expect).abs() < 1e-9);
    }

    #[test]
    fn vacancy_shortfall_violates_quota() {
        let i = inst(); // k_return = 1
        let m = IpModel::build(&i, 0.0);
        let mut asg = Assignment::from_initial(&i);
        // Occupy the exchange machine while keeping m0 and m1 occupied:
        // impossible with 2 shards on 2 machines... move shard 0 onto the
        // exchange machine vacates m0, so instead check the violation path
        // with a hand-built variable vector.
        asg.move_shard(&i, ShardId(0), rex_cluster::MachineId(2));
        let mut vars = m.variables_from_placement(&i, asg.placement());
        // Force y_m0 to 0 (pretend no machine is returnable).
        vars[m.y(0)] = 0.0;
        let violations = m.check(&vars);
        assert!(
            violations.iter().any(|v| v.constraint == "quota"),
            "{violations:?}"
        );
    }

    #[test]
    fn overload_violates_capacity() {
        // Put both shards on m0 with a capacity too small for the pair.
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[10.0]);
        let m1 = b.machine(&[10.0]);
        b.shard(&[7.0], 1.0, m0);
        b.shard(&[6.0], 1.0, m1);
        let i = b.build().unwrap();
        let m = IpModel::build(&i, 0.0);
        let vars =
            m.variables_from_placement(&i, &[rex_cluster::MachineId(0), rex_cluster::MachineId(0)]);
        let violations = m.check(&vars);
        assert!(violations
            .iter()
            .any(|v| v.constraint.starts_with("cap[m0")));
    }

    #[test]
    fn occupied_machine_cannot_be_marked_vacant() {
        let i = inst();
        let m = IpModel::build(&i, 0.0);
        let mut vars = m.variables_from_placement(&i, &i.initial);
        vars[m.y(0)] = 1.0; // m0 hosts shard 0 — contradiction
        let violations = m.check(&vars);
        assert!(violations
            .iter()
            .any(|v| v.constraint.starts_with("vac[s0,m0")));
    }

    #[test]
    fn understated_t_violates_peak_linkage() {
        let i = inst();
        let m = IpModel::build(&i, 0.0);
        let mut vars = m.variables_from_placement(&i, &i.initial);
        vars[m.t()] = 0.0;
        let violations = m.check(&vars);
        assert!(violations.iter().any(|v| v.constraint.starts_with("peak[")));
    }
}
