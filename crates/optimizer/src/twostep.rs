//! Static and 2-step optimization for pre-compiled queries (§5).
//!
//! "We propose a 2-step optimizer that works as follows:
//!  1. At compile time, generate an incomplete query plan including join
//!     orderings but no site annotations …
//!  2. At execution time, carry out site selection and determine where to
//!     execute every operator of the plan (e.g., using simulated
//!     annealing \[MLR90\])."
//!
//! A *static* optimizer, by contrast, fixes both the join order and the
//! annotations at compile time; at runtime the annotated plan is merely
//! re-*bound* (logical → physical), so it follows data migration blindly.
//!
//! The compile-time system state is generally wrong at runtime — that is
//! the whole point of §5's experiments. [`CompileTimeAssumption`] captures
//! the two assumptions used for Figures 10 and 11: `Centralized` ("the
//! optimizer was told at compile time that the database was centralized on
//! a single site", yielding left-deep plans) and `FullyDistributed`
//! ("each relation was stored on a separate server", yielding bushy
//! plans).

use csqp_catalog::{Catalog, QuerySpec, RelId, SiteId, SystemConfig};
use csqp_core::{Plan, Policy};
use csqp_cost::{CostModel, Objective};
use csqp_memo::{CacheBuckets, CompiledProbe, Env as MemoEnv, MemoTable, SelectProbe};
use csqp_simkernel::rng::SimRng;
use csqp_workload::WorkloadSpec;

use crate::search::{OptConfig, Optimizer};

/// The system state assumed when a query is compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileTimeAssumption {
    /// All relations co-located on one server — drives the optimizer
    /// towards left-deep plans (no parallelism to exploit).
    Centralized,
    /// One relation per server — drives the optimizer towards bushy
    /// plans that maximize independent parallelism.
    FullyDistributed,
    /// Compile against an explicit catalog (e.g. yesterday's placement).
    Placement(
        /// Number of servers in the assumed topology.
        u32,
    ),
}

impl CompileTimeAssumption {
    /// Materialize the assumed catalog for `query`.
    pub fn catalog(self, query: &QuerySpec) -> Catalog {
        match self {
            CompileTimeAssumption::Centralized => {
                let mut c = Catalog::new(1);
                for r in &query.relations {
                    c.place(r.id, SiteId::server(1));
                }
                c
            }
            CompileTimeAssumption::FullyDistributed => {
                let n = query.num_relations() as u32;
                let mut c = Catalog::new(n.max(1));
                for (i, r) in query.relations.iter().enumerate() {
                    c.place(r.id, SiteId::server(i as u32 + 1));
                }
                c
            }
            CompileTimeAssumption::Placement(n) => Catalog::new(n),
        }
    }
}

/// Produces compile-time plans and performs runtime site selection.
pub struct TwoStepPlanner {
    /// Policy of the search space (the §5 experiments use hybrid).
    pub policy: Policy,
    /// Metric to minimize.
    pub objective: Objective,
    /// Search parameters for both phases.
    pub config: OptConfig,
}

impl TwoStepPlanner {
    /// Compile `query` under `assumption`: a full (order + annotation)
    /// optimization against the assumed catalog. The result serves both
    /// as the static plan and as the join-order skeleton for 2-step.
    pub fn compile(
        &self,
        query: &QuerySpec,
        sys: &SystemConfig,
        assumption: CompileTimeAssumption,
        rng: &mut SimRng,
    ) -> Plan {
        let assumed = assumption.catalog(query);
        for r in &query.relations {
            assert!(
                assumed.try_primary_site(r.id).is_some(),
                "assumption must place every relation (got {:?} for {})",
                assumption,
                r.id
            );
        }
        let model = CostModel::new(sys, &assumed, query, SiteId::CLIENT);
        let opt = Optimizer::new(&model, self.policy, self.objective, self.config.clone());
        opt.optimize(query, rng).plan
    }

    /// Compile against an explicit catalog (e.g. the placement as it was
    /// when the query was compiled — the Fig 9 migration scenario).
    pub fn compile_against(
        &self,
        query: &QuerySpec,
        sys: &SystemConfig,
        assumed: &Catalog,
        rng: &mut SimRng,
    ) -> Plan {
        let model = CostModel::new(sys, assumed, query, SiteId::CLIENT);
        let opt = Optimizer::new(&model, self.policy, self.objective, self.config.clone());
        opt.optimize(query, rng).plan
    }

    /// Runtime half of 2-step: site selection (annotation moves only, by
    /// simulated annealing) against the *true* runtime state, keeping the
    /// compiled join order.
    pub fn site_select(
        &self,
        compiled: &Plan,
        query: &QuerySpec,
        sys: &SystemConfig,
        runtime_catalog: &Catalog,
        rng: &mut SimRng,
    ) -> Plan {
        let model = CostModel::new(sys, runtime_catalog, query, SiteId::CLIENT);
        let opt = Optimizer::new(&model, self.policy, self.objective, self.config.clone());
        let start = clamp_to_topology(compiled, query, runtime_catalog);
        opt.site_selection(start, rng).plan
    }

    /// Memoizing [`TwoStepPlanner::compile`]: probe the memo's compiled
    /// layer, optimize cold on a miss and install. The compile RNG stream
    /// is seeded from the probe fingerprint, so the cold plan for a key is
    /// the same whether or not a memo table is in play.
    pub fn compile_memoized(
        &self,
        spec: &WorkloadSpec,
        query: &QuerySpec,
        sys: &SystemConfig,
        assumption: CompileTimeAssumption,
        env: MemoEnv,
        memo: Option<&MemoTable>,
    ) -> (Plan, MemoOutcome) {
        let probe = CompiledProbe::new(spec, self.policy, self.objective, env);
        if let Some(table) = memo {
            if let Some(plan) = table.probe_compiled(&probe) {
                return (plan, MemoOutcome::Hit);
            }
        }
        let mut rng = SimRng::seed_from_u64(probe.compile_seed());
        let plan = self.compile(query, sys, assumption, &mut rng);
        match memo {
            Some(table) => {
                table.install_compiled(&probe, &plan);
                (plan, MemoOutcome::Miss)
            }
            None => (plan, MemoOutcome::Bypass),
        }
    }

    /// Memoizing, cancellable [`TwoStepPlanner::site_select`]: probe the
    /// memo's winner layer for this (policy × objective × cache-bucket) cell,
    /// anneal cold on a miss and install the winner with its proved cost.
    ///
    /// Determinism contract: the annealing stream is seeded from the probe
    /// fingerprint, and `runtime_catalog` must carry exactly the cached
    /// fractions of `buckets` ([`CacheBuckets::planning_fractions`]) — then
    /// a hit is byte-identical to a cold optimization of the same key,
    /// which debug builds enforce on every hit.
    ///
    /// The guard is probed before the memo and between annotation moves,
    /// so a cancelled or expired request fails identically whether the
    /// table is warm or cold, and the serving layer can abandon dead work.
    #[allow(clippy::too_many_arguments)]
    pub fn site_select_memoized(
        &self,
        spec: &WorkloadSpec,
        compiled: &Plan,
        query: &QuerySpec,
        sys: &SystemConfig,
        runtime_catalog: &Catalog,
        buckets: &CacheBuckets,
        env: MemoEnv,
        memo: Option<&MemoTable>,
        guard: &csqp_core::CancelToken,
    ) -> Result<(Plan, MemoOutcome), csqp_core::StopReason> {
        if let Some(reason) = guard.stop_reason() {
            return Err(reason);
        }
        let probe = SelectProbe::new(
            spec,
            compiled,
            self.policy,
            self.objective,
            buckets.clone(),
            env,
        );
        if let Some(table) = memo {
            if let Some(hit) = table.probe_selected(&probe) {
                #[cfg(debug_assertions)]
                self.verify_hit(&probe, compiled, query, sys, runtime_catalog, &hit.plan);
                return Ok((hit.plan, MemoOutcome::Hit));
            }
        }
        let mut rng = SimRng::seed_from_u64(probe.select_seed());
        let model = CostModel::new(sys, runtime_catalog, query, SiteId::CLIENT);
        let opt = Optimizer::new(&model, self.policy, self.objective, self.config.clone());
        let start = clamp_to_topology(compiled, query, runtime_catalog);
        let result = opt.site_selection_guarded(start, &mut rng, guard)?;
        match memo {
            Some(table) => {
                table.install_selected(&probe, &result.plan, result.cost);
                Ok((result.plan, MemoOutcome::Miss))
            }
            None => Ok((result.plan, MemoOutcome::Bypass)),
        }
    }

    /// Debug-build verify hook: every memo hit is re-derived cold with the
    /// same fingerprint seed and must match byte for byte. A divergence
    /// means the caller's runtime catalog drifted from the entry's install
    /// state without a generation bump — a bug worth a loud panic.
    #[cfg(debug_assertions)]
    fn verify_hit(
        &self,
        probe: &SelectProbe,
        compiled: &Plan,
        query: &QuerySpec,
        sys: &SystemConfig,
        runtime_catalog: &Catalog,
        hit: &Plan,
    ) {
        let mut rng = SimRng::seed_from_u64(probe.select_seed());
        let cold = self.site_select(compiled, query, sys, runtime_catalog, &mut rng);
        assert_eq!(
            &cold, hit,
            "memo hit diverged from cold optimization for {}",
            probe.fingerprint
        );
    }
}

/// How a memoized optimization call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoOutcome {
    /// Served from the memo table.
    Hit,
    /// Optimized cold; the result was installed.
    Miss,
    /// Optimized cold; no memo table in play.
    Bypass,
}

/// A compiled plan can reference placements that no longer exist; binding
/// is by relation (primary copy), so annotations always resolve — nothing
/// to clamp today. Kept as a named seam (and exercised by tests) so the
/// invariant is explicit.
fn clamp_to_topology(plan: &Plan, query: &QuerySpec, catalog: &Catalog) -> Plan {
    for r in &query.relations {
        assert!(
            catalog.try_primary_site(r.id).is_some(),
            "runtime catalog must place {}",
            r.id
        );
    }
    plan.clone()
}

/// Convenience: compile-time order, runtime sites, in one call.
pub fn two_step_plan(
    planner: &TwoStepPlanner,
    query: &QuerySpec,
    sys: &SystemConfig,
    assumption: CompileTimeAssumption,
    runtime_catalog: &Catalog,
    rng: &mut SimRng,
) -> Plan {
    let compiled = planner.compile(query, sys, assumption, rng);
    planner.site_select(&compiled, query, sys, runtime_catalog, rng)
}

/// Place `rels` on `num_servers` servers in the given explicit assignment
/// (helper for migration experiments like Fig 9).
pub fn explicit_placement(num_servers: u32, assignment: &[(RelId, u32)]) -> Catalog {
    let mut c = Catalog::new(num_servers);
    for &(rel, server) in assignment {
        c.place(rel, SiteId::server(server));
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_catalog::{JoinEdge, Relation};
    use csqp_core::LogicalOp;

    fn chain(n: u32) -> QuerySpec {
        let rels = (0..n)
            .map(|i| Relation::benchmark(RelId(i), format!("R{i}")))
            .collect();
        let edges = (0..n - 1)
            .map(|i| JoinEdge {
                a: RelId(i),
                b: RelId(i + 1),
                selectivity: 1e-4,
            })
            .collect();
        QuerySpec::new(rels, edges)
    }

    fn planner() -> TwoStepPlanner {
        TwoStepPlanner {
            policy: Policy::HybridShipping,
            objective: Objective::ResponseTime,
            config: OptConfig::fast(),
        }
    }

    /// Left-deepness measure: fraction of joins whose outer input is a
    /// base relation (1.0 for a pure left-deep plan).
    fn deepness(plan: &Plan) -> f64 {
        let joins = plan.join_nodes();
        let deep = joins
            .iter()
            .filter(|&&j| {
                let n = plan.node(j);
                !matches!(plan.node(n.children[1].unwrap()).op, LogicalOp::Join)
            })
            .count();
        deep as f64 / joins.len().max(1) as f64
    }

    #[test]
    fn centralized_assumption_yields_deeper_plans_than_distributed() {
        let q = chain(8);
        let sys = SystemConfig::default();
        let p = planner();
        let mut deep_sum = 0.0;
        let mut bushy_sum = 0.0;
        for seed in 0..5 {
            let mut rng = SimRng::seed_from_u64(seed);
            deep_sum +=
                deepness(&p.compile(&q, &sys, CompileTimeAssumption::Centralized, &mut rng));
            let mut rng = SimRng::seed_from_u64(seed);
            bushy_sum +=
                deepness(&p.compile(&q, &sys, CompileTimeAssumption::FullyDistributed, &mut rng));
        }
        assert!(
            deep_sum > bushy_sum,
            "centralized should be deeper: {deep_sum} vs {bushy_sum}"
        );
    }

    #[test]
    fn site_select_preserves_compiled_join_order() {
        let q = chain(5);
        let sys = SystemConfig::default();
        let p = planner();
        let mut rng = SimRng::seed_from_u64(4);
        let compiled = p.compile(&q, &sys, CompileTimeAssumption::Centralized, &mut rng);

        let mut runtime = Catalog::new(3);
        for i in 0..5 {
            runtime.place(RelId(i), SiteId::server(1 + i % 3));
        }
        let selected = p.site_select(&compiled, &q, &sys, &runtime, &mut rng);
        selected.validate_structure(&q).unwrap();

        let order = |pl: &Plan| -> Vec<String> {
            pl.postorder()
                .into_iter()
                .filter_map(|id| match pl.node(id).op {
                    LogicalOp::Scan { rel } => Some(rel.to_string()),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(order(&compiled), order(&selected));
    }

    #[test]
    fn explicit_placement_builds_catalog() {
        let c = explicit_placement(2, &[(RelId(0), 1), (RelId(1), 2), (RelId(2), 1)]);
        assert_eq!(c.primary_site(RelId(0)), SiteId::server(1));
        assert_eq!(c.primary_site(RelId(2)), SiteId::server(1));
        assert_eq!(c.relations_at(SiteId::server(2)), vec![RelId(1)]);
    }

    #[test]
    fn assumption_catalogs_place_every_relation() {
        let q = chain(4);
        for a in [
            CompileTimeAssumption::Centralized,
            CompileTimeAssumption::FullyDistributed,
        ] {
            let c = a.catalog(&q);
            for r in &q.relations {
                assert!(c.try_primary_site(r.id).is_some());
            }
        }
    }
}
