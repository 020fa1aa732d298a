//! The shared run-one-query entry point.
//!
//! Both consumers of the measurement pipeline — the figure harness
//! ([`crate::common::Scenario`]) and the serving layer (`csqp-serve`) —
//! call [`run_query`]: optimize under a policy/objective, bind the winning
//! plan to physical sites, simulate it, and report the metrics. Keeping
//! one entry point means the service measures *exactly* what the figures
//! measure; there is no second, subtly different setup path.
//!
//! Unlike the figure harness (which panics on malformed plans, because a
//! malformed optimizer output is a harness bug), this module returns
//! typed [`RunError`]s so a network server can turn them into ERROR
//! frames instead of dying.

use csqp_catalog::{Catalog, QuerySpec, SiteId, SystemConfig};
use csqp_core::cancel::{CancelToken, StopReason};
use csqp_core::{bind, BindContext, BindError, Diagnostic, Plan, Policy};
use csqp_cost::{CostModel, Objective};
use csqp_engine::{ExecutionBuilder, ExecutionMetrics, ServerLoad};
use csqp_optimizer::{OptConfig, OptResult, Optimizer};
use csqp_simkernel::rng::SimRng;
use csqp_workload::load_utilization;

/// Why a plan could not be executed.
#[derive(Debug)]
pub enum RunError {
    /// The plan arena is malformed (cycle, bad arity, dangling child …).
    Structure(Diagnostic),
    /// Site annotations could not be resolved against the catalog.
    Bind(BindError),
    /// A cancel token stopped the run between phases (client disconnect
    /// or expired deadline).
    Interrupted(StopReason),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Structure(d) => write!(f, "invalid plan structure: {d}"),
            RunError::Bind(e) => write!(f, "plan does not bind: {e}"),
            RunError::Interrupted(r) => write!(f, "run interrupted: {r}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Everything one optimized-and-simulated query yields.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// The plan the optimizer chose (join order + site annotations).
    pub plan: Plan,
    /// The optimizer's estimate for that plan under the objective.
    pub est_cost: f64,
    /// Plans the two-phase search evaluated (diagnostic).
    pub evaluations: u64,
    /// Measured execution metrics from the simulator.
    pub metrics: ExecutionMetrics,
}

/// The load-aware cost model for a scenario: Table 2 parameters plus the
/// disk-utilization penalty of any external server load (§4.2.2).
pub fn cost_model<'a>(
    sys: &'a SystemConfig,
    catalog: &'a Catalog,
    query: &'a QuerySpec,
    loads: &[ServerLoad],
) -> CostModel<'a> {
    let mut model = CostModel::new(sys, catalog, query, SiteId::CLIENT);
    for l in loads {
        model = model.with_disk_load(
            l.site,
            load_utilization(l.rate_per_sec, sys.disk_rand_page_ms),
        );
    }
    model
}

/// Bind `plan` and simulate it under the scenario; the returned error is
/// typed, never a panic.
pub fn execute_plan(
    plan: &Plan,
    query: &QuerySpec,
    catalog: &Catalog,
    sys: &SystemConfig,
    loads: &[ServerLoad],
    seed: u64,
) -> Result<ExecutionMetrics, RunError> {
    execute_plan_guarded(
        plan,
        query,
        catalog,
        sys,
        loads,
        seed,
        &CancelToken::inert(),
    )
}

/// [`execute_plan`] with a cancel probe between the simulated-engine
/// phases (validate → bind → execute), so a serving worker abandons dead
/// work at the next phase boundary instead of simulating a plan nobody
/// will read.
#[allow(clippy::too_many_arguments)]
pub fn execute_plan_guarded(
    plan: &Plan,
    query: &QuerySpec,
    catalog: &Catalog,
    sys: &SystemConfig,
    loads: &[ServerLoad],
    seed: u64,
    guard: &CancelToken,
) -> Result<ExecutionMetrics, RunError> {
    if let Some(reason) = guard.stop_reason() {
        return Err(RunError::Interrupted(reason));
    }
    plan.validate_structure(query)
        .map_err(RunError::Structure)?;
    if let Some(reason) = guard.stop_reason() {
        return Err(RunError::Interrupted(reason));
    }
    let bound = bind(
        plan,
        BindContext {
            catalog,
            query_site: SiteId::CLIENT,
        },
    )
    .map_err(RunError::Bind)?;
    if let Some(reason) = guard.stop_reason() {
        return Err(RunError::Interrupted(reason));
    }
    let mut builder = ExecutionBuilder::new(query, catalog, sys).with_seed(seed);
    for l in loads {
        builder = builder.with_load(l.site, l.rate_per_sec);
    }
    Ok(builder.execute(&bound))
}

/// Two-phase planning (iterative improvement, then simulated annealing)
/// of `query` under `policy` for `objective` against the scenario's cost
/// model, seeded by `seed` and probing `guard` between search steps.
/// The single planning entry point: [`run_query`] and the serving layer's
/// two-phase mode both call it, so a served plan is the figures' plan.
#[allow(clippy::too_many_arguments)]
pub fn plan_two_phase(
    query: &QuerySpec,
    catalog: &Catalog,
    sys: &SystemConfig,
    loads: &[ServerLoad],
    policy: Policy,
    objective: Objective,
    opt: &OptConfig,
    seed: u64,
    guard: &CancelToken,
) -> Result<OptResult, StopReason> {
    let model = cost_model(sys, catalog, query, loads);
    let optimizer = Optimizer::new(&model, policy, objective, opt.clone());
    optimizer.optimize_guarded(query, &mut SimRng::seed_from_u64(seed), guard)
}

/// The paper's measurement pipeline in one call: optimize `query` under
/// `policy` for `objective` against the scenario's cost model, then
/// simulate the winning plan ("the query optimizer was configured to
/// generate plans that minimized the metric being studied", §4.1).
#[allow(clippy::too_many_arguments)]
pub fn run_query(
    query: &QuerySpec,
    catalog: &Catalog,
    sys: &SystemConfig,
    loads: &[ServerLoad],
    policy: Policy,
    objective: Objective,
    opt: &OptConfig,
    seed: u64,
) -> Result<RunStats, RunError> {
    let result = plan_two_phase(
        query,
        catalog,
        sys,
        loads,
        policy,
        objective,
        opt,
        seed,
        &CancelToken::inert(),
    )
    .map_err(RunError::Interrupted)?;
    let metrics = execute_plan(&result.plan, query, catalog, sys, loads, seed)?;
    Ok(RunStats {
        plan: result.plan,
        est_cost: result.cost,
        evaluations: result.evaluations,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_core::NodeId;
    use csqp_workload::{single_server_placement, two_way};

    #[test]
    fn run_query_matches_scenario_pipeline() {
        let q = two_way();
        let cat = single_server_placement(&q);
        let sys = SystemConfig::default();
        let stats = run_query(
            &q,
            &cat,
            &sys,
            &[],
            Policy::QueryShipping,
            Objective::Communication,
            &OptConfig::fast(),
            1,
        )
        .unwrap();
        assert_eq!(stats.metrics.pages_sent, 250);
        assert_eq!(stats.metrics.result_tuples, 10_000);
        assert!((stats.est_cost - 250.0).abs() < 1.0);
        assert!(stats.evaluations > 0);
    }

    #[test]
    fn execute_plan_reports_structure_errors_without_panicking() {
        let q = two_way();
        let cat = single_server_placement(&q);
        let sys = SystemConfig::default();
        let stats = run_query(
            &q,
            &cat,
            &sys,
            &[],
            Policy::DataShipping,
            Objective::ResponseTime,
            &OptConfig::fast(),
            1,
        )
        .unwrap();
        let mut broken = stats.plan;
        let join = broken.join_nodes()[0];
        broken.node_mut(join).children[1] = Some(NodeId(4096));
        let err = execute_plan(&broken, &q, &cat, &sys, &[], 1);
        assert!(matches!(err, Err(RunError::Structure(_))), "{err:?}");
    }
}
