//! The in-process side: the reference replies from
//! `QueryService::handle_query`, and a layered replay that calls each
//! layer's public entry point the way `handle_query` does, with or
//! without spans.

use std::time::Instant;

use csqp_catalog::{SiteId, SystemConfig};
use csqp_experiments::runner;
use csqp_memo::CacheBuckets;
use csqp_optimizer::{CompileTimeAssumption, Optimizer, TwoStepPlanner};
use csqp_serve::proto::{Frame, OptimizerMode, QueryRequest, ResultRecord};
use csqp_serve::server::{QueryService, ServerConfig};
use csqp_simkernel::rng::SimRng;

use crate::trace::{Recorder, Span};

/// The service configuration matching the flags the served run passes
/// to `csqp-serve` (see `served::server_flags`).
pub fn service(workers: usize) -> QueryService {
    QueryService::new(ServerConfig {
        workers,
        event_threads: 1,
        ..ServerConfig::default()
    })
}

/// Run `f` over `items` on `threads` threads (item `i` on thread
/// `i % threads`), returning results in item order and each thread's
/// recorder spans.
pub fn parallel<T: Send>(
    items: &[usize],
    threads: usize,
    trace: bool,
    epoch: Instant,
    f: impl Fn(usize, &mut Recorder) -> T + Sync,
) -> (Vec<T>, Vec<Vec<Span>>) {
    let threads = threads.max(1);
    let f = &f;
    type ThreadOut<T> = (Vec<(usize, T)>, Vec<Span>);
    let per_thread: Vec<ThreadOut<T>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut rec = Recorder::new(trace, epoch);
                    let out: Vec<(usize, T)> = (t..items.len())
                        .step_by(threads)
                        .map(|i| (i, f(items[i], &mut rec)))
                        .collect();
                    (out, rec.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(p) => std::panic::resume_unwind(p),
            })
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..items.len()).map(|_| None).collect();
    let mut spans = Vec::with_capacity(threads);
    for (out, s) in per_thread {
        for (i, v) in out {
            slots[i] = Some(v);
        }
        spans.push(s);
    }
    (slots.into_iter().flatten().collect(), spans)
}

/// `handle_query` on one request, timed.
pub fn reference(svc: &QueryService, req: &QueryRequest) -> (Result<ResultRecord, String>, u64) {
    let t = Instant::now();
    let out = svc.handle_query(req);
    let ns = t.elapsed().as_nanos() as u64;
    (out.map_err(|e| format!("{e:?}")), ns)
}

/// What the layered replay of one request produced.
pub struct Layered {
    /// The record `handle_query` would return.
    pub record: ResultRecord,
    /// Cost evaluations the two-phase search made (0 for two-step).
    pub evaluations: u64,
    /// Simulator events handled.
    pub events: u64,
    /// Wall time of the whole replay of this request, ns.
    pub wall_ns: u64,
}

/// Replay one request layer by layer, the way `handle_query` serves a
/// request with a usable cache declaration, no server loads, no key
/// declarations and no memory budget (what every workload sends), with
/// a span around each layer call.
pub fn layered(
    svc: &QueryService,
    req: &QueryRequest,
    request: u64,
    rec: &mut Recorder,
) -> Result<Layered, String> {
    let started = Instant::now();
    let sys = SystemConfig::default();
    let out = rec.span("serve.request", request, |rec| {
        let (query, catalog) = rec.span("workload.build", request, |_| {
            let query = req.spec.build();
            let mut catalog = svc.catalog_for(&req.spec);
            for (rel, &fraction) in query.relations.iter().zip(&req.cache) {
                catalog.set_cached_fraction(rel.id, fraction);
            }
            (query, catalog)
        });
        let opt = svc.config().opt.clone();
        let (plan, evaluations) =
            rec.span("optimizer.plan", request, |rec| match req.optimizer {
                OptimizerMode::TwoPhase => {
                    let model = runner::cost_model(&sys, &catalog, &query, &[]);
                    let optimizer = Optimizer::new(&model, req.policy, req.objective, opt);
                    let result = optimizer.optimize(&query, &mut SimRng::seed_from_u64(req.seed));
                    Ok((result.plan, result.evaluations))
                }
                OptimizerMode::TwoStep => {
                    let planner = TwoStepPlanner {
                        policy: req.policy,
                        objective: req.objective,
                        config: opt,
                    };
                    let env = svc.memo_env(&req.spec);
                    let compiled = rec.span("memo.probe", request, |_| {
                        planner
                            .compile_memoized(
                                &req.spec,
                                &query,
                                &sys,
                                CompileTimeAssumption::Centralized,
                                env,
                                svc.memo(),
                            )
                            .0
                    });
                    let buckets = CacheBuckets::quantize(&req.cache);
                    let planning_catalog = rec.span("workload.build", request, |_| {
                        let mut c = svc.catalog_for(&req.spec);
                        for (i, fraction) in buckets.planning_fractions() {
                            if let Some(rel) = query.relations.get(i as usize) {
                                c.set_cached_fraction(rel.id, fraction);
                            }
                        }
                        c
                    });
                    rec.span("memo.probe", request, |_| {
                        planner
                            .site_select_memoized(
                                &req.spec,
                                &compiled,
                                &query,
                                &sys,
                                &planning_catalog,
                                &buckets,
                                env,
                                svc.memo(),
                                &csqp_core::CancelToken::inert(),
                            )
                            .map(|(plan, _)| (plan, 0))
                            .map_err(|r| format!("site selection stopped: {r}"))
                    })
                }
            })?;
        let diags = rec.span("verify.lint", request, |_| {
            csqp_verify::conformance::check_policy(&plan, req.policy)
        });
        if let Some(d) = diags.first() {
            return Err(format!("plan violates {}: {d}", req.policy.short()));
        }
        let metrics = rec
            .span("engine.sim", request, |_| {
                runner::execute_plan(&plan, &query, &catalog, &sys, &[], req.seed)
            })
            .map_err(|e| e.to_string())?;
        let sites = metrics.disk.len();
        let record = ResultRecord {
            id: req.id,
            response_secs: metrics.response_secs(),
            pages_sent: metrics.pages_sent,
            control_msgs: metrics.control_msgs,
            bytes_sent: metrics.bytes_sent,
            link_utilization: metrics.link_utilization,
            disk_utilization: (0..sites)
                .map(|i| metrics.disk_utilization(SiteId(i as u32)))
                .collect(),
            cpu_secs: metrics.cpu_busy.iter().map(|d| d.as_secs_f64()).collect(),
            result_tuples: metrics.result_tuples,
            degraded_from: None,
            degrade_reason: None,
        };
        Ok((record, evaluations, metrics.events_handled))
    })?;
    // The wire work a server does per request: decode the QUERY frame,
    // encode the RESULT frame (and the client the reverse).
    rec.span("proto.codec", request, |_| {
        let query = Frame::Query(req.clone()).encode();
        let result = Frame::Result(out.0.clone()).encode();
        Frame::decode(&query)
            .and_then(|_| Frame::decode(&result))
            .map_err(|e| format!("codec round trip failed: {e}"))
    })?;
    Ok(Layered {
        record: out.0,
        evaluations: out.1,
        events: out.2,
        wall_ns: started.elapsed().as_nanos() as u64,
    })
}
