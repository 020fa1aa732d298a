//! `csqp-load` — drive a seeded workload mix against a `csqp-serve`
//! instance and report throughput and latency percentiles.
//!
//! ```text
//! cargo run --release --bin csqp-load -- [--addr HOST:PORT] [--clients N]
//!     [--seconds T | --queries N] [--seed S] [--policy DS|QS|HY|mix]
//!     [--objective communication|response-time|total-cost]
//!     [--optimizer two-phase|two-step] [--rate R] [--retry-rejected]
//!     [--deadline-ms D] [--pipeline N] [--serve] [--fail-on-rejects]
//!     [--bench-serve] [--min-qps F] [--bench-reactor] [--idle-sessions N]
//! ```
//!
//! `--serve` spins up an in-process server on a free port and loads it —
//! the one-command loopback smoke CI runs. `--queries N` issues exactly N
//! queries per client (deterministic runs: the printed digest is
//! identical for identical seeds). `--rate` switches from closed-loop to
//! paced open-loop arrivals. `--pipeline N` keeps up to N queries in
//! flight per connection (clamped to the window the server advertises);
//! the digest is unchanged by pipelining, and by `--retry-rejected`.
//!
//! The acceptance checks — chaos soaks, reply and catalog faults, memo
//! on/off identity, pipelined digest equality and the memory-budget
//! gate — are integration tests: `cargo test -p csqp-serve --test chaos`
//! (and `--test memo`, `--test pipeline`, `--test loopback`).
//!
//! `--bench-serve` is the serving-stack perf artifact: a pinned seeded
//! closed-loop run (combine with `--serve` for the self-contained CI
//! gate) whose QPS and latency percentiles land in `BENCH_serve.json`.
//! `--min-qps F` turns it into a regression gate: the run fails when
//! throughput drops below the floor.
//!
//! `--bench-reactor` is the reactor perf artifact: for **each** backend
//! the host supports it spins up an inline server, parks
//! `--idle-sessions N` idle connections on it (default 512 — the mixed
//! idle+active shape the 100k scale suite extrapolates), drives the
//! same seeded closed-loop mix, and records QPS plus the reactor's
//! syscall counters (wait calls/sec, events dispatched/sec) in
//! `BENCH_reactor.json`. The run fails if the backends' reply digests
//! differ, if `--min-qps` is violated on any backend, or if the epoll
//! interest cache degrades into an `epoll_ctl` storm (ctl calls are
//! gated against the work actually done).

use std::process::ExitCode;
use std::time::Duration;

use csqp::core::Policy;
use csqp::cost::Objective;
use csqp::json::{obj, Json};
use csqp::net::poll::Backend;
use csqp::serve::proto::OptimizerMode;
use csqp::serve::{run_load, LoadConfig, Server, ServerConfig};

struct Args {
    load: LoadConfig,
    serve_inline: bool,
    fail_on_rejects: bool,
    bench_serve: bool,
    min_qps: Option<f64>,
    bench_reactor: bool,
    idle_sessions: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        load: LoadConfig::default(),
        serve_inline: false,
        fail_on_rejects: false,
        bench_serve: false,
        min_qps: None,
        bench_reactor: false,
        idle_sessions: 512,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut raw = |name: &str| {
            it.next()
                .unwrap_or_else(|| die(format!("{name} needs an argument")))
        };
        match flag.as_str() {
            "--addr" => args.load.addr = raw("--addr"),
            "--clients" => args.load.clients = num(&raw("--clients"), "--clients") as usize,
            "--seconds" => {
                let v = raw("--seconds")
                    .parse::<f64>()
                    .unwrap_or_else(|_| die("--seconds needs a numeric argument".to_string()));
                args.load.duration = Duration::from_secs_f64(v);
            }
            "--queries" => args.load.queries_per_client = Some(num(&raw("--queries"), "--queries")),
            "--seed" => args.load.seed = num(&raw("--seed"), "--seed"),
            "--policy" => {
                args.load.policy = match raw("--policy").as_str() {
                    "DS" => Some(Policy::DataShipping),
                    "QS" => Some(Policy::QueryShipping),
                    "HY" => Some(Policy::HybridShipping),
                    "mix" => None,
                    other => die(format!("unknown policy {other} (want DS|QS|HY|mix)")),
                }
            }
            "--objective" => {
                args.load.objective = match raw("--objective").as_str() {
                    "communication" => Objective::Communication,
                    "response-time" => Objective::ResponseTime,
                    "total-cost" => Objective::TotalCost,
                    other => die(format!("unknown objective {other}")),
                }
            }
            "--optimizer" => {
                args.load.optimizer = match raw("--optimizer").as_str() {
                    "two-phase" => OptimizerMode::TwoPhase,
                    "two-step" => OptimizerMode::TwoStep,
                    other => die(format!(
                        "unknown optimizer {other} (want two-phase|two-step)"
                    )),
                }
            }
            "--rate" => {
                let v = raw("--rate")
                    .parse::<f64>()
                    .unwrap_or_else(|_| die("--rate needs a numeric argument".to_string()));
                args.load.rate = Some(v);
            }
            "--retry-rejected" => args.load.retry_rejected = true,
            "--pipeline" => args.load.pipeline = num(&raw("--pipeline"), "--pipeline") as usize,
            "--deadline-ms" => {
                args.load.deadline_ms = Some(num(&raw("--deadline-ms"), "--deadline-ms"))
            }
            "--serve" => args.serve_inline = true,
            "--fail-on-rejects" => args.fail_on_rejects = true,
            "--bench-serve" => args.bench_serve = true,
            "--bench-reactor" => args.bench_reactor = true,
            "--idle-sessions" => {
                args.idle_sessions = num(&raw("--idle-sessions"), "--idle-sessions") as usize
            }
            "--min-qps" => {
                args.min_qps = Some(
                    raw("--min-qps")
                        .parse::<f64>()
                        .unwrap_or_else(|_| die("--min-qps needs a numeric argument".to_string())),
                );
            }
            "--help" | "-h" => {
                println!(
                    "usage: csqp-load [--addr HOST:PORT] [--clients N] [--seconds T | --queries N] \
                     [--seed S] [--policy DS|QS|HY|mix] [--objective O] \
                     [--optimizer two-phase|two-step] [--rate R] [--retry-rejected] \
                     [--deadline-ms D] [--pipeline N] [--serve] [--fail-on-rejects] \
                     [--bench-serve] [--min-qps F] [--bench-reactor] [--idle-sessions N]"
                );
                std::process::exit(0);
            }
            other => die(format!("unknown flag {other}")),
        }
    }
    if args.load.clients == 0 {
        die("--clients must be at least 1".to_string());
    }
    args
}

fn num(v: &str, name: &str) -> u64 {
    v.parse::<u64>()
        .unwrap_or_else(|_| die(format!("{name} needs a numeric argument")))
}

fn die(msg: String) -> ! {
    eprintln!("csqp-load: {msg}");
    std::process::exit(2)
}

/// The pinned serving benchmark: a seeded closed-loop run whose QPS and
/// latency percentiles are written to `BENCH_serve.json`. `min_qps` is
/// the CI regression floor.
fn run_bench_serve(load: &LoadConfig, min_qps: Option<f64>) -> Result<(), String> {
    let queries = load.queries_per_client.unwrap_or(64);
    let cfg = LoadConfig {
        queries_per_client: Some(queries),
        ..load.clone()
    };
    println!(
        "csqp-load: serve bench, seed {} ({} clients x {queries} queries, closed loop)",
        cfg.seed, cfg.clients
    );
    let report = run_load(&cfg).map_err(|e| format!("bench load failed: {e}"))?;
    println!("{}", report.render());
    if report.errors > 0 {
        return Err(format!("bench run saw {} query errors", report.errors));
    }
    let bench = obj(vec![
        ("bench", Json::from("csqp-load --bench-serve")),
        ("seed", Json::from(cfg.seed)),
        ("clients", Json::from(cfg.clients as u64)),
        ("queries_per_client", Json::from(queries)),
        ("queries", Json::from(report.queries)),
        ("rejected", Json::from(report.rejected)),
        ("degraded", Json::from(report.degraded)),
        ("timed_out", Json::from(report.timed_out)),
        ("throughput_qps", Json::from(report.throughput_qps)),
        ("p50_ms", Json::from(report.p50_ms)),
        ("p95_ms", Json::from(report.p95_ms)),
        ("p99_ms", Json::from(report.p99_ms)),
    ]);
    std::fs::write("BENCH_serve.json", bench.render_pretty() + "\n")
        .map_err(|e| format!("writing BENCH_serve.json failed: {e}"))?;
    println!(
        "csqp-load: wrote BENCH_serve.json ({:.1} qps, p99 {:.1} ms)",
        report.throughput_qps, report.p99_ms
    );
    if let Some(floor) = min_qps {
        if report.throughput_qps < floor {
            return Err(format!(
                "throughput {:.1} qps fell below the --min-qps floor {floor:.1}",
                report.throughput_qps
            ));
        }
        println!("csqp-load: qps floor {floor:.1} holds");
    }
    Ok(())
}

/// One backend's figures from the reactor bench.
struct ReactorBenchRun {
    backend: Backend,
    digest: u64,
    queries: u64,
    qps: f64,
    p99_ms: f64,
    wait_calls: u64,
    ctl_calls: u64,
    events_dispatched: u64,
}

impl ReactorBenchRun {
    /// Syscalls per second of run wall clock, derived from the load
    /// report's own throughput (`elapsed = queries / qps`) so the bench
    /// needs no clock of its own.
    fn per_sec(&self, count: u64) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        count as f64 * self.qps / self.queries as f64
    }
}

/// Drive the pinned mixed idle+active mix against a fresh inline server
/// on `backend` and collect its reactor counters.
fn bench_reactor_backend(
    load: &LoadConfig,
    backend: Backend,
    idle: usize,
) -> Result<ReactorBenchRun, String> {
    let handle = Server::bind(ServerConfig {
        reactor: backend,
        ..ServerConfig::default()
    })
    .and_then(|s| s.spawn())
    .map_err(|e| format!("reactor bench server ({backend}) failed: {e}"))?;
    let result = (|| {
        // Park the idle population first, and wait for the shards to
        // adopt every socket, so the active run's waits all happen with
        // the full registration table in place.
        let mut parked = Vec::with_capacity(idle);
        for i in 0..idle {
            parked.push(
                std::net::TcpStream::connect(handle.addr())
                    .map_err(|e| format!("idle connection {i} failed ({backend}): {e}"))?,
            );
        }
        let metrics = handle.service().metrics();
        for _ in 0..2_000 {
            if metrics.sessions_open() >= idle as u64 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if metrics.sessions_open() < idle as u64 {
            return Err(format!(
                "only {}/{idle} idle sessions registered ({backend})",
                metrics.sessions_open()
            ));
        }
        let report = run_load(&LoadConfig {
            addr: handle.addr().to_string(),
            ..load.clone()
        })
        .map_err(|e| format!("reactor bench load failed ({backend}): {e}"))?;
        if report.errors > 0 {
            return Err(format!(
                "reactor bench saw {} query errors ({backend})",
                report.errors
            ));
        }
        let snap = handle.service().stats_snapshot();
        drop(parked);
        Ok(ReactorBenchRun {
            backend,
            digest: report.digest,
            queries: report.queries,
            qps: report.throughput_qps,
            p99_ms: report.p99_ms,
            wait_calls: snap.reactor_wait_calls,
            ctl_calls: snap.reactor_ctl_calls,
            events_dispatched: snap.reactor_events_dispatched,
        })
    })();
    handle.shutdown();
    result
}

/// The reactor perf artifact: the same pinned idle+active mix against an
/// inline server per supported backend, figures in `BENCH_reactor.json`.
/// Gates: byte-identical reply digests across backends, the `--min-qps`
/// floor on every backend, and no `epoll_ctl` storm (the interest cache
/// must keep ctl traffic proportional to work done, not to wait count).
fn run_bench_reactor(load: &LoadConfig, min_qps: Option<f64>, idle: usize) -> Result<(), String> {
    let queries = load.queries_per_client.unwrap_or(32);
    let cfg = LoadConfig {
        queries_per_client: Some(queries),
        ..load.clone()
    };
    println!(
        "csqp-load: reactor bench, seed {} ({} clients x {queries} queries + {idle} idle sessions)",
        cfg.seed, cfg.clients
    );
    let mut runs = Vec::new();
    for &backend in Backend::all_supported() {
        let run = bench_reactor_backend(&cfg, backend, idle)?;
        println!(
            "csqp-load: {}: {:.1} qps, p99 {:.1} ms, {} waits ({:.1}/s), \
             {} ctls, {} events ({:.1}/s), digest {:016x}",
            run.backend,
            run.qps,
            run.p99_ms,
            run.wait_calls,
            run.per_sec(run.wait_calls),
            run.ctl_calls,
            run.events_dispatched,
            run.per_sec(run.events_dispatched),
            run.digest
        );
        runs.push(run);
    }
    for pair in runs.windows(2) {
        if pair[0].digest != pair[1].digest {
            return Err(format!(
                "reactor digest mismatch: {:016x} under {} vs {:016x} under {}",
                pair[0].digest, pair[0].backend, pair[1].digest, pair[1].backend
            ));
        }
    }
    let active = cfg.clients as u64;
    for run in &runs {
        if let Some(floor) = min_qps {
            if run.qps < floor {
                return Err(format!(
                    "{} throughput {:.1} qps fell below the --min-qps floor {floor:.1}",
                    run.backend, run.qps
                ));
            }
        }
        if run.backend == Backend::Epoll {
            // The interest-cache regression gate: ctl traffic must be
            // proportional to queries and session churn, never to wait
            // count (an uncached backend would re-register the whole
            // table every wait — idle × waits, orders of magnitude
            // bigger).
            let budget = 8 * run.queries + 4 * (idle as u64 + active) + 64;
            if run.ctl_calls > budget {
                return Err(format!(
                    "epoll_ctl storm: {} ctl calls exceed the cache budget {budget} \
                     ({} queries, {idle} idle sessions)",
                    run.ctl_calls, run.queries
                ));
            }
        }
    }
    let backends: Vec<Json> = runs
        .iter()
        .map(|run| {
            obj(vec![
                ("backend", Json::from(run.backend.name())),
                ("queries", Json::from(run.queries)),
                ("throughput_qps", Json::from(run.qps)),
                ("p99_ms", Json::from(run.p99_ms)),
                ("wait_calls", Json::from(run.wait_calls)),
                (
                    "wait_calls_per_sec",
                    Json::from(run.per_sec(run.wait_calls)),
                ),
                ("ctl_calls", Json::from(run.ctl_calls)),
                ("events_dispatched", Json::from(run.events_dispatched)),
                (
                    "events_per_sec",
                    Json::from(run.per_sec(run.events_dispatched)),
                ),
            ])
        })
        .collect();
    let bench = obj(vec![
        ("bench", Json::from("csqp-load --bench-reactor")),
        ("seed", Json::from(cfg.seed)),
        ("clients", Json::from(cfg.clients as u64)),
        ("queries_per_client", Json::from(queries)),
        ("idle_sessions", Json::from(idle as u64)),
        ("backends", Json::from(backends)),
    ]);
    std::fs::write("BENCH_reactor.json", bench.render_pretty() + "\n")
        .map_err(|e| format!("writing BENCH_reactor.json failed: {e}"))?;
    println!(
        "csqp-load: wrote BENCH_reactor.json ({} backends, digests agree)",
        runs.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run(parse_args()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("csqp-load: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(mut args: Args) -> Result<(), String> {
    // The reactor bench manages its own inline server per backend.
    if args.bench_reactor {
        return run_bench_reactor(&args.load, args.min_qps, args.idle_sessions);
    }
    // In-process loopback server for one-command runs.
    let inline = if args.serve_inline {
        let handle = Server::bind(ServerConfig::default())
            .and_then(|s| s.spawn())
            .map_err(|e| format!("inline server failed: {e}"))?;
        args.load.addr = handle.addr().to_string();
        println!("csqp-load: inline server on {}", handle.addr());
        Some(handle)
    } else {
        None
    };
    let result = if args.bench_serve {
        // A pinned closed-loop run whose figures land in
        // BENCH_serve.json, with an optional QPS regression floor.
        run_bench_serve(&args.load, args.min_qps)
    } else {
        run_plain(&args)
    };
    if let Some(handle) = inline {
        handle.shutdown();
    }
    result
}

/// One load run, reported; fails on query errors, and on admission
/// rejects with `--fail-on-rejects`.
fn run_plain(args: &Args) -> Result<(), String> {
    let report = run_load(&args.load).map_err(|e| e.to_string())?;
    println!("{}", report.render());
    if report.errors > 0 {
        return Err(format!("{} queries failed", report.errors));
    }
    if args.fail_on_rejects && report.rejected > 0 {
        return Err(format!(
            "{} queries rejected by admission control",
            report.rejected
        ));
    }
    Ok(())
}
