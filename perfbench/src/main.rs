//! `csqp-perfbench`: one run of the serving benchmark.
//!
//! ```text
//! csqp-perfbench --workload serve-plan|serve-hot|paper-10way --seed N
//!                --seconds S --trace 0|1 --server-bin PATH [--out DIR]
//! ```
//!
//! A run starts `csqp-serve` as its own process (several times, to time
//! set-up), sends a fixed seeded request list over closed-loop
//! stop-and-wait connections (no more than the host has cores), then
//! replays the same requests in-process and fails unless every reply is
//! a RESULT identical to `QueryService::handle_query`'s. With `--trace 1`
//! it also replays the requests layer by layer, twice (without and with
//! spans), requires the exact counts of both replays to agree, and
//! reports per-layer times. The last line of standard output is the
//! result object; `perfbench/README.md` documents the metrics.

mod mix;
mod probe;
mod replay;
mod served;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use csqp_serve::proto::{Frame, OptimizerMode, ResultRecord};
use csqp_serve::server::fnv1a;

use mix::{Mix, Workload};
use served::{Reply, ServerProcess};

/// `trace.coverage` must lie within this distance of 1: the layer self
/// times must account for `handle_query`'s time to within 15%.
const COVERAGE_TOLERANCE: f64 = 0.15;

/// The layers whose self times make up a served query in-process.
const SERVICE_LAYERS: [&str; 5] = [
    "workload.build",
    "optimizer.plan",
    "memo.probe",
    "verify.lint",
    "engine.sim",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: String,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut server_bin = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = value()? == "1",
            "--server-bin" => server_bin = Some(value()?),
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        server_bin: server_bin.ok_or("--server-bin is required")?,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("csqp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{}", result.render());
            if result.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                for p in &result.problems {
                    eprintln!("csqp-perfbench: INCORRECT: {p}");
                }
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("csqp-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// The result object and the correctness problems found.
struct RunResult {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
    problems: Vec<String>,
}

impl RunResult {
    fn render(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// The wire encoding of a record under a given id: replies are compared
/// byte for byte.
fn encoded(record: &ResultRecord, id: u64) -> Vec<u8> {
    let mut r = record.clone();
    r.id = id;
    Frame::Result(r).encode()
}

/// Order-independent digest over `(position, encoded RESULT)` pairs.
fn digest<'a>(records: impl Iterator<Item = (usize, &'a ResultRecord)>) -> u64 {
    records.fold(0u64, |d, (p, r)| {
        let mut keyed = (p as u64).to_be_bytes().to_vec();
        keyed.extend_from_slice(&encoded(r, p as u64 + 1));
        d.wrapping_add(fnv1a(&keyed))
    })
}

fn run(args: &Args) -> Result<RunResult, String> {
    let w = args.workload;
    let mix = mix::build(w, args.seed, args.seconds);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let connections = cores.min(mix::CONNECTIONS);
    let mut problems = Vec::new();

    // Set-up, timed several times: server start to ready, plus the warm
    // pass on serve-hot in segments, each piece scaled by a probe taken
    // just before it. The last server stays up for the timed phase.
    let set_up = || -> Result<_, String> {
        let scale = probe::scale(probe::probe_s());
        let t = Instant::now();
        let (server, mut stream) = ServerProcess::start(&args.server_bin, connections)?;
        let mut secs = t.elapsed().as_secs_f64() * scale;
        let mut warm = Vec::with_capacity(mix.warm.len());
        for segment in mix.warm.chunks(mix::WARM_SEGMENT) {
            let scale = probe::scale(probe::probe_s());
            let t = Instant::now();
            warm.extend(served::send_all(&mut stream, &mix, segment));
            secs += t.elapsed().as_secs_f64() * scale;
        }
        Ok((secs, server, stream, warm))
    };
    let mut setup_s = Vec::new();
    let mut up = None;
    for _ in 0..w.setups() {
        drop(up.take());
        let (secs, server, stream, warm) = set_up()?;
        setup_s.push(secs);
        up = Some((server, stream, warm));
    }
    let (server, mut stream, served_warm) = up.ok_or("no set-up ran")?;

    let timed = served::timed_phase(&server, &mix, connections)?;
    let stats = served::stats(&mut stream)?;
    let peak_rss_mb = server.peak_rss_mb()?;
    drop(stream);
    drop(server);

    // In-process reference: the warm pass in order (memo counts must
    // match the server's exactly), then every distinct request.
    let svc = replay::service(connections);
    let reference_warm: Vec<_> = mix
        .warm
        .iter()
        .map(|&u| replay::reference(&svc, &mix.unique[u]).0)
        .collect();
    let memo_warm = svc.memo().map(|m| m.snapshot()).unwrap_or_default();
    let all: Vec<usize> = (0..mix.unique.len()).collect();
    let epoch = Instant::now();
    // With tracing, each request is replayed layer by layer right after
    // its reference call, so `trace.coverage` compares like with like.
    let (pass, spans) = replay::parallel(&all, connections, args.trace, epoch, |u, rec| {
        let reference = replay::reference(&svc, &mix.unique[u]);
        let traced = args
            .trace
            .then(|| replay::layered(&svc, &mix.unique[u], u as u64, rec));
        (reference, traced)
    });
    let memo_pass = svc.memo().map(|m| m.snapshot()).unwrap_or_default();
    // A set-up without a warm pass takes milliseconds, so repeat it at the
    // end of the run as well: the median then spans the run's duration,
    // not one moment of the host's speed.
    if mix.warm.is_empty() {
        for _ in 0..w.setups() {
            setup_s.push(set_up()?.0);
        }
    }
    let mut reference = Vec::with_capacity(pass.len());
    for (u, ((r, _), _)) in pass.iter().enumerate() {
        match r {
            Ok(rec) => reference.push(rec.clone()),
            Err(e) => return Err(format!("in-process request {u} failed: {e}")),
        }
    }

    // Every served reply must be a RESULT equal to the reference.
    let mut failed = 0usize;
    let mut served_records = Vec::with_capacity(timed.replies.len());
    for (p, reply) in timed.replies.iter().enumerate() {
        let u = p % mix.unique.len();
        match reply {
            Reply::Result(r) => {
                if encoded(r, 0) != encoded(&reference[u], 0) {
                    problems.push(format!("reply at position {p} differs from handle_query"));
                }
                served_records.push((p, r));
            }
            Reply::Other(what) => {
                failed += 1;
                problems.push(format!("position {p}: not a RESULT: {what}"));
            }
        }
    }
    for (k, (served, local)) in served_warm.iter().zip(&reference_warm).enumerate() {
        let u = mix.warm[k];
        match (served, local) {
            (Reply::Result(s), Ok(l))
                if encoded(s, 0) == encoded(l, 0) && encoded(l, 0) == encoded(&reference[u], 0) => {
            }
            _ => problems.push(format!("warm reply {k} differs from handle_query")),
        }
    }
    let served_digest = digest(served_records.iter().map(|(p, r)| (*p, *r)));
    let reference_digest =
        digest((0..mix.timed_len()).map(|p| (p, &reference[p % reference.len()])));
    if served_digest != reference_digest {
        problems.push(format!(
            "served digest {served_digest:016x} != in-process digest {reference_digest:016x}"
        ));
    }

    // Exact counts the server and the in-process replay must agree on.
    let n = mix.timed_len() as u64;
    let two_step = mix.unique[0].optimizer == OptimizerMode::TwoStep;
    let probes_per_query = if two_step { 2 } else { 0 };
    let expect = (
        memo_warm.hits + probes_per_query * n,
        memo_warm.misses,
        mix.warm.len() as u64 + n,
    );
    let got = (stats.memo_hits, stats.memo_misses, stats.queries_served);
    if got != expect {
        problems.push(format!(
            "server memo hits/misses/served {got:?} != in-process {expect:?}"
        ));
    }
    if memo_pass.misses != memo_warm.misses {
        problems.push(format!(
            "timed replay missed the memo {} times",
            memo_pass.misses - memo_warm.misses
        ));
    }

    let results = served_records.len() as f64;
    let sim_response_s = served_records
        .iter()
        .map(|(_, r)| r.response_secs)
        .sum::<f64>()
        / results.max(1.0);
    let pages_per_query = served_records
        .iter()
        .map(|(_, r)| r.pages_sent as f64)
        .sum::<f64>()
        / results.max(1.0);
    // Every timed interval is scaled to the reference host speed by the
    // probe taken just before its segment (`probe.rs`).
    let scales: Vec<f64> = timed
        .segments
        .iter()
        .map(|s| probe::scale(s.probe_s))
        .collect();
    let scaled_s: f64 = timed
        .segments
        .iter()
        .zip(&scales)
        .map(|(s, k)| s.wall.as_secs_f64() * k)
        .sum();
    let raw_s: f64 = timed.segments.iter().map(|s| s.wall.as_secs_f64()).sum();
    let mut scaled_latency_ns: Vec<u64> = timed
        .latency_ns
        .iter()
        .enumerate()
        .map(|(p, &ns)| (ns as f64 * scales[mix.segment_of(p)]).round() as u64)
        .collect();
    scaled_latency_ns.sort_unstable();
    let latency_ms = |q: f64| percentile(&scaled_latency_ns, q) / 1e6;
    eprintln!(
        "csqp-perfbench: {} seed {}: {} passes over {} distinct requests in {} segments \
         ({} latency samples) over {} connections; {:.3} s raw, {raw_qps:.2} q/s raw at \
         median probe {:.2} ms (reference {:.2} ms); p99 {:.3} ms scaled; \
         digest {served_digest:016x}; memo warm {} hits / {} misses; \
         sim_response_s {sim_response_s:?}; pages_per_query {pages_per_query:?}",
        w.name(),
        args.seed,
        mix.passes,
        mix.unique.len(),
        mix.segments(),
        n,
        connections,
        raw_s,
        median(timed.segments.iter().map(|s| s.probe_s * 1e3).collect()),
        probe::REFERENCE_PROBE_S * 1e3,
        latency_ms(0.99),
        memo_warm.hits,
        memo_warm.misses,
        raw_qps = n as f64 / raw_s,
    );

    let mut counts = vec![
        ("digest", format!("{served_digest:016x}")),
        ("memo_hits", stats.memo_hits.to_string()),
        ("memo_misses", stats.memo_misses.to_string()),
        ("queries_served", stats.queries_served.to_string()),
        ("sim_response_s", format!("{sim_response_s:?}")),
        ("pages_per_query", format!("{pages_per_query:?}")),
    ];
    let metrics = if args.trace {
        let traced = TracedPass {
            mix: &mix,
            svc: &svc,
            connections,
            pass: &pass,
            spans,
            memo_before: memo_warm,
            memo_after: memo_pass,
            mean_latency_ns: timed.latency_ns.iter().sum::<u64>() as f64 / n.max(1) as f64,
        };
        let path = args
            .out
            .join(format!("{}-seed{}.spans.jsonl", w.name(), args.seed));
        traced.metrics(&path, &reference, &mut counts, &mut problems)?
    } else {
        let degraded = served_records
            .iter()
            .filter(|(_, r)| r.degraded_from.is_some())
            .count() as f64;
        vec![
            ("throughput_qps", n as f64 / scaled_s, "q/s"),
            ("p50_ms", latency_ms(0.50), "ms"),
            ("p90_ms", latency_ms(0.90), "ms"),
            ("setup_s", median(setup_s), "s"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
            ("success_ratio", results / n as f64, "ratio"),
            (
                "requested_policy_ratio",
                (results - degraded) / n as f64,
                "ratio",
            ),
            ("sim_response_s", sim_response_s, "s"),
            ("pages_per_query", pages_per_query, "pages"),
        ]
    };
    check_repeat(args, &counts, &mut problems)?;
    Ok(RunResult {
        attempted: n as usize,
        failed,
        metrics,
        problems,
    })
}

/// The exact counts must repeat bit for bit from run to run of one
/// build: each run records them under a key of workload, seed, length,
/// trace flag and a digest of the two executables, and a later run with
/// the same key fails unless it reproduces them.
fn check_repeat(
    args: &Args,
    counts: &[(&str, String)],
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let mut build = Vec::new();
    for bin in [
        std::env::current_exe().map_err(|e| e.to_string())?,
        args.server_bin.clone().into(),
    ] {
        build.extend(std::fs::read(&bin).map_err(|e| format!("{}: {e}", bin.display()))?);
    }
    let path = args.out.join(format!(
        "{}-seed{}-s{}-trace{}-{:016x}.counts",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fnv1a(&build)
    ));
    let text: String = counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    match std::fs::read_to_string(&path) {
        Ok(before) if before != text => problems.push(format!(
            "exact counts differ from an earlier run of this build ({}):\nbefore:\n{before}now:\n{text}",
            path.display()
        )),
        Ok(_) => eprintln!("csqp-perfbench: exact counts repeat {}", path.display()),
        Err(_) => {
            std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(())
}

type PassItem = (
    (Result<ResultRecord, String>, u64),
    Option<Result<replay::Layered, String>>,
);

/// The traced run's inputs: the reference pass with its interleaved
/// traced layered replay, and what the served run measured.
struct TracedPass<'a> {
    mix: &'a Mix,
    svc: &'a csqp_serve::QueryService,
    connections: usize,
    pass: &'a [PassItem],
    spans: Vec<Vec<trace::Span>>,
    memo_before: csqp_memo::MemoSnapshot,
    memo_after: csqp_memo::MemoSnapshot,
    mean_latency_ns: f64,
}

impl TracedPass<'_> {
    fn metrics(
        self,
        spans_path: &std::path::Path,
        reference: &[ResultRecord],
        counts: &mut Vec<(&'static str, String)>,
        problems: &mut Vec<String>,
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let nq = self.mix.unique.len() as f64;
        let traced: Vec<&replay::Layered> = self
            .pass
            .iter()
            .enumerate()
            .map(|(u, (_, t))| match t {
                Some(Ok(l)) => Ok(l),
                Some(Err(e)) => Err(format!("layered replay of request {u} failed: {e}")),
                None => Err("traced run without a layered replay".to_string()),
            })
            .collect::<Result<_, _>>()?;

        // The same replay without spans: the untraced baseline for
        // `trace.overhead`, and a second run whose exact counts must
        // repeat the traced one's bit for bit.
        let all: Vec<usize> = (0..self.mix.unique.len()).collect();
        let (untraced, _) =
            replay::parallel(&all, self.connections, false, Instant::now(), |u, rec| {
                replay::layered(self.svc, &self.mix.unique[u], u as u64, rec)
            });
        for (u, (t, plain)) in traced.iter().zip(&untraced).enumerate() {
            let plain = plain
                .as_ref()
                .map_err(|e| format!("untraced replay of request {u} failed: {e}"))?;
            if encoded(&t.record, 0) != encoded(&reference[u], 0) {
                problems.push(format!(
                    "layered replay of request {u} differs from handle_query"
                ));
            }
            if (t.evaluations, t.events, encoded(&t.record, 0))
                != (plain.evaluations, plain.events, encoded(&plain.record, 0))
            {
                problems.push(format!("exact counts of request {u} did not repeat"));
            }
        }

        let mut layers = std::collections::BTreeMap::<&str, trace::LayerTime>::new();
        for spans in &self.spans {
            for (layer, t) in trace::layer_times(spans) {
                let e = layers.entry(layer).or_default();
                e.total_ns += t.total_ns;
                e.self_ns += t.self_ns;
            }
        }
        trace::write_spans(spans_path, &self.spans)
            .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
        let total_us = |layer: &str| layers.get(layer).map_or(0.0, |t| t.total_ns as f64) / 1e3;
        let per_query_us = |layer: &str| total_us(layer) / nq;
        let evals: u64 = traced.iter().map(|l| l.evaluations).sum();
        let events: u64 = traced.iter().map(|l| l.events).sum();
        let service_ns: u64 = self.pass.iter().map(|((_, ns), _)| ns).sum();
        let service_us = service_ns as f64 / 1e3 / nq;
        let self_ns: u64 = SERVICE_LAYERS
            .iter()
            .map(|l| layers.get(l).map_or(0, |t| t.self_ns))
            .sum();
        let coverage = self_ns as f64 / service_ns.max(1) as f64;
        if (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
            problems.push(format!(
                "trace.coverage {coverage:.3} is outside 1 ± {COVERAGE_TOLERANCE}"
            ));
        }
        let traced_ns: u64 = traced.iter().map(|l| l.wall_ns).sum();
        let untraced_ns: u64 = untraced.iter().flatten().map(|l| l.wall_ns).sum();
        let probes = (self.memo_after.hits + self.memo_after.misses)
            - (self.memo_before.hits + self.memo_before.misses);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        counts.extend([
            ("evaluations", evals.to_string()),
            ("events", events.to_string()),
            ("replay_memo_probes", probes.to_string()),
        ]);
        eprintln!(
            "csqp-perfbench: exact counts: {evals} evaluations, {events} events over {} \
             requests; memo {} warm misses, {probes} probes in the replay",
            nq, self.memo_before.misses
        );
        Ok(vec![
            ("workload.build_us", per_query_us("workload.build"), "us"),
            ("optimizer.plan_us", per_query_us("optimizer.plan"), "us"),
            ("optimizer.evals_per_query", evals as f64 / nq, "count"),
            (
                "cost.eval_us",
                ratio(total_us("optimizer.plan"), evals as f64),
                "us",
            ),
            (
                "memo.hit_ratio",
                ratio(
                    (self.memo_after.hits - self.memo_before.hits) as f64,
                    probes as f64,
                ),
                "ratio",
            ),
            ("memo.probe_us", per_query_us("memo.probe"), "us"),
            ("memo.warm_misses", self.memo_before.misses as f64, "count"),
            ("verify.lint_us", per_query_us("verify.lint"), "us"),
            ("engine.sim_us", per_query_us("engine.sim"), "us"),
            ("engine.events_per_query", events as f64 / nq, "count"),
            (
                "engine.ns_per_event",
                ratio(total_us("engine.sim") * 1e3, events as f64),
                "ns",
            ),
            ("proto.codec_us", per_query_us("proto.codec"), "us"),
            ("serve.service_us", service_us, "us"),
            (
                "serve.overhead_us",
                self.mean_latency_ns / 1e3 - service_us,
                "us",
            ),
            ("trace.coverage", coverage, "ratio"),
            (
                "trace.overhead",
                ratio(traced_ns as f64, untraced_ns as f64),
                "ratio",
            ),
        ])
    }
}
