//! The `csqp-load` client: N concurrent connections driving a seeded
//! workload mix against a server, with a throughput/latency report.
//!
//! Two arrival disciplines:
//!
//! - **closed loop** (default): each connection issues its next query the
//!   moment the previous reply lands;
//! - **open loop** (`rate` set): each connection issues on a fixed
//!   arrival schedule, sleeping until the next slot (a paced
//!   approximation — a single connection still awaits its reply).
//!
//! Everything a client sends is derived from `(seed, client, query
//! index)`, so two runs with the same seed issue byte-identical requests
//! and — because the server is deterministic too — receive byte-identical
//! results. [`LoadReport::digest`] folds every RESULT payload into an
//! order-independent checksum for exactly that comparison.
//!
//! Each connection keeps a window of [`LoadConfig::pipeline`] queries
//! outstanding (1 is stop-and-wait) and re-associates replies by request
//! id with a [`PipelineWindow`] — replies may complete in any order; the
//! digest is order-independent, so runs of the same seed produce the same
//! digest at any window depth, with or without retried rejects.

use std::collections::HashMap;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use csqp_core::Policy;
use csqp_cost::Objective;
use csqp_simkernel::rng::SimRng;
use csqp_workload::{WorkloadSpec, HISEL_SEL, MODERATE_SEL};

use crate::metrics::percentile_us;
use crate::proto::{
    write_frame, ErrorCode, Frame, Hello, OptimizerMode, QueryRequest, ResultRecord, WireError,
};
use crate::server::{fnv1a, read_next, roundtrip};

/// What the load generator should do.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Concurrent connections.
    pub clients: usize,
    /// Stop issuing new queries after this long (ignored when
    /// `queries_per_client` is set).
    pub duration: Duration,
    /// Fixed per-connection query count (exact, deterministic runs).
    pub queries_per_client: Option<u64>,
    /// Master seed for the workload mix and all per-query seeds.
    pub seed: u64,
    /// Fixed policy, or `None` for a seeded DS/QS/HY mix.
    pub policy: Option<Policy>,
    /// Optimization objective for every request.
    pub objective: Objective,
    /// Per-request or precompiled planning.
    pub optimizer: OptimizerMode,
    /// Open-loop arrival rate per connection (queries/sec); `None` is
    /// closed-loop.
    pub rate: Option<f64>,
    /// On a saturation reject, honor the retry-after hint — with capped
    /// exponential backoff and seeded jitter — and resend the same query
    /// under the same id, at any window depth (otherwise count it and
    /// move on).
    pub retry_rejected: bool,
    /// Retry attempts per query before giving up on a saturated server.
    pub max_retries: u32,
    /// Upper bound on a single backoff sleep, in milliseconds; the
    /// exponential doubling saturates here.
    pub backoff_cap_ms: u64,
    /// Per-query deadline forwarded to the server, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Queries each connection keeps outstanding before reading replies
    /// (clamped to the window the server advertises in HELLO-ACK). 1 is
    /// stop-and-wait. A retried query keeps its slot in the window.
    pub pipeline: usize,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            addr: "127.0.0.1:7878".to_string(),
            clients: 4,
            duration: Duration::from_secs(2),
            queries_per_client: None,
            seed: 0xC59D,
            policy: None,
            objective: Objective::ResponseTime,
            optimizer: OptimizerMode::TwoPhase,
            rate: None,
            retry_rejected: false,
            max_retries: 8,
            backoff_cap_ms: 1_000,
            deadline_ms: None,
            pipeline: 1,
        }
    }
}

/// What a load run produced.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Queries answered with a RESULT frame.
    pub queries: u64,
    /// Saturation rejects observed (including retried ones).
    pub rejected: u64,
    /// Non-reject ERROR frames observed.
    pub errors: u64,
    /// Queries resent after a saturation reject (each resend counts).
    pub retries: u64,
    /// Deadline-exceeded ERROR frames observed.
    pub timed_out: u64,
    /// RESULT frames served under a degraded (QS-fallback) policy.
    pub degraded: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Client-observed median latency, ms.
    pub p50_ms: f64,
    /// Client-observed 95th-percentile latency, ms.
    pub p95_ms: f64,
    /// Client-observed 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// RESULT frames per second of wall clock.
    pub throughput_qps: f64,
    /// Order-independent checksum over `(client, index, result payload)`
    /// triples: equal seeds ⇒ equal digests, independent of timing.
    pub digest: u64,
    /// RESULTs per policy, in `[DS, QS, HY]` order.
    pub per_policy: [u64; 3],
}

impl LoadReport {
    /// Render the human report printed by `csqp-load`.
    pub fn render(&self) -> String {
        format!(
            "queries   {}\nrejected  {}\nerrors    {}\nretries   {}\ntimed-out {}\ndegraded  {}\nelapsed   {:.2}s\nthroughput {:.1} q/s\nlatency   p50 {:.1} ms   p95 {:.1} ms   p99 {:.1} ms\nper-policy DS {}  QS {}  HY {}\ndigest    {:016x}",
            self.queries,
            self.rejected,
            self.errors,
            self.retries,
            self.timed_out,
            self.degraded,
            self.elapsed.as_secs_f64(),
            self.throughput_qps,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.per_policy[0],
            self.per_policy[1],
            self.per_policy[2],
            self.digest
        )
    }
}

/// Deterministic per-query seed: mixes the master seed, client index, and
/// query index through FNV so streams never collide. Masked into the
/// protocol's JSON-exact integer range so the seed survives the wire
/// byte-for-byte.
fn query_seed(master: u64, client: u64, index: u64) -> u64 {
    let mut bytes = [0u8; 24];
    bytes[0..8].copy_from_slice(&master.to_be_bytes());
    bytes[8..16].copy_from_slice(&client.to_be_bytes());
    bytes[16..24].copy_from_slice(&index.to_be_bytes());
    fnv1a(&bytes) & (crate::proto::MAX_SAFE_INT - 1)
}

/// The seeded workload mix: query shape, cache state, and policy for one
/// request. Pure in `(cfg.seed, client, index)`.
pub fn nth_request(cfg: &LoadConfig, client: u64, index: u64) -> QueryRequest {
    let seed = query_seed(cfg.seed, client, index);
    let mut rng = SimRng::seed_from_u64(seed);
    let n = rng.range(2, 6) as u32;
    // The paper's benchmark shapes: size-preserving moderate selectivity
    // or the HiSel variant (§5.2) — anything hotter overflows the
    // simulated disks with join spill.
    let spec = match rng.below(3) {
        0 => WorkloadSpec::Chain {
            n,
            selectivity: *rng.pick(&[MODERATE_SEL, HISEL_SEL]),
        },
        1 => WorkloadSpec::Star {
            n,
            selectivity: MODERATE_SEL,
        },
        _ => WorkloadSpec::Spj {
            n,
            join_sel: MODERATE_SEL,
            selection: 0.2,
            every_k: 2,
        },
    };
    // Declared client cache: each relation 0%, 25% or 50% resident.
    let cache = (0..spec.num_relations())
        .map(|_| *rng.pick(&[0.0, 0.25, 0.5]))
        .collect();
    let policy = cfg.policy.unwrap_or_else(|| {
        *rng.pick(&[
            Policy::DataShipping,
            Policy::QueryShipping,
            Policy::HybridShipping,
        ])
    });
    QueryRequest {
        id: index + 1,
        spec,
        cache,
        policy,
        objective: cfg.objective,
        optimizer: cfg.optimizer,
        seed,
        loads: vec![],
        deadline_ms: cfg.deadline_ms,
        keys: None,
    }
}

/// Backoff before retry `attempt` (0-based): the server's hint doubled
/// per attempt, capped, plus seeded jitter of up to one hint interval so
/// synchronized clients do not re-stampede the queue in lockstep.
fn retry_backoff(hint_ms: u64, attempt: u32, cap_ms: u64, rng: &mut SimRng) -> Duration {
    let base = hint_ms.max(1);
    let doubled = base.saturating_mul(1u64 << attempt.min(20));
    let jitter = rng.below((base + 1) as usize) as u64;
    Duration::from_millis(doubled.min(cap_ms.max(base)) + jitter)
}

/// One query a [`PipelineWindow`] is waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssuedQuery {
    /// The load generator's query index (digest key).
    pub index: u64,
    /// The policy the request asked for.
    pub policy: Policy,
}

/// Client-side re-association for pipelined sessions: queries issued but
/// not yet answered, keyed by request id. Replies may complete in *any*
/// order — the window matches each back to the query it answers, which
/// is the property the pipelining proptest shuffles against.
#[derive(Debug)]
pub struct PipelineWindow {
    depth: usize,
    outstanding: HashMap<u64, (IssuedQuery, Instant)>,
}

impl PipelineWindow {
    /// An empty window admitting up to `depth` outstanding queries.
    pub fn new(depth: usize) -> PipelineWindow {
        PipelineWindow {
            depth: depth.max(1),
            outstanding: HashMap::new(),
        }
    }

    /// True when another query may be issued without closing the window.
    pub fn has_room(&self) -> bool {
        self.outstanding.len() < self.depth
    }

    /// Record an issued query. Returns `false` (and records nothing) on
    /// a duplicate id — ids must be unique within the window.
    pub fn issued(&mut self, id: u64, query: IssuedQuery, at: Instant) -> bool {
        if self.outstanding.contains_key(&id) {
            return false;
        }
        self.outstanding.insert(id, (query, at));
        true
    }

    /// Match a reply back to its query by id. `None` means the server
    /// answered an id this window never issued (a protocol violation).
    pub fn complete(&mut self, id: u64) -> Option<(IssuedQuery, Instant)> {
        self.outstanding.remove(&id)
    }

    /// Queries currently outstanding.
    pub fn len(&self) -> usize {
        self.outstanding.len()
    }

    /// True when nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.outstanding.is_empty()
    }
}

#[derive(Default)]
struct ClientTally {
    queries: u64,
    rejected: u64,
    errors: u64,
    retries: u64,
    timed_out: u64,
    degraded: u64,
    latencies_us: Vec<u64>,
    digest: u64,
    per_policy: [u64; 3],
}

fn policy_slot(p: Policy) -> usize {
    match p {
        Policy::DataShipping => 0,
        Policy::QueryShipping => 1,
        Policy::HybridShipping => 2,
    }
}

/// Fold one result into the order-independent digest: hash the triple,
/// combine with a commutative wrapping add.
fn fold_digest(digest: u64, client: u64, index: u64, record: &ResultRecord) -> u64 {
    let payload = Frame::Result(record.clone()).encode();
    let mut keyed = Vec::with_capacity(16 + payload.len());
    keyed.extend_from_slice(&client.to_be_bytes());
    keyed.extend_from_slice(&index.to_be_bytes());
    keyed.extend_from_slice(&payload);
    digest.wrapping_add(fnv1a(&keyed))
}

/// Salt of a query's retry-jitter stream ("RETRY"), mixed into its seed.
const RETRY_SALT: u64 = 0x52_45_54_52_59;

/// One connection's session: keep up to the window of queries
/// outstanding (a window of 1 is stop-and-wait), re-associate each reply
/// by id through a [`PipelineWindow`], and drain the window before
/// saying BYE.
fn run_client(cfg: &LoadConfig, client: u64, deadline: Instant) -> Result<ClientTally, WireError> {
    let mut stream = TcpStream::connect(&cfg.addr)?;
    stream.set_nodelay(true)?;
    let hello = roundtrip(
        &mut stream,
        &Frame::Hello(Hello {
            client: format!("csqp-load-{client}"),
        }),
    )?;
    let advertised = match hello {
        Frame::HelloAck(ack) => ack.pipeline_depth.max(1) as usize,
        _ => {
            return Err(WireError::Io(std::io::Error::other(
                "expected HELLO-ACK to open the session",
            )))
        }
    };
    let mut tally = ClientTally::default();
    let mut window = PipelineWindow::new(cfg.pipeline.clamp(1, advertised));
    // Queries a saturation reject bounced: attempts so far and the
    // seeded jitter stream, by request id.
    let mut retrying: HashMap<u64, (u32, SimRng)> = HashMap::new();
    let start = Instant::now();
    let interval = cfg.rate.map(|r| Duration::from_secs_f64(1.0 / r.max(1e-9)));
    let mut index = 0u64;
    let done_issuing = |index: u64| match cfg.queries_per_client {
        Some(count) => index >= count,
        None => Instant::now() >= deadline,
    };
    loop {
        while window.has_room() && !done_issuing(index) {
            // Open loop: wait for this query's arrival slot.
            if let Some(step) = interval {
                let slot = start + step.mul_f64(index as f64);
                let now = Instant::now();
                if slot > now {
                    std::thread::sleep(slot - now);
                }
            }
            let req = nth_request(cfg, client, index);
            let issued = IssuedQuery {
                index,
                policy: req.policy,
            };
            write_frame(&mut stream, &Frame::Query(req.clone()))?;
            if !window.issued(req.id, issued, Instant::now()) {
                return Err(WireError::Io(std::io::Error::other(format!(
                    "duplicate request id {} in the pipeline window",
                    req.id
                ))));
            }
            index += 1;
        }
        if window.is_empty() {
            if done_issuing(index) {
                break;
            }
            continue;
        }
        let reply = read_next(&mut stream)?;
        let id = match &reply {
            Frame::Result(record) => record.id,
            Frame::Error(e) => e.id,
            other => {
                return Err(WireError::Io(std::io::Error::other(format!(
                    "unexpected reply frame {:?}",
                    other.kind()
                ))));
            }
        };
        let Some((query, at)) = window.complete(id) else {
            return Err(WireError::Io(std::io::Error::other(format!(
                "reply for id {id} which is not outstanding"
            ))));
        };
        // Honor retry-after on saturation if asked to: back off by the
        // server's hint, doubling per attempt up to the configured cap,
        // with seeded jitter so the retry schedule stays deterministic
        // per (seed, client, index) yet desynchronized across clients.
        // The resend reuses the id, the window slot and the first-issue
        // stamp, so the digest cannot tell a retried query apart.
        if let Frame::Error(e) = &reply {
            if e.code == ErrorCode::Saturated && cfg.retry_rejected {
                let req = nth_request(cfg, client, query.index);
                let (attempt, rng) = retrying
                    .entry(id)
                    .or_insert_with(|| (0, SimRng::seed_from_u64(req.seed ^ RETRY_SALT)));
                if *attempt < cfg.max_retries {
                    tally.rejected += 1;
                    let hint = e.retry_after_ms.unwrap_or(10);
                    std::thread::sleep(retry_backoff(hint, *attempt, cfg.backoff_cap_ms, rng));
                    *attempt += 1;
                    tally.retries += 1;
                    write_frame(&mut stream, &Frame::Query(req))?;
                    window.issued(id, query, at);
                    continue;
                }
            }
        }
        retrying.remove(&id);
        match reply {
            Frame::Result(record) => {
                let lat = at.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                tally.queries += 1;
                tally.per_policy[policy_slot(query.policy)] += 1;
                tally.latencies_us.push(lat);
                if record.degraded_from.is_some() {
                    tally.degraded += 1;
                }
                tally.digest = fold_digest(tally.digest, client, query.index, &record);
            }
            Frame::Error(e) if e.code == ErrorCode::Saturated => tally.rejected += 1,
            Frame::Error(e) if e.code == ErrorCode::DeadlineExceeded => tally.timed_out += 1,
            Frame::Error(_) => tally.errors += 1,
            _ => unreachable!("non-result/error frames rejected above"),
        }
    }
    let _ = roundtrip(&mut stream, &Frame::Bye);
    Ok(tally)
}

/// Run the load: spawn `clients` connection threads, drive the seeded
/// mix, and aggregate the report. Connection-level failures surface as
/// `Err`; protocol-level errors are counted in the report.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport, WireError> {
    let started = Instant::now();
    let deadline = started + cfg.duration;
    let mut handles = Vec::with_capacity(cfg.clients);
    for client in 0..cfg.clients.max(1) as u64 {
        let cfg = cfg.clone();
        handles.push(
            std::thread::Builder::new()
                .name(format!("csqp-load-{client}"))
                .spawn(move || run_client(&cfg, client, deadline))
                .map_err(WireError::Io)?,
        );
    }
    let mut queries = 0u64;
    let mut rejected = 0u64;
    let mut errors = 0u64;
    let mut retries = 0u64;
    let mut timed_out = 0u64;
    let mut degraded = 0u64;
    let mut digest = 0u64;
    let mut per_policy = [0u64; 3];
    let mut latencies = Vec::new();
    for h in handles {
        let tally = h
            .join()
            .map_err(|_| WireError::Io(std::io::Error::other("load client panicked")))??;
        queries += tally.queries;
        rejected += tally.rejected;
        errors += tally.errors;
        retries += tally.retries;
        timed_out += tally.timed_out;
        degraded += tally.degraded;
        digest = digest.wrapping_add(tally.digest);
        for (total, n) in per_policy.iter_mut().zip(tally.per_policy) {
            *total += n;
        }
        latencies.extend(tally.latencies_us);
    }
    let elapsed = started.elapsed();
    latencies.sort_unstable();
    Ok(LoadReport {
        queries,
        rejected,
        errors,
        retries,
        timed_out,
        degraded,
        elapsed,
        p50_ms: percentile_us(&latencies, 0.50) / 1000.0,
        p95_ms: percentile_us(&latencies, 0.95) / 1000.0,
        p99_ms: percentile_us(&latencies, 0.99) / 1000.0,
        throughput_qps: if elapsed.as_secs_f64() > 0.0 {
            queries as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        },
        digest,
        per_policy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_mix_is_deterministic_and_valid() {
        let cfg = LoadConfig::default();
        for client in 0..4 {
            for index in 0..16 {
                let a = nth_request(&cfg, client, index);
                let b = nth_request(&cfg, client, index);
                assert_eq!(a, b, "pure in (seed, client, index)");
                a.spec.validate().expect("generated specs are valid");
                assert_eq!(a.cache.len(), a.spec.num_relations() as usize);
            }
        }
    }

    #[test]
    fn request_mix_varies_across_clients_and_indices() {
        let cfg = LoadConfig::default();
        let a = nth_request(&cfg, 0, 0);
        let b = nth_request(&cfg, 1, 0);
        let c = nth_request(&cfg, 0, 1);
        assert!(a.seed != b.seed && a.seed != c.seed && b.seed != c.seed);
    }

    #[test]
    fn backoff_doubles_caps_and_stays_seeded() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for attempt in 0..12 {
            let x = retry_backoff(50, attempt, 1_000, &mut a);
            let y = retry_backoff(50, attempt, 1_000, &mut b);
            assert_eq!(x, y, "same seed, same schedule");
            // Doubled hint capped at 1 s, plus at most one hint of jitter.
            let doubled = 50u64.saturating_mul(1 << attempt.min(20)).min(1_000);
            assert!(x >= Duration::from_millis(doubled));
            assert!(x <= Duration::from_millis(doubled + 50));
        }
        // A zero hint still sleeps a little and never divides by zero.
        let z = retry_backoff(0, 0, 1_000, &mut a);
        assert!(z >= Duration::from_millis(1) && z <= Duration::from_millis(2));
    }

    #[test]
    fn pipeline_window_reassociates_and_bounds() {
        let mut w = PipelineWindow::new(2);
        assert!(w.is_empty() && w.has_room());
        let now = Instant::now();
        let q = |index| IssuedQuery {
            index,
            policy: Policy::QueryShipping,
        };
        assert!(w.issued(1, q(0), now));
        assert!(w.issued(2, q(1), now));
        assert!(!w.has_room(), "window of 2 is full");
        assert!(!w.issued(1, q(9), now), "duplicate ids are refused");
        // Out-of-order completion re-associates by id.
        assert_eq!(w.complete(2).map(|(p, _)| p.index), Some(1));
        assert!(w.has_room());
        assert_eq!(w.complete(2), None, "already answered");
        assert_eq!(w.complete(7), None, "never issued");
        assert_eq!(w.complete(1).map(|(p, _)| p.index), Some(0));
        assert!(w.is_empty());
        assert!(PipelineWindow::new(0).has_room(), "depth clamps to 1");
    }

    #[test]
    fn fixed_policy_overrides_the_mix() {
        let cfg = LoadConfig {
            policy: Some(Policy::QueryShipping),
            ..LoadConfig::default()
        };
        for index in 0..8 {
            assert_eq!(nth_request(&cfg, 0, index).policy, Policy::QueryShipping);
        }
    }
}
