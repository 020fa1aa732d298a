//! End-to-end loopback: a real server on an OS-assigned port, the real
//! `csqp-load` client against it, over actual TCP sockets.
//!
//! Checks the PR's acceptance criteria in miniature: queries complete,
//! nothing panics, reports carry percentiles, identical seeds produce
//! byte-identical results (equal digests), service results match the
//! figure pipeline exactly, and the Table-1 conformance lint ran on
//! every served plan.

// Tests panic on broken setup by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::net::TcpStream;
use std::time::Duration;

use csqp_core::Policy;
use csqp_cost::Objective;
use csqp_serve::load::nth_request;
use csqp_serve::proto::{ErrorCode, Frame, Hello, OptimizerMode};
use csqp_serve::server::roundtrip;
use csqp_serve::{run_load, LoadConfig, Server, ServerConfig};

fn start_server() -> csqp_serve::ServerHandle {
    Server::bind(ServerConfig::default())
        .expect("bind on 127.0.0.1:0")
        .spawn()
        .expect("spawn server threads")
}

fn load_config(addr: &str, seed: u64) -> LoadConfig {
    LoadConfig {
        addr: addr.to_string(),
        clients: 4,
        queries_per_client: Some(3),
        seed,
        ..LoadConfig::default()
    }
}

#[test]
fn loopback_load_serves_queries_deterministically() {
    let server = start_server();
    let addr = server.addr().to_string();

    let first = run_load(&load_config(&addr, 7)).expect("first run");
    assert_eq!(first.queries, 12, "all queries answered: {first:?}");
    assert_eq!(first.errors, 0, "no errors: {first:?}");
    assert_eq!(
        first.rejected, 0,
        "queue depth 64 never saturates 4 clients"
    );
    assert_eq!(first.per_policy.iter().sum::<u64>(), 12);
    assert!(first.p50_ms > 0.0 && first.p99_ms >= first.p95_ms);
    assert!(first.throughput_qps > 0.0);

    // Identical seed ⇒ byte-identical per-query results ⇒ equal digests.
    let second = run_load(&load_config(&addr, 7)).expect("second run");
    assert_eq!(first.digest, second.digest, "same seed, same results");

    // A different seed issues a different mix.
    let third = run_load(&load_config(&addr, 8)).expect("third run");
    assert_ne!(first.digest, third.digest, "different seed, different mix");

    // Server-side accounting saw every query, and the Table-1
    // conformance lint ran on the serve path for each of them.
    let metrics = server.metrics();
    assert_eq!(metrics.queries_served(), 36);
    assert_eq!(metrics.errors(), 0);
    assert_eq!(
        metrics.lint_checks(),
        36,
        "every served plan was linted before execution"
    );
    let snap = server.service().stats_snapshot();
    assert_eq!(snap.per_policy.iter().sum::<u64>(), 36);
    assert!(snap.wire.bytes_sent > 0, "queries shipped bytes: {snap:?}");

    server.shutdown();
}

#[test]
fn service_results_match_the_figure_pipeline() {
    // What the wire returns must equal what runner::run_query computes
    // directly for the same scenario — the serving layer adds transport,
    // not measurement drift.
    let server = start_server();
    let service = server.service();
    let cfg = load_config(&server.addr().to_string(), 99);
    let req = nth_request(&cfg, 0, 0);

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let ack = roundtrip(
        &mut stream,
        &Frame::Hello(Hello {
            client: "pipeline-check".to_string(),
        }),
    )
    .expect("hello");
    assert!(matches!(ack, Frame::HelloAck(_)));
    let reply = roundtrip(&mut stream, &Frame::Query(req.clone())).expect("query");
    let record = match reply {
        Frame::Result(r) => r,
        other => panic!("expected RESULT, got {:?}", other.kind()),
    };

    let query = req.spec.build();
    let mut catalog = service.catalog_for(&req.spec);
    for (rel, &fraction) in query.relations.iter().zip(&req.cache) {
        catalog.set_cached_fraction(rel.id, fraction);
    }
    let direct = csqp_experiments::run_query(
        &query,
        &catalog,
        &csqp_catalog::SystemConfig::default(),
        &[],
        req.policy,
        req.objective,
        &service.config().opt,
        req.seed,
    )
    .expect("direct run");
    assert_eq!(record.pages_sent, direct.metrics.pages_sent);
    assert_eq!(record.control_msgs, direct.metrics.control_msgs);
    assert_eq!(record.bytes_sent, direct.metrics.bytes_sent);
    assert_eq!(record.result_tuples, direct.metrics.result_tuples);
    assert_eq!(record.response_secs, direct.metrics.response_secs());

    let _ = roundtrip(&mut stream, &Frame::Bye);
    server.shutdown();
}

#[test]
fn stats_and_error_frames_work_over_the_wire() {
    let server = start_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");

    // STATS on a fresh server: all zeros.
    let reply = roundtrip(&mut stream, &Frame::StatsRequest).expect("stats");
    match reply {
        Frame::Stats(s) => {
            assert_eq!(s.queries_served, 0);
            assert_eq!(s.rejected, 0);
        }
        other => panic!("expected STATS, got {:?}", other.kind()),
    }

    // A client sending a server-to-client frame gets a typed error.
    let reply = roundtrip(
        &mut stream,
        &Frame::Stats(server.service().stats_snapshot()),
    )
    .expect("bad direction");
    match reply {
        Frame::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest),
        other => panic!("expected ERROR, got {:?}", other.kind()),
    }

    // Raw garbage ends the session with a BadFrame error.
    use std::io::Write;
    stream
        .write_all(b"not a csqp frame")
        .expect("write garbage");
    match csqp_serve::proto::read_frame(&mut stream) {
        Ok(Some(Frame::Error(e))) => assert_eq!(e.code, ErrorCode::BadFrame),
        other => panic!("expected BadFrame error, got {other:?}"),
    }

    server.shutdown();
}

#[test]
fn saturated_server_rejects_with_retry_hint() {
    // One worker, a one-slot queue, and a burst of concurrent clients:
    // some QUERYs must be rejected with the retry-after hint, and with
    // retries enabled every query still completes.
    let server = Server::bind(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn()
    .expect("spawn");

    let report = run_load(&LoadConfig {
        addr: server.addr().to_string(),
        clients: 8,
        queries_per_client: Some(2),
        seed: 3,
        retry_rejected: true,
        ..LoadConfig::default()
    })
    .expect("load");
    assert_eq!(report.queries, 16, "retries drain the burst: {report:?}");
    assert_eq!(report.errors, 0);
    assert!(
        report.rejected > 0,
        "a 1-deep queue under an 8-client burst must reject: {report:?}"
    );
    assert_eq!(server.metrics().rejected(), report.rejected);
    server.shutdown();
}

#[test]
fn zero_deadline_gets_typed_error_and_releases_the_worker() {
    let server = start_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let cfg = load_config(&server.addr().to_string(), 42);

    // An already-expired deadline comes back as a typed, retryable
    // deadline-exceeded error — promptly, not after a hang.
    let mut doomed = nth_request(&cfg, 0, 0);
    doomed.deadline_ms = Some(0);
    let started = std::time::Instant::now();
    let reply = roundtrip(&mut stream, &Frame::Query(doomed)).expect("query");
    let waited = started.elapsed();
    match reply {
        Frame::Error(e) => {
            assert_eq!(e.code, ErrorCode::DeadlineExceeded);
            assert!(
                e.retry_after_ms.is_some(),
                "deadline errors are retryable: {e:?}"
            );
        }
        other => panic!("expected deadline error, got {:?}", other.kind()),
    }
    assert!(
        waited < Duration::from_secs(2),
        "worker released within ~one read timeout, not {waited:?}"
    );

    // The same connection and worker pool still serve clean traffic.
    let reply = roundtrip(&mut stream, &Frame::Query(nth_request(&cfg, 0, 1))).expect("follow-up");
    assert!(matches!(reply, Frame::Result(_)), "worker was released");

    let metrics = server.metrics();
    assert_eq!(metrics.timed_out(), 1);
    assert_eq!(metrics.queries_served(), 1);
    assert!(metrics.conservation_holds(), "2 in, 1 served + 1 timed out");
    let _ = roundtrip(&mut stream, &Frame::Bye);
    server.shutdown();
}

#[test]
fn client_disconnect_mid_query_never_leaks_accounting() {
    let server = start_server();
    let cfg = load_config(&server.addr().to_string(), 77);

    // Send a valid query and slam the connection shut without reading
    // the reply. The conn thread must notice, the worker must finish its
    // job, and every counter must land in a terminal bucket.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    csqp_serve::proto::write_frame(&mut stream, &Frame::Query(nth_request(&cfg, 0, 0)))
        .expect("send query");
    drop(stream);

    // Settle within a few read-timeout ticks (the default is 200 ms).
    let metrics = server.metrics();
    let give_up = std::time::Instant::now() + Duration::from_secs(3);
    while !(metrics.conservation_holds() && metrics.submitted() == 1) {
        assert!(
            std::time::Instant::now() < give_up,
            "accounting never settled: submitted {} served {} aborted {}",
            metrics.submitted(),
            metrics.queries_served(),
            metrics.aborted()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(server.service().inflight(), 0, "no leaked worker slot");

    // The pool still serves a fresh connection afterwards.
    let mut probe = TcpStream::connect(server.addr()).expect("reconnect");
    let reply = roundtrip(&mut probe, &Frame::Query(nth_request(&cfg, 1, 0))).expect("probe query");
    assert!(matches!(reply, Frame::Result(_)));
    server.shutdown();
}

#[test]
fn unusable_cache_degrades_on_the_wire_and_passes_the_lint() {
    // A declared client cache with more entries than the query has
    // relations is unusable; the server degrades to query shipping,
    // marks the RESULT, and the degraded plan still passes the Table-1
    // conformance lint (a lint failure would surface as PolicyViolation).
    let server = start_server();
    let cfg = load_config(&server.addr().to_string(), 5);
    let mut req = nth_request(&cfg, 0, 0);
    req.policy = Policy::DataShipping;
    req.cache = vec![0.5; 12]; // far more entries than any mix query has
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let reply = roundtrip(&mut stream, &Frame::Query(req)).expect("query");
    match reply {
        Frame::Result(r) => {
            assert_eq!(r.degraded_from, Some(Policy::DataShipping));
            assert_eq!(
                r.degrade_reason,
                Some(csqp_serve::proto::DegradeReason::CacheUnusable)
            );
        }
        other => panic!("expected degraded RESULT, got {:?}", other.kind()),
    }
    let metrics = server.metrics();
    assert_eq!(metrics.degraded(), 1);
    assert_eq!(
        metrics.lint_checks(),
        1,
        "the degraded plan went through the conformance lint"
    );
    assert!(metrics.conservation_holds());
    let _ = roundtrip(&mut stream, &Frame::Bye);
    server.shutdown();
}

#[test]
fn saturation_degrades_to_query_shipping_under_burst() {
    // High-water mark of 1 with a single worker: any admission overlap
    // downgrades HY/DS to QS instead of queueing expensive work. Zero
    // errors proves every degraded plan passed the Table-1 lint (a
    // violation would come back as a PolicyViolation error).
    let server = Server::bind(ServerConfig {
        workers: 1,
        queue_depth: 2,
        high_water: Some(1),
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn()
    .expect("spawn");

    let report = run_load(&LoadConfig {
        addr: server.addr().to_string(),
        clients: 8,
        queries_per_client: Some(4),
        seed: 3,
        retry_rejected: true,
        ..LoadConfig::default()
    })
    .expect("load");
    assert_eq!(report.queries, 32, "retries drain the burst: {report:?}");
    assert_eq!(report.errors, 0, "every degraded plan passed the lint");
    assert!(
        report.degraded > 0,
        "an 8-client burst over high-water 1 must overlap: {report:?}"
    );
    assert_eq!(server.metrics().degraded(), report.degraded);
    assert!(server.metrics().conservation_holds());
    server.shutdown();
}

#[test]
fn two_step_mode_works_over_the_wire() {
    let server = start_server();
    let cfg = LoadConfig {
        addr: server.addr().to_string(),
        clients: 2,
        queries_per_client: Some(2),
        seed: 11,
        optimizer: OptimizerMode::TwoStep,
        policy: Some(Policy::HybridShipping),
        objective: Objective::ResponseTime,
        ..LoadConfig::default()
    };
    let first = run_load(&cfg).expect("two-step load");
    assert_eq!(first.queries, 4);
    assert_eq!(first.errors, 0);
    // The compiled-plan cache must not break determinism: the second run
    // (all cache hits) reproduces the first (all cache misses).
    let second = run_load(&cfg).expect("two-step load, cached");
    assert_eq!(first.digest, second.digest);
    server.shutdown();
}

#[test]
fn shutdown_is_graceful() {
    let server = start_server();
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    server.shutdown(); // joins accept + workers without hanging
                       // The lingering connection is told the server is going away (or the
                       // socket closes) — either way the client is not left hanging.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    match csqp_serve::proto::read_frame(&mut stream) {
        Ok(Some(Frame::Error(e))) => assert_eq!(e.code, ErrorCode::ShuttingDown),
        Ok(None) | Err(_) => {} // closed, also acceptable
        Ok(Some(other)) => panic!("unexpected frame {:?}", other.kind()),
    }
}
