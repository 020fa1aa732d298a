//! Chaos soak integration tests: a real server on loopback TCP under
//! seeded fault injection.
//!
//! The PR's acceptance bar: across ≥8 fixed seeds, zero panics, zero
//! leaked worker slots or queue permits (clean probes succeed), exact
//! accounting conservation, and the same seed reproducing the same
//! fault schedule and reply digest.
//!
//! Every soak runs once per reactor backend the host supports
//! (`csqp_net::poll::test_backends`, `CSQP_REACTOR` override): the
//! invariants — and the seeded digests — must hold identically under
//! `poll` and `epoll`.

// Tests panic on broken setup by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::time::Duration;

use csqp_net::chaos::FaultPlan;
use csqp_net::poll::{test_backends, Backend};
use csqp_serve::chaos::{run_chaos, ChaosConfig};
use csqp_serve::{Server, ServerConfig, ServerHandle};
use proptest::prelude::*;

/// The fixed soak seeds: small Fibonacci numbers, stable forever so CI
/// failures reproduce locally by copying the seed.
const SOAK_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

fn start_server(reactor: Backend) -> ServerHandle {
    Server::bind(ServerConfig {
        workers: 2,
        queue_depth: 8,
        reactor,
        ..ServerConfig::default()
    })
    .expect("bind on 127.0.0.1:0")
    .spawn()
    .expect("spawn server threads")
}

fn soak_config(addr: &str, seed: u64) -> ChaosConfig {
    ChaosConfig {
        addr: addr.to_string(),
        seed,
        schedules: 2,
        queries_per_schedule: 10,
        intensity: 0.5,
        settle_timeout: Duration::from_secs(15),
        ..ChaosConfig::default()
    }
}

#[test]
fn soak_over_fixed_seeds_never_leaks_or_miscounts() {
    for reactor in test_backends() {
        for seed in SOAK_SEEDS {
            let server = start_server(reactor);
            let report = run_chaos(&soak_config(&server.addr().to_string(), seed))
                .unwrap_or_else(|e| panic!("seed {seed} on {reactor}: soak failed: {e}"));
            assert!(
                report.conservation,
                "seed {seed} on {reactor}: conservation violated\n{}",
                report.render()
            );
            assert!(
                report.probes_ok,
                "seed {seed} on {reactor}: a worker or queue permit leaked\n{}",
                report.render()
            );
            assert_eq!(
                report.client_errors,
                0,
                "seed {seed} on {reactor}: unexpected client-side I/O failure\n{}",
                report.render()
            );
            assert_eq!(report.queries_sent, 20);
            assert_eq!(
                report.replies + report.dropped,
                report.queries_sent,
                "seed {seed} on {reactor}: every exchange ends replied or dropped\n{}",
                report.render()
            );
            server.shutdown();
        }
    }
}

#[test]
fn same_seed_reproduces_schedule_and_digest_across_servers() {
    // Two *fresh* servers — not two runs against one — so the digest
    // cannot lean on warmed caches or leftover state. The second server
    // also runs on every other supported backend: the digest is a
    // function of the seed, not of the readiness mechanism.
    for seed in SOAK_SEEDS {
        let first_server = start_server(Backend::default_for_host());
        let a = run_chaos(&soak_config(&first_server.addr().to_string(), seed))
            .unwrap_or_else(|e| panic!("seed {seed}: first soak failed: {e}"));
        first_server.shutdown();
        assert!(a.healthy(), "seed {seed}: first soak\n{}", a.render());
        for reactor in test_backends() {
            let second_server = start_server(reactor);
            let b = run_chaos(&soak_config(&second_server.addr().to_string(), seed))
                .unwrap_or_else(|e| panic!("seed {seed} on {reactor}: second soak failed: {e}"));
            second_server.shutdown();
            assert!(
                b.healthy(),
                "seed {seed} on {reactor}: second soak\n{}",
                b.render()
            );
            assert_eq!(
                a.digest, b.digest,
                "seed {seed}: same seed, same replies on {reactor}"
            );
            assert_eq!(
                a.faults, b.faults,
                "seed {seed}: same seed, same fault schedule on {reactor}"
            );
            assert_eq!(a.replies, b.replies, "seed {seed} on {reactor}");
            assert_eq!(a.dropped, b.dropped, "seed {seed} on {reactor}");
        }
    }
}

/// One catalog-fault soak input.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CatalogSoak {
    seed: u64,
    intensity: f64,
    /// The staleness bound (`ServerConfig::catalog_lag`).
    lag: u64,
    queries_per_schedule: u64,
}

/// The pinned seeds under a tight staleness bound: withheld refreshes
/// push replicas past it at intensity 0.5.
fn tight_bound_soak(seed: u64) -> CatalogSoak {
    CatalogSoak {
        seed,
        intensity: 0.5,
        lag: 2,
        queries_per_schedule: 10,
    }
}

/// Harsher faults under the server's default staleness bound.
fn default_bound_soaks() -> impl Iterator<Item = CatalogSoak> {
    [7, 13, 21, 34].into_iter().map(|seed| CatalogSoak {
        seed,
        intensity: 0.6,
        lag: ServerConfig::default().catalog_lag,
        queries_per_schedule: 12,
    })
}

/// A server with catalog propagation faults armed from the seeded plan.
/// One event thread = one shard = one catalog replica: shard routing is
/// by file descriptor, which the seed does not control, so a single
/// shard is what makes the drift trajectory a pure function of the
/// request stream.
fn start_catalog_fault_server(reactor: Backend, soak: CatalogSoak) -> ServerHandle {
    Server::bind(ServerConfig {
        workers: 2,
        queue_depth: 8,
        event_threads: 1,
        reactor,
        catalog_lag: soak.lag,
        catalog_faults: Some(FaultPlan::new(soak.seed, soak.intensity)),
        ..ServerConfig::default()
    })
    .expect("bind on 127.0.0.1:0")
    .spawn()
    .expect("spawn server threads")
}

/// Run one catalog-fault soak against a fresh server and return the
/// report with the server's recorded drift trace.
fn catalog_soak(
    reactor: Backend,
    soak: CatalogSoak,
) -> (csqp_serve::ChaosReport, Vec<csqp_catalog::DriftEvent>) {
    let server = start_catalog_fault_server(reactor, soak);
    let report = run_chaos(&ChaosConfig {
        catalog_faults: true,
        intensity: soak.intensity,
        queries_per_schedule: soak.queries_per_schedule,
        ..soak_config(&server.addr().to_string(), soak.seed)
    })
    .unwrap_or_else(|e| panic!("{soak:?} on {reactor}: catalog soak failed: {e}"));
    let trace = server.service().drift_trace();
    server.shutdown();
    (report, trace)
}

#[test]
fn catalog_fault_soak_conserves_and_the_drift_trace_audits_clean() {
    for reactor in test_backends() {
        let mut drift_bit = 0u64;
        for soak in SOAK_SEEDS
            .into_iter()
            .map(tight_bound_soak)
            .chain(default_bound_soaks())
        {
            let (report, trace) = catalog_soak(reactor, soak);
            assert!(
                report.conservation,
                "{soak:?} on {reactor}: conservation under catalog faults\n{}",
                report.render()
            );
            assert!(
                report.probes_ok,
                "{soak:?} on {reactor}: a worker leaked under catalog faults\n{}",
                report.render()
            );
            assert_eq!(report.client_errors, 0, "{soak:?} on {reactor}");
            assert_eq!(
                report.replies + report.dropped,
                report.queries_sent,
                "{soak:?} on {reactor}: every exchange ends replied or dropped\n{}",
                report.render()
            );
            // The recorded drift trace must replay clean through the
            // verifier: no fresh serve past the bound, no applied epoch
            // regression, faithful lag accounting.
            assert!(
                !trace.is_empty(),
                "{soak:?} on {reactor}: faults armed, trace empty"
            );
            let audit = csqp_verify::catalog::check_drift(&trace, soak.lag);
            assert!(
                audit.is_clean(),
                "{soak:?} on {reactor}: drift audit failed: {audit}"
            );
            drift_bit += report.stats.catalog_stale_degraded + report.stats.catalog_stale_rejected;
        }
        assert!(
            drift_bit > 0,
            "{reactor}: across all soak seeds, some replica must trail past the bound"
        );
    }
}

#[test]
fn catalog_fault_soak_same_seed_same_drift_across_fresh_servers() {
    // Epoch lag is server state that carries across queries, so the
    // repeatability claim is across two *fresh* servers: same seed,
    // same fresh state, byte-identical replies and drift trajectory.
    // Running the pair under every supported backend additionally pins
    // the drift trajectory as backend-independent.
    let pinned = tight_bound_soak(21);
    for soak in std::iter::once(pinned).chain(default_bound_soaks()) {
        let mut golden: Option<(u64, Vec<_>)> = None;
        for reactor in test_backends() {
            let (a, trace_a) = catalog_soak(reactor, soak);
            let (b, trace_b) = catalog_soak(reactor, soak);
            assert!(a.healthy(), "{soak:?} on {reactor}\n{}", a.render());
            assert!(b.healthy(), "{soak:?} on {reactor}\n{}", b.render());
            assert_eq!(
                a.digest, b.digest,
                "{soak:?}: same seed, same replies on {reactor}"
            );
            assert_eq!(a.replies, b.replies, "{soak:?} on {reactor}");
            assert_eq!(a.dropped, b.dropped, "{soak:?} on {reactor}");
            assert_eq!(
                trace_a, trace_b,
                "{soak:?}: same seed, same drift trajectory on {reactor}"
            );
            if soak == pinned {
                // Pinned digest of the seed-21 trace: the drift model may
                // be restructured, but the history it records may not
                // move.
                let trace_digest = csqp_serve::server::fnv1a(format!("{trace_a:?}").as_bytes());
                assert_eq!(
                    (trace_a.len(), trace_digest),
                    (71, 0x2616_45b6_973a_d023),
                    "{reactor}: seed-21 drift-trace golden"
                );
            }
            match &golden {
                None => golden = Some((a.digest, trace_a)),
                Some((digest, trace)) => {
                    assert_eq!(
                        a.digest, *digest,
                        "{soak:?} on {reactor}: digest matches other backends"
                    );
                    assert_eq!(
                        &trace_a, trace,
                        "{soak:?} on {reactor}: drift matches other backends"
                    );
                }
            }
        }
    }
}

#[test]
fn zero_deadline_soak_times_out_every_served_query_deterministically() {
    // deadline_ms = 0 expires at admission, so every well-formed query
    // comes back deadline-exceeded — a deterministic exercise of the
    // timeout path under fault injection.
    for reactor in test_backends() {
        let server = start_server(reactor);
        let cfg = ChaosConfig {
            deadline_ms: Some(0),
            ..soak_config(&server.addr().to_string(), 21)
        };
        let a = run_chaos(&cfg).expect("zero-deadline soak");
        assert!(
            a.conservation,
            "{reactor}: conservation under timeouts\n{}",
            a.render()
        );
        assert!(
            a.probes_ok,
            "{reactor}: workers survive timeouts\n{}",
            a.render()
        );
        assert!(
            a.stats.timed_out > 0,
            "{reactor}: zero deadlines must time out\n{}",
            a.render()
        );
        assert_eq!(
            a.stats.queries_served,
            0,
            "{reactor}: nothing outruns an already-expired deadline\n{}",
            a.render()
        );
        let b = run_chaos(&cfg).expect("zero-deadline soak, repeated");
        assert_eq!(
            a.digest, b.digest,
            "{reactor}: timeout replies are seeded too"
        );
        server.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any seed — not just the pinned eight — holds the invariants.
    /// The backend is derived from the seed so both get proptest
    /// coverage without doubling the case count.
    #[test]
    fn soak_any_seed_holds_invariants(seed in 0u64..1_000_000) {
        let backends = test_backends();
        let server = start_server(backends[seed as usize % backends.len()]);
        let report = run_chaos(&soak_config(&server.addr().to_string(), seed))
            .expect("soak completes");
        prop_assert!(report.conservation, "seed {}: {}", seed, report.render());
        prop_assert!(report.probes_ok, "seed {}: {}", seed, report.render());
        prop_assert_eq!(report.client_errors, 0);
        server.shutdown();
    }
}
