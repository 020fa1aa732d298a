//! Per-site catalog drift with bounded staleness.
//!
//! The base [`Catalog`](crate::Catalog) models the paper's single shared
//! metadata store: every site prices plans against one perfectly fresh
//! view. §5's caution is that state assumed when a plan is compiled can
//! be wrong by the time it runs. This module models that drift as
//! *epochs only*: a coordinator publishes monotone epochs, each serving
//! site holds a replica epoch that advances through a fault-injectable
//! [`Delivery`], and every admitted query gets a verdict from the
//! fresh / degrade / reject lattice according to how far its site's
//! replica trails the coordinator. No catalog contents are replicated:
//! the serving stack prices against its hosted catalog, and the replica
//! contributes only its epoch.
//!
//! [`CatalogDrift`] is the whole state machine. `csqp-serve` holds one
//! behind a mutex while catalog faults are armed, `csqp-check --catalog`
//! drives one offline, and `csqp_verify::catalog::check_drift` audits
//! the [`DriftEvent`] trace it records. Everything here is pure,
//! single-threaded state: callers draw deliveries from a seeded fault
//! schedule, so the same admissions in the same order replay the
//! identical drift history.

/// Hard cap on a recorded drift trace. Once an admission's events no
/// longer fit, recording stops for good, so the trace is always a
/// consistent *prefix* of the drift history made of whole admissions —
/// exactly what the `csqp-verify` drift pass needs for sound replay.
pub const DRIFT_TRACE_CAP: usize = 65_536;

/// What the propagation step does to a site's replica on one admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The refresh arrives intact: the replica catches up to the
    /// coordinator.
    Full,
    /// The refresh never arrives, and the coordinator publishes a burst
    /// of epochs (at least one) this tick, so a single fault can push the
    /// replica past the bound.
    Withheld {
        /// Epochs published this tick.
        burst: u64,
    },
    /// A torn (partial) delivery: the replica lands one epoch short of
    /// the coordinator.
    Torn,
    /// A reordered delivery: an older epoch arrives after a newer one;
    /// the replica refuses the regression and keeps its epoch.
    Reordered,
    /// The refresh applies, but the cached-fraction state it carries is
    /// unusable: the query that drew it must not price the client cache.
    Poisoned,
}

/// What a served query did about its replica's staleness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftAction {
    /// Served against a within-bound replica, no degradation.
    Fresh,
    /// Served, but downgraded HY/DS → QS with the `stale-catalog`
    /// degrade reason.
    Degraded,
    /// Refused with a typed `stale-catalog` reject and a retry hint.
    Rejected,
}

/// One event in a drift trace, recorded so `csqp_verify`'s
/// drift-conformance pass can audit, after the fact, that no plan was
/// ever priced beyond the bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftEvent {
    /// The coordinator published a new epoch.
    Publish {
        /// The epoch just published.
        epoch: u64,
    },
    /// A delivery reached a replica.
    Refresh {
        /// The replica's site number.
        site: u32,
        /// The epoch the replica held before the delivery.
        from: u64,
        /// The epoch of the delivery.
        to: u64,
        /// Whether the replica applied it (a regression is recorded
        /// with `applied: false`; `applied: true` with `to < from` is
        /// the `catalog-epoch-regress` finding).
        applied: bool,
    },
    /// A replica's cached-fraction state was poisoned.
    Poison {
        /// The replica's site number.
        site: u32,
    },
    /// A query was planned against a replica.
    Serve {
        /// The replica's site number.
        site: u32,
        /// The replica epoch the plan was priced under.
        priced_epoch: u64,
        /// The coordinator epoch at serve time.
        coordinator_epoch: u64,
        /// The lag *recorded* for this serve (the verify pass
        /// recomputes it and flags disagreement).
        lag: u64,
        /// The degradation decision taken.
        action: DriftAction,
    },
}

/// The outcome of one [`CatalogDrift::admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// The degradation decision for the admitted query.
    pub action: DriftAction,
    /// How many epochs the site's replica trailed the coordinator.
    pub lag: u64,
    /// Epochs the coordinator published on this admission; a memo
    /// keyed on catalog state must invalidate once per epoch.
    pub published: u64,
}

/// The drift counters the STATS frame reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriftStats {
    /// The coordinator's newest epoch.
    pub epoch: u64,
    /// Deliveries replicas applied, torn ones included.
    pub refreshes: u64,
    /// Reordered (regressing) deliveries the replicas refused.
    pub regressions: u64,
    /// Queries downgraded to QS for staleness or poison.
    pub stale_degraded: u64,
    /// QS queries refused outright for staleness.
    pub stale_rejected: u64,
    /// The worst replica lag seen at any admission.
    pub max_lag: u64,
}

/// Coordinator and per-site replica epochs under a staleness bound, plus
/// the counters and the capped event trace. Propagation is explicit:
/// nothing refreshes until the caller admits a query with a
/// [`Delivery`], which is what makes faults injectable and seeded runs
/// reproducible.
#[derive(Debug, Clone)]
pub struct CatalogDrift {
    max_epoch_lag: u64,
    replicas: Vec<u64>,
    stats: DriftStats,
    trace: Vec<DriftEvent>,
    trace_cap: usize,
}

impl CatalogDrift {
    /// `sites` replicas (at least one, numbered from 0), all fresh at
    /// epoch 0, under staleness bound `max_epoch_lag`.
    pub fn new(sites: usize, max_epoch_lag: u64) -> CatalogDrift {
        CatalogDrift {
            max_epoch_lag,
            replicas: vec![0; sites.max(1)],
            stats: DriftStats::default(),
            trace: Vec::new(),
            trace_cap: DRIFT_TRACE_CAP,
        }
    }

    /// The counters, with the coordinator's current epoch.
    pub fn stats(&self) -> DriftStats {
        self.stats
    }

    /// The recorded event trace (capped at [`DRIFT_TRACE_CAP`]).
    pub fn trace(&self) -> &[DriftEvent] {
        &self.trace
    }

    /// The epoch `site`'s replica holds (sites wrap modulo the replica
    /// count, as in [`CatalogDrift::admit`]).
    pub fn replica_epoch(&self, site: usize) -> u64 {
        self.replicas[site % self.replicas.len()]
    }

    /// Admit one query at `site` (wrapping modulo the replica count): the
    /// coordinator publishes, `delivery` decides what reaches the
    /// replica, and the lattice decides the verdict. A poisoned delivery
    /// degrades the query that drew it; otherwise a replica within the
    /// bound serves fresh, and one past it degrades when
    /// `can_downgrade` (the request is not already QS) or is rejected.
    pub fn admit(&mut self, site: usize, delivery: Delivery, can_downgrade: bool) -> Admission {
        let mark = self.trace.len();
        let published = match delivery {
            Delivery::Withheld { burst } => burst.max(1),
            _ => 1,
        };
        for _ in 0..published {
            self.stats.epoch += 1;
            self.trace.push(DriftEvent::Publish {
                epoch: self.stats.epoch,
            });
        }
        let coord = self.stats.epoch;
        let index = site % self.replicas.len();
        let from = self.replicas[index];
        match delivery {
            Delivery::Full | Delivery::Poisoned => self.apply(index, coord),
            Delivery::Withheld { .. } => {}
            // One epoch was published and a replica never runs ahead of
            // the coordinator, so `coord - 1 >= from`: a torn delivery
            // never regresses.
            Delivery::Torn => self.apply(index, (coord - 1).max(from)),
            Delivery::Reordered => {
                self.stats.regressions += 1;
                self.trace.push(DriftEvent::Refresh {
                    site: site_number(index),
                    from,
                    to: from.saturating_sub(1),
                    applied: false,
                });
            }
        }
        let poisoned = delivery == Delivery::Poisoned;
        if poisoned {
            self.trace.push(DriftEvent::Poison {
                site: site_number(index),
            });
        }

        let priced = self.replicas[index];
        let lag = coord - priced;
        self.stats.max_lag = self.stats.max_lag.max(lag);
        let action = if poisoned {
            self.stats.stale_degraded += 1;
            DriftAction::Degraded
        } else if lag <= self.max_epoch_lag {
            DriftAction::Fresh
        } else if can_downgrade {
            self.stats.stale_degraded += 1;
            DriftAction::Degraded
        } else {
            self.stats.stale_rejected += 1;
            DriftAction::Rejected
        };
        self.trace.push(DriftEvent::Serve {
            site: site_number(index),
            priced_epoch: priced,
            coordinator_epoch: coord,
            lag,
            action,
        });
        if self.trace.len() > self.trace_cap {
            // Drop this admission whole and stop recording: later
            // admissions would leave a gap the audit cannot replay.
            self.trace.truncate(mark);
            self.trace_cap = mark;
        }
        Admission {
            action,
            lag,
            published,
        }
    }

    /// Apply a delivery of epoch `to` at replica `index`.
    fn apply(&mut self, index: usize, to: u64) {
        let from = self.replicas[index];
        self.replicas[index] = to;
        self.stats.refreshes += 1;
        self.trace.push(DriftEvent::Refresh {
            site: site_number(index),
            from,
            to,
            applied: true,
        });
    }
}

/// A replica index as the site number events carry.
fn site_number(index: usize) -> u32 {
    u32::try_from(index).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deliveries_move_the_replica_as_documented() {
        let mut drift = CatalogDrift::new(2, 2);
        let a = drift.admit(0, Delivery::Full, true);
        assert_eq!((a.action, a.lag, a.published), (DriftAction::Fresh, 0, 1));
        assert_eq!(drift.replica_epoch(0), 1);

        let a = drift.admit(0, Delivery::Withheld { burst: 3 }, true);
        assert_eq!(
            (a.action, a.lag, a.published),
            (DriftAction::Degraded, 3, 3)
        );
        assert_eq!(drift.replica_epoch(0), 1, "withheld: nothing arrives");

        let a = drift.admit(0, Delivery::Torn, false);
        assert_eq!(drift.replica_epoch(0), 4, "torn: one epoch short");
        assert_eq!((a.action, a.lag), (DriftAction::Fresh, 1));

        let a = drift.admit(0, Delivery::Reordered, false);
        assert_eq!(drift.replica_epoch(0), 4, "reordered: refused");
        assert_eq!((a.action, a.lag), (DriftAction::Fresh, 2));

        let a = drift.admit(2, Delivery::Poisoned, false);
        assert_eq!(drift.replica_epoch(0), 7, "site 2 wraps to site 0");
        assert_eq!((a.action, a.lag), (DriftAction::Degraded, 0));
        // Poison is scoped to the query that drew it.
        let a = drift.admit(0, Delivery::Full, true);
        assert_eq!(a.action, DriftAction::Fresh);

        assert_eq!(
            drift.stats(),
            DriftStats {
                epoch: 8,
                refreshes: 4,
                regressions: 1,
                stale_degraded: 2,
                stale_rejected: 0,
                max_lag: 3,
            }
        );
        assert_eq!(drift.replica_epoch(1), 0, "site 1 never refreshed");
    }

    #[test]
    fn past_the_bound_qs_is_rejected_and_others_degrade() {
        let mut drift = CatalogDrift::new(1, 1);
        let a = drift.admit(0, Delivery::Withheld { burst: 2 }, false);
        assert_eq!((a.action, a.lag), (DriftAction::Rejected, 2));
        let a = drift.admit(0, Delivery::Withheld { burst: 0 }, true);
        assert_eq!(a.published, 1, "a withheld burst publishes at least once");
        assert_eq!((a.action, a.lag), (DriftAction::Degraded, 3));
        assert_eq!(drift.stats().stale_rejected, 1);
        assert_eq!(drift.stats().stale_degraded, 1);
    }

    #[test]
    fn the_trace_records_whole_admissions_and_stops_at_the_cap() {
        let mut drift = CatalogDrift::new(1, 1);
        drift.trace_cap = 7;
        drift.admit(0, Delivery::Full, true); // 3 events
        drift.admit(0, Delivery::Withheld { burst: 4 }, true); // 5: does not fit
        drift.admit(0, Delivery::Full, true); // 3: would fit, but leaves a gap
        assert_eq!(
            drift.trace(),
            &[
                DriftEvent::Publish { epoch: 1 },
                DriftEvent::Refresh {
                    site: 0,
                    from: 0,
                    to: 1,
                    applied: true,
                },
                DriftEvent::Serve {
                    site: 0,
                    priced_epoch: 1,
                    coordinator_epoch: 1,
                    lag: 0,
                    action: DriftAction::Fresh,
                },
            ]
        );
        assert_eq!(drift.stats().epoch, 6, "the state machine keeps running");
    }
}
