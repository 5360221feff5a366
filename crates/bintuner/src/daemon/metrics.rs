//! The daemon's accounting plane: one btel [`Registry`], live from boot.
//!
//! Every daemon event — submit, reject, each terminal job state, farm
//! launch and failure, compiles and persistent hits — is counted exactly
//! once, in that registry, by one method below. [`MetricsSnapshot`] is a
//! typed read over the registry and holds no state of its own; the
//! MetricsText frame and `bintuner metrics` render the same counters.
//!
//! Terminal states are exclusive: a job counts in exactly one of
//! `completed`, `failed`, `cancelled` and `deadline_exceeded`, so once
//! the daemon is quiescent `accepted == completed + failed + cancelled +
//! deadline_exceeded`. `quarantined` is a subset of `failed`.
//!
//! Unlike the per-run tuner telemetry (opt-in, bound by the Off-mode
//! purity contract), a long-lived multi-tenant service wants its
//! registry live from boot; every update is one atomic add at
//! admission, cancel, farm launch or job settlement — never per batch.

use super::wire::{JobState, WireTuneOutcome};
use crate::service::FarmTelemetry;
use btel::{Counter, Gauge, Histogram, Registry, Tracer};
use std::sync::Arc;

/// `(family, help)` of each per-tenant counter.
type Family = (&'static str, &'static str);

const JOBS: Family = (
    "bintuner_daemon_jobs_total",
    "Jobs submitted, by tenant (accepted or rejected).",
);
const REJECTS: Family = (
    "bintuner_daemon_rejects_total",
    "Jobs refused at admission, by tenant.",
);
const COMPLETED: Family = (
    "bintuner_daemon_completed_total",
    "Jobs that finished with a result, by tenant.",
);
const FAILED: Family = (
    "bintuner_daemon_failed_total",
    "Jobs that finished with an error (quarantine included), by tenant.",
);
const COMPILES: Family = (
    "bintuner_daemon_compiles_total",
    "Real compiles performed by completed jobs, by tenant.",
);

/// The daemon's btel families, resolved once at launch.
pub(super) struct DaemonTelemetry {
    pub(super) registry: Arc<Registry>,
    /// Job-level spans (one per job that ran), served by TraceDump.
    pub(super) tracer: Tracer,
    pub(super) queue_depth: Arc<Gauge>,
    pub(super) running: Arc<Gauge>,
    pub(super) job_seconds: Arc<Histogram>,
    pub(super) quarantined: Arc<Counter>,
    pub(super) farm_launches: Arc<Counter>,
    pub(super) farm_failures: Arc<Counter>,
    cancelled: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    persistent_hits: Arc<Counter>,
}

impl DaemonTelemetry {
    pub(super) fn new() -> DaemonTelemetry {
        let registry = Arc::new(Registry::new());
        let counter = |name, help| registry.counter(name, help);
        DaemonTelemetry {
            queue_depth: registry.gauge(
                "bintuner_daemon_queue_depth",
                "Jobs waiting in the admission queue.",
            ),
            running: registry.gauge(
                "bintuner_daemon_running",
                "Jobs currently executing on a runner.",
            ),
            job_seconds: registry.histogram(
                "bintuner_daemon_job_seconds",
                "Wall time of each job from claim to terminal state.",
            ),
            quarantined: counter(
                "bintuner_daemon_quarantined_total",
                "Jobs failed fast under poison-module quarantine.",
            ),
            farm_launches: counter(
                "bintuner_daemon_farm_launches_total",
                "Shared-farm launches (first job, module switches, relaunches after a loss).",
            ),
            farm_failures: counter(
                "bintuner_daemon_farm_failures_total",
                "Shared-farm failures (a failed launch, or a batch that lost every worker).",
            ),
            cancelled: counter(
                "bintuner_daemon_cancelled_total",
                "Jobs cancelled while queued, while running, or by shutdown.",
            ),
            deadline_exceeded: counter(
                "bintuner_daemon_deadline_exceeded_total",
                "Jobs aborted because their submit-time deadline passed.",
            ),
            persistent_hits: counter(
                "bintuner_daemon_persistent_hits_total",
                "Persistent fitness-store hits of completed jobs.",
            ),
            tracer: Tracer::enabled(1024),
            registry,
        }
    }

    /// Farm-side telemetry wiring that shares the daemon's registry, so
    /// `bintuner_farm_*` counters (evictions, heartbeat misses,
    /// respawns, backoff) land in the same exposition the MetricsText
    /// frame serves. The farm's span tracer stays disabled — the daemon
    /// records job-level spans itself.
    pub(super) fn farm_telemetry(&self) -> FarmTelemetry {
        FarmTelemetry {
            registry: self.registry.clone(),
            tracer: Tracer::disabled(),
        }
    }

    fn tenant(&self, (name, help): Family, tenant: &str) -> Arc<Counter> {
        self.registry.counter_with(name, help, "tenant", tenant)
    }

    /// Count a Submit frame from `tenant`, before admission decides.
    pub(super) fn on_submit(&self, tenant: &str) {
        self.tenant(JOBS, tenant).inc();
    }

    /// Count an admission reject for `tenant`.
    pub(super) fn on_reject(&self, tenant: &str) {
        self.tenant(REJECTS, tenant).inc();
    }

    /// Count one job reaching terminal `state` — the only place the
    /// terminal counters move. A completed job also folds its compiles
    /// and persistent hits in.
    pub(super) fn on_settled(
        &self,
        tenant: &str,
        state: JobState,
        outcome: &Result<WireTuneOutcome, String>,
    ) {
        match (state, outcome) {
            (JobState::Done, Ok(o)) => {
                self.tenant(COMPLETED, tenant).inc();
                self.tenant(COMPILES, tenant).add(o.compiles);
                self.persistent_hits.add(o.persistent_hits);
            }
            (JobState::Failed, _) => self.tenant(FAILED, tenant).inc(),
            (JobState::Cancelled, _) => self.cancelled.inc(),
            (JobState::DeadlineExceeded, _) => self.deadline_exceeded.inc(),
            _ => unreachable!("{state:?} is not a terminal state of its outcome"),
        }
    }

    /// Read every daemon counter out of the registry.
    pub(super) fn snapshot(&self) -> MetricsSnapshot {
        let read = |family: Family, tenant: &str| {
            self.registry
                .counter_value(family.0, Some(tenant))
                .unwrap_or(0)
        };
        // Every tenant submitted at least once, and the registry keeps
        // label values sorted.
        let tenants: Vec<(String, TenantCounters)> = self
            .registry
            .label_values(JOBS.0)
            .into_iter()
            .map(|name| {
                let counters = TenantCounters {
                    submitted: read(JOBS, &name),
                    rejected: read(REJECTS, &name),
                    completed: read(COMPLETED, &name),
                    failed: read(FAILED, &name),
                    compiles: read(COMPILES, &name),
                };
                (name, counters)
            })
            .collect();
        let sum = |field: fn(&TenantCounters) -> u64| tenants.iter().map(|(_, t)| field(t)).sum();
        let (submitted, rejected): (u64, u64) = (sum(|t| t.submitted), sum(|t| t.rejected));
        let gauge = |g: &Gauge| g.get().max(0) as u64;
        MetricsSnapshot {
            submitted,
            // A reject is counted after its submit, so a read racing an
            // admission can see the reject first.
            accepted: submitted.saturating_sub(rejected),
            rejected,
            completed: sum(|t| t.completed),
            failed: sum(|t| t.failed),
            cancelled: self.cancelled.get(),
            deadline_exceeded: self.deadline_exceeded.get(),
            queue_depth: gauge(&self.queue_depth),
            running: gauge(&self.running),
            compiles_total: sum(|t| t.compiles),
            persistent_hits_total: self.persistent_hits.get(),
            farm_launches: self.farm_launches.get(),
            farm_failures: self.farm_failures.get(),
            tenants,
        }
    }
}

/// Per-tenant counters (a tenant is the free-form string on Submit).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TenantCounters {
    /// Jobs this tenant submitted (accepted or rejected).
    pub submitted: u64,
    /// Jobs rejected at admission.
    pub rejected: u64,
    /// Jobs that completed successfully.
    pub completed: u64,
    /// Jobs that failed (service loss, quarantine).
    pub failed: u64,
    /// Real compiles this tenant's completed jobs performed.
    pub compiles: u64,
}

/// A point-in-time, typed read of the daemon's registry
/// ([`DaemonHandle::metrics_snapshot`](super::DaemonHandle::metrics_snapshot)).
/// Counters are read one by one, not under a common lock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Submit frames received (accepted or rejected).
    pub submitted: u64,
    /// Jobs admitted to the queue: `submitted - rejected`.
    pub accepted: u64,
    /// Jobs refused at admission (queue full, shutdown, bad request).
    pub rejected: u64,
    /// Jobs that finished with a result.
    pub completed: u64,
    /// Jobs that finished with an error (quarantine included). A
    /// cancelled or expired job is not a failure.
    pub failed: u64,
    /// Jobs cancelled — while queued, while running, or by shutdown.
    pub cancelled: u64,
    /// Jobs aborted past their submit-time deadline.
    pub deadline_exceeded: u64,
    /// Jobs waiting in the admission queue.
    pub queue_depth: u64,
    /// Jobs executing on a runner.
    pub running: u64,
    /// Real compiles across all completed jobs.
    pub compiles_total: u64,
    /// Persistent fitness-store hits across all completed jobs — the
    /// multi-tenant payoff: a duplicate submission is all hits, zero
    /// compiles.
    pub persistent_hits_total: u64,
    /// Shared-farm launches (first job, module switches, relaunches
    /// after a farm loss).
    pub farm_launches: u64,
    /// Shared-farm failures (a failed launch, or a batch that lost
    /// every worker).
    pub farm_failures: u64,
    /// Per-tenant counters, sorted by tenant name.
    pub tenants: Vec<(String, TenantCounters)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use genetic::StopReason;

    fn done(compiles: u64, persistent_hits: u64) -> Result<WireTuneOutcome, String> {
        Ok(WireTuneOutcome {
            best_flags: vec![true],
            best_ncd_bits: 0,
            iterations: 1,
            stopped_by: StopReason::MaxEvaluations,
            compiles,
            persistent_hits,
            store_ast_hits: 0,
            store_lower_hits: 0,
        })
    }

    #[test]
    fn snapshot_aggregates_tenants_sorted_from_the_registry() {
        let tel = DaemonTelemetry::new();
        tel.on_submit("zeta");
        tel.on_reject("zeta");
        let settled = [
            (JobState::Done, done(40, 3)),
            (JobState::Failed, Err("farm lost".into())),
            (JobState::Cancelled, Err("cancelled".into())),
            (JobState::DeadlineExceeded, Err("expired".into())),
        ];
        for (state, outcome) in &settled {
            tel.on_submit("alpha");
            tel.on_settled("alpha", *state, outcome);
        }
        let snap = tel.snapshot();
        assert_eq!((snap.submitted, snap.rejected, snap.accepted), (5, 1, 4));
        // Each terminal state lands in exactly one counter.
        assert_eq!(
            (
                snap.completed,
                snap.failed,
                snap.cancelled,
                snap.deadline_exceeded
            ),
            (1, 1, 1, 1)
        );
        assert_eq!(snap.compiles_total, 40);
        assert_eq!(snap.persistent_hits_total, 3);
        let names: Vec<&str> = snap.tenants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"], "sorted by tenant");
        assert_eq!(
            snap.tenants[0].1,
            TenantCounters {
                submitted: 4,
                rejected: 0,
                completed: 1,
                failed: 1,
                compiles: 40,
            }
        );
        // The snapshot and the exposition page are the same counters.
        let text = tel.registry.render_text();
        assert!(text.contains("bintuner_daemon_compiles_total{tenant=\"alpha\"} 40"));
        assert!(text.contains("bintuner_daemon_failed_total{tenant=\"alpha\"} 1"));
        assert!(text.contains("bintuner_daemon_rejects_total{tenant=\"zeta\"} 1"));
        assert!(text.contains("bintuner_daemon_cancelled_total 1"));
    }
}
