//! Functional tests for the multi-tenant solve service: admission,
//! sessions (cold vs warm), cancellation, priorities, batches, and
//! per-tenant observability.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kdr_core::SolveControl;
use kdr_service::{
    JobOutcome, RejectReason, ServiceConfig, SessionId, SessionSpec, ShardConfig, ShardedService,
    SolveRequest, SolveResponse, SolveService, SolverKind, TenantId, TenantMetrics,
};
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{SparseMatrix, Stencil};

fn spec(nx: u64, ny: u64, pieces: usize, solver: SolverKind) -> SessionSpec {
    let s = Stencil::lap2d(nx, ny);
    let n = s.unknowns();
    let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
    SessionSpec {
        matrix: m,
        unknowns: n,
        pieces,
        solver,
        stencil: None,
    }
}

fn control() -> SolveControl {
    SolveControl::to_tolerance(1e-10, 1000)
}

#[test]
fn two_tenants_interleave_and_both_converge() {
    let svc = SolveService::new(ServiceConfig {
        workers: 2,
        slice_iters: 4,
        ..ServiceConfig::default()
    });
    svc.register_tenant(1, 1);
    svc.register_tenant(2, 1);
    let s1 = svc.create_session(1, spec(16, 16, 4, SolverKind::Cg));
    let s2 = svc.create_session(2, spec(12, 12, 3, SolverKind::BiCgStab));
    let n1 = 16 * 16;
    let n2 = 12 * 12;
    let j1 = svc
        .submit(1, SolveRequest::new(s1, rhs_vector::<f64>(n1, 42), control()))
        .unwrap();
    let j2 = svc
        .submit(2, SolveRequest::new(s2, rhs_vector::<f64>(n2, 7), control()))
        .unwrap();
    svc.run_until_idle();
    let mut responses = svc.take_responses();
    responses.sort_by_key(|r| r.job);
    assert_eq!(responses.len(), 2);
    assert_eq!(responses[0].job, j1);
    assert_eq!(responses[1].job, j2);
    for r in &responses {
        assert!(r.outcome.is_converged(), "job {} failed: {:?}", r.job, r.outcome);
        assert!(r.iterations > 0);
    }
    // Interleaving proof: with slice_iters = 4 and both jobs needing
    // many more iterations than one slice, both tenants were granted
    // multiple slices.
    assert!(svc.slices(1) >= 2, "tenant 1 slices: {}", svc.slices(1));
    assert!(svc.slices(2) >= 2, "tenant 2 slices: {}", svc.slices(2));
}

#[test]
fn warm_session_skips_the_cold_prologue() {
    let svc = SolveService::new(ServiceConfig {
        workers: 2,
        slice_iters: 64,
        ..ServiceConfig::default()
    });
    svc.register_tenant(1, 1);
    let sid = svc.create_session(1, spec(24, 24, 4, SolverKind::Cg));
    let n = 24 * 24;
    for seed in [1u64, 2, 3] {
        svc.submit(1, SolveRequest::new(sid, rhs_vector::<f64>(n, seed), control()))
            .unwrap();
    }
    svc.run_until_idle();
    let responses = svc.take_responses();
    assert_eq!(responses.len(), 3);
    let cold = &responses[0];
    assert!(!cold.warm, "first job on a session is cold");
    assert!(cold.outcome.is_converged());
    let cold_ttfi = cold.time_to_first_iteration.expect("iterated");
    for warm in &responses[1..] {
        assert!(warm.warm, "later jobs are warm");
        assert!(warm.outcome.is_converged());
        let warm_ttfi = warm.time_to_first_iteration.expect("iterated");
        assert!(
            warm_ttfi < cold_ttfi,
            "warm TTFI {warm_ttfi:?} must beat cold {cold_ttfi:?} \
             (plan cache skipped registration + analysis)"
        );
    }
    // The warm path must actually hit the trace cache.
    let m = svc.metrics();
    assert!(
        m[&1].tasks_replayed > 0,
        "warm solves should replay captured traces: {:?}",
        m[&1]
    );
}

#[test]
fn queue_full_backpressure_is_typed_and_immediate() {
    let svc = SolveService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServiceConfig::default()
    });
    svc.register_tenant(1, 1);
    let sid = svc.create_session(1, spec(8, 8, 2, SolverKind::Cg));
    let n = 8 * 8;
    let mk = || SolveRequest::new(sid, rhs_vector::<f64>(n, 1), control());
    assert!(svc.submit(1, mk()).is_ok());
    assert!(svc.submit(1, mk()).is_ok());
    match svc.submit(1, mk()) {
        Err(RejectReason::QueueFull { capacity }) => assert_eq!(capacity, 2),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    // Draining the queue restores admission.
    svc.run_until_idle();
    assert_eq!(svc.take_responses().len(), 2);
    assert!(svc.submit(1, mk()).is_ok());
}

#[test]
fn hopeless_deadlines_rejected_at_admission() {
    let svc = SolveService::new(ServiceConfig::default());
    svc.register_tenant(1, 1);
    let sid = svc.create_session(1, spec(8, 8, 2, SolverKind::Cg));
    let n = 8 * 8;
    let mut r = SolveRequest::new(sid, rhs_vector::<f64>(n, 1), control());
    r.deadline = Some(Instant::now() - Duration::from_millis(1));
    assert!(matches!(
        svc.submit(1, r),
        Err(RejectReason::DeadlineUnmeetable { .. })
    ));
}

#[test]
fn malformed_requests_rejected_with_types() {
    let svc = SolveService::new(ServiceConfig::default());
    svc.register_tenant(1, 1);
    let sid = svc.create_session(1, spec(8, 8, 2, SolverKind::Cg));
    let n = 8 * 8;
    // Unregistered tenant.
    assert!(matches!(
        svc.submit(9, SolveRequest::new(sid, rhs_vector::<f64>(n, 1), control())),
        Err(RejectReason::UnknownTenant { tenant: 9 })
    ));
    // Unknown session.
    assert!(matches!(
        svc.submit(1, SolveRequest::new(99, rhs_vector::<f64>(n, 1), control())),
        Err(RejectReason::UnknownSession { session: 99 })
    ));
    // Foreign session: tenant 2 may not use tenant 1's session.
    svc.register_tenant(2, 1);
    assert!(matches!(
        svc.submit(2, SolveRequest::new(sid, rhs_vector::<f64>(n, 1), control())),
        Err(RejectReason::UnknownSession { .. })
    ));
    // Wrong RHS length.
    assert!(matches!(
        svc.submit(1, SolveRequest::new(sid, vec![1.0; 3], control())),
        Err(RejectReason::BadRhsLength { got: 3, .. })
    ));
    // Empty batch.
    let mut r = SolveRequest::new(sid, rhs_vector::<f64>(n, 1), control());
    r.rhs_batch.clear();
    assert!(matches!(svc.submit(1, r), Err(RejectReason::EmptyBatch)));
}

#[test]
fn queued_job_cancels_immediately_running_job_cooperatively() {
    let svc = Arc::new(SolveService::new(ServiceConfig {
        workers: 2,
        slice_iters: 4,
        ..ServiceConfig::default()
    }));
    svc.register_tenant(1, 1);
    let sid = svc.create_session(1, spec(16, 16, 4, SolverKind::Cg));
    let n = 16 * 16;
    // Queued cancellation: cancel before any driver runs.
    let j0 = svc
        .submit(1, SolveRequest::new(sid, rhs_vector::<f64>(n, 1), control()))
        .unwrap();
    svc.cancel_job(j0);
    let r = svc.take_responses();
    assert_eq!(r.len(), 1);
    assert!(matches!(r[0].outcome, JobOutcome::Cancelled { iteration: 0 }));

    // Running cancellation: an unbounded job, cancelled from another
    // thread while the driver is inside run_until_idle.
    let unbounded = SolveControl {
        max_iters: usize::MAX / 2,
        ..SolveControl::default()
    };
    let j1 = svc
        .submit(1, SolveRequest::new(sid, rhs_vector::<f64>(n, 2), unbounded))
        .unwrap();
    let canceller = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            svc.cancel_job(j1);
        })
    };
    svc.run_until_idle();
    canceller.join().unwrap();
    let r = svc.take_responses();
    assert_eq!(r.len(), 1);
    assert_eq!(r[0].job, j1);
    assert!(
        matches!(r[0].outcome, JobOutcome::Cancelled { .. }),
        "got {:?}",
        r[0].outcome
    );
}

#[test]
fn deadline_cancels_admitted_job_mid_run() {
    let svc = SolveService::new(ServiceConfig {
        workers: 2,
        slice_iters: 4,
        ..ServiceConfig::default()
    });
    svc.register_tenant(1, 1);
    let sid = svc.create_session(1, spec(16, 16, 4, SolverKind::Cg));
    let n = 16 * 16;
    let mut r = SolveRequest::new(
        sid,
        rhs_vector::<f64>(n, 2),
        SolveControl {
            max_iters: usize::MAX / 2,
            ..SolveControl::default()
        },
    );
    // Far enough out to pass admission (empty queue estimates zero
    // wait), close enough to fire mid-solve.
    r.deadline = Some(Instant::now() + Duration::from_millis(50));
    svc.submit(1, r).unwrap();
    svc.run_until_idle();
    let resp = svc.take_responses();
    assert_eq!(resp.len(), 1);
    assert!(
        matches!(resp[0].outcome, JobOutcome::Cancelled { .. }),
        "got {:?}",
        resp[0].outcome
    );
}

#[test]
fn rhs_batches_solve_sequentially_in_one_job() {
    let svc = SolveService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    svc.register_tenant(1, 1);
    let sid = svc.create_session(1, spec(12, 12, 3, SolverKind::Cg));
    let n = 12 * 12;
    let mut r = SolveRequest::new(sid, rhs_vector::<f64>(n, 1), control());
    r.rhs_batch.push(rhs_vector::<f64>(n, 2));
    r.rhs_batch.push(rhs_vector::<f64>(n, 3));
    svc.submit(1, r).unwrap();
    svc.run_until_idle();
    let resp = svc.take_responses();
    assert_eq!(resp.len(), 1, "one batch = one response");
    assert!(resp[0].outcome.is_converged());
    // Three solves' worth of iterations.
    assert!(resp[0].iterations > 30, "iterations: {}", resp[0].iterations);
}

#[test]
fn priority_jobs_route_through_express_lanes() {
    let svc = SolveService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    svc.register_tenant(1, 1);
    let sid = svc.create_session(1, spec(12, 12, 3, SolverKind::Cg));
    let n = 12 * 12;
    let mut r = SolveRequest::new(sid, rhs_vector::<f64>(n, 1), control());
    r.priority = 1;
    svc.submit(1, r).unwrap();
    svc.run_until_idle();
    let resp = svc.take_responses();
    assert!(resp[0].outcome.is_converged(), "express-lane job solves");
}

#[test]
fn chrome_trace_tags_spans_per_tenant() {
    let svc = SolveService::new(ServiceConfig {
        workers: 2,
        slice_iters: 8,
        capture_events: true,
        ..ServiceConfig::default()
    });
    svc.register_tenant(1, 1);
    svc.register_tenant(2, 1);
    let s1 = svc.create_session(1, spec(12, 12, 3, SolverKind::Cg));
    let s2 = svc.create_session(2, spec(12, 12, 3, SolverKind::Cg));
    let n = 12 * 12;
    svc.submit(1, SolveRequest::new(s1, rhs_vector::<f64>(n, 1), control()))
        .unwrap();
    svc.submit(2, SolveRequest::new(s2, rhs_vector::<f64>(n, 2), control()))
        .unwrap();
    svc.run_until_idle();
    let json = svc.chrome_trace();
    assert!(json.contains("\"tenant-1\""), "tenant 1 process group");
    assert!(json.contains("\"tenant-2\""), "tenant 2 process group");
    assert!(json.contains("\"ph\":\"X\""), "duration events present");
    // Per-tenant metrics saw the work too.
    let m = svc.metrics();
    assert!(m[&1].tasks_executed > 0);
    assert!(m[&2].tasks_executed > 0);
    assert!(m[&1].slices > 0 && m[&2].slices > 0);
}

#[test]
fn every_solver_kind_runs_as_a_session() {
    let kinds = [
        SolverKind::Cg,
        SolverKind::BiCg,
        SolverKind::BiCgStab,
        SolverKind::Cgs,
        SolverKind::Minres,
        SolverKind::Gmres { restart: 20 },
        SolverKind::Tfqmr,
        SolverKind::Chebyshev {
            lmin: 0.05,
            lmax: 8.0,
        },
    ];
    let svc = SolveService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    svc.register_tenant(1, 1);
    let n = 10 * 10;
    for kind in kinds {
        let sid = svc.create_session(1, spec(10, 10, 2, kind));
        let ctl = match kind {
            // Chebyshev's rate is bound-limited; give it headroom.
            SolverKind::Chebyshev { .. } => SolveControl::to_tolerance(1e-8, 4000),
            _ => control(),
        };
        svc.submit(1, SolveRequest::new(sid, rhs_vector::<f64>(n, 5), ctl))
            .unwrap();
        svc.run_until_idle();
        let resp = svc.take_responses();
        assert_eq!(resp.len(), 1);
        assert!(
            resp[0].outcome.is_converged(),
            "{kind:?} failed: {:?}",
            resp[0].outcome
        );
    }
}

#[test]
fn stencil_session_matches_assembled_bitwise() {
    // A stencil-described session (matrix-free operator, zero stored
    // value bytes) must reproduce the assembled session's numerical
    // trajectory sample for sample, bit for bit.
    let s = Stencil::lap3d7(8, 8, 8);
    let n = s.unknowns();
    let run = |spec: SessionSpec| -> Vec<(usize, u64)> {
        let svc = SolveService::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        svc.register_tenant(1, 1);
        let sid = svc.create_session(1, spec);
        let mut req = SolveRequest::new(sid, rhs_vector::<f64>(n, 9), control());
        req.capture_history = true;
        svc.submit(1, req).unwrap();
        svc.run_until_idle();
        let mut resp = svc.take_responses();
        assert_eq!(resp.len(), 1);
        let r = resp.pop().unwrap();
        assert!(r.outcome.is_converged(), "{:?}", r.outcome);
        r.residual_history
            .iter()
            .map(|&(i, v)| (i, v.to_bits()))
            .collect()
    };
    let implicit = run(SessionSpec::stencil(s, 4, SolverKind::Cg));
    let assembled = run(SessionSpec {
        matrix: Arc::new(s.to_csr::<f64, u64>()) as Arc<dyn SparseMatrix<f64>>,
        unknowns: n,
        pieces: 4,
        solver: SolverKind::Cg,
        stencil: None,
    });
    assert!(!implicit.is_empty());
    assert_eq!(implicit, assembled, "residual histories diverge");
}

/// A service that one long-lived session can age on.
trait Fleet {
    fn submit_job(&self, tenant: TenantId, request: SolveRequest);
    fn drain(&self) -> Vec<SolveResponse>;
    /// Run part of the submitted job, then move the tenant so the job
    /// resumes from its checkpointed iterate on a rebuilt session.
    fn migrate_mid_job(&self, tenant: TenantId);
    fn tenant_metrics(&self, tenant: TenantId) -> TenantMetrics;
}

impl Fleet for SolveService {
    fn submit_job(&self, tenant: TenantId, request: SolveRequest) {
        self.submit(tenant, request).unwrap();
    }
    fn drain(&self) -> Vec<SolveResponse> {
        self.run_until_idle();
        self.take_responses()
    }
    fn migrate_mid_job(&self, tenant: TenantId) {
        assert_eq!(self.run_slices(2), 2);
        let bundle = self.detach_tenant(tenant).unwrap();
        assert_eq!(bundle.in_flight_count(), 1, "the job must be mid-flight");
        self.attach_tenant(bundle);
    }
    fn tenant_metrics(&self, tenant: TenantId) -> TenantMetrics {
        self.metrics().remove(&tenant).unwrap_or_default()
    }
}

impl Fleet for ShardedService {
    fn submit_job(&self, tenant: TenantId, request: SolveRequest) {
        self.submit(tenant, request).unwrap();
    }
    fn drain(&self) -> Vec<SolveResponse> {
        self.run_until_idle();
        self.take_responses()
    }
    fn migrate_mid_job(&self, tenant: TenantId) {
        self.run_rounds(1, 2);
        let fresh = self.add_shard();
        assert_eq!(
            self.shard_of(tenant),
            Some(fresh),
            "add_shard must move the tenant"
        );
        assert_eq!(self.migrations(), 1);
    }
    fn tenant_metrics(&self, tenant: TenantId) -> TenantMetrics {
        self.metrics().remove(&tenant).unwrap_or_default()
    }
}

const AGING_JOBS: usize = 12;
const BATCH_JOB: usize = 4;
const MIGRATED_JOB: usize = 6;

/// One warm-up job, then [`AGING_JOBS`] jobs on the same session: job
/// [`BATCH_JOB`] is a 3-RHS batch (each RHS releases its workspace
/// through the batch-advance path), job [`MIGRATED_JOB`] is moved
/// mid-flight and resumes on a rebuilt session. Returns each measured
/// job's `(tasks replayed, tasks submitted)` and the tenant's final
/// metrics.
fn age_session(
    fleet: &dyn Fleet,
    tenant: TenantId,
    sid: SessionId,
) -> (Vec<(u64, u64)>, TenantMetrics) {
    let n = 24 * 24;
    let mut per_job = Vec::new();
    for j in 0..=AGING_JOBS {
        let seed = 500 + j as u64;
        let mut r = SolveRequest::new(sid, rhs_vector::<f64>(n, seed), control());
        if j == BATCH_JOB + 1 {
            r.rhs_batch.push(rhs_vector::<f64>(n, seed + 100));
            r.rhs_batch.push(rhs_vector::<f64>(n, seed + 200));
        }
        let before = fleet.tenant_metrics(tenant);
        fleet.submit_job(tenant, r);
        if j == MIGRATED_JOB + 1 {
            fleet.migrate_mid_job(tenant);
        }
        let rs = fleet.drain();
        assert_eq!(rs.len(), 1);
        assert!(rs[0].outcome.is_converged(), "job {j}: {:?}", rs[0].outcome);
        assert_eq!(rs[0].migrations > 0, j == MIGRATED_JOB + 1, "job {j}");
        let after = fleet.tenant_metrics(tenant);
        if j > 0 {
            per_job.push((
                after.tasks_replayed - before.tasks_replayed,
                after.tasks_submitted - before.tasks_submitted,
            ));
        }
    }
    (per_job, fleet.tenant_metrics(tenant))
}

fn replay_frac(jobs: &[(u64, u64)]) -> f64 {
    let (replayed, submitted) = jobs
        .iter()
        .fold((0, 0), |(r, s), &(jr, js)| (r + jr, s + js));
    replayed as f64 / submitted as f64
}

fn assert_session_does_not_age(per_job: &[(u64, u64)], metrics: &TenantMetrics) {
    let q = per_job.len() / 4;
    let first = replay_frac(&per_job[..q]);
    let last = replay_frac(&per_job[per_job.len() - q..]);
    assert!(
        first > 0.5,
        "warm jobs must replay: first quarter {first:.3}"
    );
    assert!(
        (last - first).abs() <= 0.05,
        "replay fraction aged from {first:.3} to {last:.3}: {per_job:?}"
    );
    assert_eq!(metrics.steps_uncached, 0, "the trace cache overflowed");
}

#[test]
fn long_lived_session_stays_on_the_replay_path() {
    let svc = SolveService::new(ServiceConfig {
        workers: 2,
        slice_iters: 8,
        ..ServiceConfig::default()
    });
    svc.register_tenant(1, 1);
    let sid = svc.create_session(1, spec(24, 24, 4, SolverKind::Cg));
    let (per_job, metrics) = age_session(&svc, 1, sid);
    assert_session_does_not_age(&per_job, &metrics);
}

#[test]
fn migrated_session_stays_on_the_replay_path() {
    let base = ServiceConfig {
        workers: 2,
        slice_iters: 8,
        ..ServiceConfig::default()
    };
    let fleet = |shards| {
        ShardedService::new(ShardConfig {
            shards,
            base: base.clone(),
            ..ShardConfig::default()
        })
    };
    // A tenant that a second shard takes over.
    let probe = fleet(2);
    let tenant = (0..64)
        .find(|&t| {
            probe.register_tenant(t, 1);
            probe.shard_of(t) == Some(1)
        })
        .expect("some tenant hashes to the second shard");
    let svc = fleet(1);
    svc.register_tenant(tenant, 1);
    let sid = svc
        .create_session(tenant, spec(24, 24, 4, SolverKind::Cg))
        .unwrap();
    let (per_job, metrics) = age_session(&svc, tenant, sid);
    assert_session_does_not_age(&per_job, &metrics);
}
