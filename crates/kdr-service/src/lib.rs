#![warn(missing_docs)]
//! # kdr-service
//!
//! A multi-tenant solve service over one shared KDRSolvers runtime.
//!
//! The paper's runtime executes one application's solves; this crate
//! turns it into a *service*: many tenants submit [`SolveRequest`]s
//! against long-lived, plan-cached [`Session`]s, and the service
//! executes them over a single shared worker pool with
//!
//! - **admission control** — a bounded queue with immediate, typed
//!   backpressure ([`RejectReason::QueueFull`]) and deadline
//!   screening ([`RejectReason::DeadlineUnmeetable`]);
//! - **weighted fair-share scheduling** — a deterministic, seeded
//!   stride scheduler time-slicing the pool across tenants at
//!   iteration granularity (a slice is `slice_iters` iterations of
//!   one tenant's [`kdr_core::StepDriver`]);
//! - **plan-cached sessions** — operator registration, dependent
//!   partitioning, tile-kernel lowering, and captured iteration
//!   traces persist across jobs, so warm solves skip the expensive
//!   prologue (measured as time-to-first-iteration, cold vs warm);
//! - **cooperative cancellation** — per-job [`kdr_core::CancelToken`]
//!   combining request deadlines with explicit
//!   [`SolveService::cancel_job`], honored at iteration boundaries
//!   by every solver family;
//! - **per-tenant observability** — metrics-counter slices
//!   ([`TenantMetrics`]) and tenant-tagged Chrome-trace export (one
//!   Perfetto process per tenant);
//! - **scale-out** — [`ShardedService`] runs N independent service
//!   runtimes behind one admission front door, with consistent-hash
//!   tenant placement and live cross-shard migration built on the
//!   checkpoint/restart machinery (see the [`sharded`] module docs);
//! - **supervision and self-healing** — the front door watches every
//!   shard's health (task failures, poison cascades, watchdog trips,
//!   injected faults, queue staleness), quarantines shards that blow
//!   their [`HealthBudget`] with typed
//!   [`RejectReason::ShardDegraded`] backpressure, evacuates tenants
//!   onto healthy or freshly spawned shards, retries failed jobs
//!   with bounded backoff ([`RetryPolicy`], typed
//!   [`JobOutcome::RetryExhausted`] on exhaustion), and recovers
//!   shard crashes from its job ledger with exactly-once delivery
//!   (see the [`supervision`] module docs);
//! - **cost-model scheduling and warm restarts** — a shared cost
//!   catalogue ([`ServiceConfig::catalogue`], from `kdr-store`)
//!   prices jobs by operator structure for admission screening,
//!   opt-in cost-proportional fair-share weights
//!   ([`ServiceConfig::cost_weights`]), and measured-sample kernel
//!   advice to the planner; [`SolveService::save_store`] /
//!   [`SolveService::open_store`] (and their [`ShardedService`]
//!   counterparts) persist catalogue + tenants + sessions in a
//!   versioned, checksummed on-disk store so a restarted service
//!   starts warm with bit-identical residual histories.
//!
//! ```
//! use kdr_core::SolveControl;
//! use kdr_service::{ServiceConfig, SessionSpec, SolveRequest, SolveService, SolverKind};
//! use kdr_sparse::Stencil;
//! use kdr_sparse::stencil::rhs_vector;
//!
//! let svc = SolveService::new(ServiceConfig::default());
//! svc.register_tenant(1, 1);
//! let s = Stencil::lap2d(8, 8);
//! let n = s.unknowns();
//! // Stencil-described session: the operator is never assembled —
//! // every tile applies matrix-free from the descriptor. Assembled
//! // operators instead construct the spec literally with
//! // `matrix: ..., stencil: None`.
//! let sid = svc.create_session(1, SessionSpec::stencil(s, 2, SolverKind::Cg));
//! let job = svc
//!     .submit(1, SolveRequest::new(sid, rhs_vector::<f64>(n, 7),
//!         SolveControl::to_tolerance(1e-10, 500)))
//!     .unwrap();
//! svc.run_until_idle();
//! let responses = svc.take_responses();
//! assert_eq!(responses.len(), 1);
//! assert_eq!(responses[0].job, job);
//! assert!(responses[0].outcome.is_converged());
//! ```

pub mod metrics;
mod persist;
pub mod queue;
pub mod request;
pub mod scheduler;
pub mod service;
pub mod session;
pub mod sharded;
pub mod supervision;

pub use metrics::{ServiceMetrics, TenantMetrics};
pub use queue::{AdmissionQueue, QueuedJob};
pub use request::{
    CancelOutcome, JobId, JobOutcome, RejectReason, SessionId, SolveRequest, SolveResponse,
    TenantId,
};
pub use scheduler::FairScheduler;
pub use service::{ServiceConfig, ShardLoad, SolveService, TenantBundle};
pub use session::{Session, SessionSpec, SessionTuning, SolverKind};
pub use sharded::{ShardConfig, ShardedService};
pub use supervision::{
    EvacuationPolicy, HealthBudget, HealthReport, InFlightRecovery, RetryPolicy, ShardStatus,
    SupervisorConfig, SupervisorStats,
};
