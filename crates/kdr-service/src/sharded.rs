//! Scale-out: N independent shard runtimes behind one front door.
//!
//! One [`SolveService`] scales *within* a worker pool; past that, the
//! single driver thread and the single runtime's reduction tree
//! become the ceiling. [`ShardedService`] runs N complete
//! `SolveService`s — each with its own runtime, worker pool, planner
//! sessions, and fair scheduler — and one shared **admission front
//! door** that owns tenant placement and global id allocation.
//!
//! Placement is **consistent-hash** (a splitmix64 ring with virtual
//! nodes: adding a shard moves `~1/N` of tenants, everyone else stays
//! put), so a new tenant's shard depends only on its id and the
//! fleet's shard history. A **rebalancer** — invoked between
//! scheduling rounds of
//! [`ShardedService::run_rounds`], never concurrently with a shard's
//! slice — migrates one tenant from the most- to the least-loaded
//! shard when the skew exceeds a configurable factor.
//!
//! **Migration** reuses the checkpoint/restart machinery: detach on
//! the source shard (scheduler entry out, queued jobs out, in-flight
//! jobs checkpointed at their current iterate via a fenced `SOL`
//! snapshot), attach on the destination (sessions rebuilt from spec,
//! solver rebuilt from the checkpoint on next activation — restart
//! semantics, `r = b − A·x` recomputed). Because every kernel is
//! bitwise deterministic, a migrated job's numerical trajectory is
//! *identical* to a local checkpoint/restart at the same iteration.
//! The front-door lock makes the cutover atomic: a submit racing a
//! migration either lands before detach (and the job migrates with
//! the tenant) or after attach (and routes to the new shard); an
//! unknown session is rejected with a typed error, never lost.
//!
//! **Supervision** (see the [`supervision`](crate::supervision)
//! module docs): the front door keeps a *job ledger* (every admitted
//! job's request, attempts, and completion state) and a per-shard
//! health window. Shards that blow their [`HealthBudget`] are
//! quarantined and their tenants evacuated — onto surviving shards
//! or a freshly spawned replacement ([`ShardedService::add_shard`] /
//! [`ShardedService::remove_shard`] are also available directly for
//! live elasticity). Failed jobs are retried from scratch with
//! deterministic round-based backoff ([`RetryPolicy`]), delivering
//! typed [`JobOutcome::RetryExhausted`] when the budget runs out —
//! never silent loss. [`ShardedService::kill_shard`] simulates a
//! crash (the runtime is dropped, nothing is read from it); each
//! resident tenant's bundle is rebuilt from front-door records (its
//! sessions' specs and its outstanding ledger jobs, rerun from
//! scratch) and lands through the same [`SolveService::attach_tenant`]
//! as a migration.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use kdr_runtime::TaskSpan;
use kdr_store::{StoreBundle, StoreError, StoreSession, StoreTenant};

use crate::metrics::{trace_counters, TenantMetrics};
use crate::persist;
use crate::queue::QueuedJob;
use crate::request::{
    CancelOutcome, JobId, JobOutcome, RejectReason, SessionId, SolveRequest, SolveResponse,
    TenantId,
};
use crate::service::{ServiceConfig, ShardLoad, SolveService, TenantBundle};
use crate::session::SessionSpec;
use crate::supervision::{
    EvacuationPolicy, HealthBudget, HealthReport, HealthWindow, InFlightRecovery, RetryPolicy,
    ShardStatus, SupervisorConfig, SupervisorStats,
};

/// Virtual nodes per shard on the consistent-hash ring. More points
/// → smoother split at the cost of a larger (still tiny) ring.
const VNODES_PER_SHARD: u64 = 64;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Sharded-service construction knobs.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Number of independent shard runtimes (`>= 1`) at startup;
    /// [`ShardedService::add_shard`] grows the fleet live.
    pub shards: usize,
    /// Rebalance when the busiest shard's load score exceeds the
    /// least busy shard's by more than this factor (and by at least
    /// two outstanding jobs). `0.0` disables the rebalancer —
    /// required for bit-identical same-seed reruns, since load
    /// scores observe wall-clock turnaround.
    pub rebalance_factor: f64,
    /// Supervisor policy: health budget, evacuation target, in-flight
    /// recovery mode, and the front-door retry budget. The default
    /// never quarantines and never retries.
    pub supervisor: SupervisorConfig,
    /// Per-shard service configuration. Each shard runs
    /// `base.workers` workers; `base.seed` is salted with the shard
    /// index so sibling schedulers don't break ties identically.
    pub base: ServiceConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 2,
            rebalance_factor: 0.0,
            supervisor: SupervisorConfig::default(),
            base: ServiceConfig::default(),
        }
    }
}

/// One shard slot. Slots are append-only: a retired shard keeps its
/// index and terminal [`ShardStatus`] so ids and placements stay
/// unambiguous for the fleet's lifetime.
struct ShardSlot {
    /// The live engine; `None` once killed or removed.
    svc: Option<Arc<SolveService>>,
    status: ShardStatus,
}

impl ShardSlot {
    fn live(&self) -> Option<&Arc<SolveService>> {
        self.svc.as_ref()
    }
}

/// Front-door record of one admitted job, kept until delivery: what
/// to resubmit after a crash or failed attempt, and the terminal
/// marker that makes delivery exactly-once.
struct JobEntry {
    tenant: TenantId,
    /// `None` once terminal (the request is only needed to re-run).
    request: Option<Arc<SolveRequest>>,
    /// Completed failed attempts so far.
    attempts: u32,
    /// From-scratch resubmissions after shard kills.
    resubmits: u32,
    /// Response delivered (or synthesized): nothing further may be
    /// emitted or rerun for this job.
    terminal: bool,
}

/// Front-door bookkeeping: placement, global id allocation, the
/// migration cutover lock, and the supervisor's ledger + health
/// state.
struct FrontDoor {
    slots: Vec<ShardSlot>,
    /// Where each registered tenant currently lives.
    placements: BTreeMap<TenantId, usize>,
    /// Fair-share weight of each registered tenant (re-applied on the
    /// destination shard when the tenant migrates or is rebuilt).
    weights: BTreeMap<TenantId, u64>,
    /// Which tenant owns each session. Sessions follow their tenant
    /// across shards, so a session's shard is `placements[owner]`.
    session_owner: BTreeMap<SessionId, TenantId>,
    /// Every session's rebuildable spec — the crash-recovery source
    /// when a killed shard's sessions must be rebuilt elsewhere.
    session_specs: BTreeMap<SessionId, SessionSpec>,
    /// Consistent-hash ring: sorted `(point, shard)` pairs. Only
    /// healthy shards keep their points.
    ring: Vec<(u64, usize)>,
    next_session: SessionId,
    next_job: JobId,
    migrations: u64,
    /// Supervision round counter; ticks once per [`supervise`] call.
    ///
    /// [`supervise`]: ShardedService::supervise
    round: u64,
    /// Every admitted job, until delivered.
    ledger: BTreeMap<JobId, JobEntry>,
    /// Failed jobs awaiting their backoff: `(ready_round, job)`.
    retry_queue: Vec<(u64, JobId)>,
    /// Responses absorbed from shards and cleared for delivery.
    done: Vec<SolveResponse>,
    /// Per-slot health window baselines (index = slot).
    health: Vec<HealthWindow>,
    stats: SupervisorStats,
}

impl FrontDoor {
    /// The ring's *healthy* shard for a tenant: first virtual node at
    /// or after the tenant's hash point whose shard is healthy,
    /// wrapping. `None` when no healthy shard remains.
    fn ring_place_healthy(&self, tenant: TenantId) -> Option<usize> {
        if self.ring.is_empty() {
            return None;
        }
        let point = splitmix64(u64::from(tenant).wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
        let start = self.ring.partition_point(|&(p, _)| p < point);
        for k in 0..self.ring.len() {
            let (_, shard) = self.ring[(start + k) % self.ring.len()];
            if self.slots[shard].status.is_healthy() {
                return Some(shard);
            }
        }
        None
    }

    /// Tenants currently placed on `shard`, ascending.
    fn residents(&self, shard: usize) -> Vec<TenantId> {
        self.placements
            .iter()
            .filter(|&(_, &s)| s == shard)
            .map(|(&t, _)| t)
            .collect()
    }

    /// A crashed tenant's bundle, from front-door records alone: its
    /// weight, its sessions' specs, and its outstanding ledger jobs as
    /// from-scratch queued jobs in job-id order. Jobs parked in the
    /// retry queue stay there: their backoff release routes them to
    /// the tenant's new shard.
    fn bundle_from_records(&mut self, tenant: TenantId) -> TenantBundle {
        let sessions = self
            .session_owner
            .iter()
            .filter(|&(_, &owner)| owner == tenant)
            .map(|(&sid, _)| (sid, self.session_specs[&sid].clone()))
            .collect();
        let mut queued = Vec::new();
        for (&job, entry) in self.ledger.iter_mut() {
            if entry.terminal
                || entry.tenant != tenant
                || self.retry_queue.iter().any(|&(_, j)| j == job)
            {
                continue;
            }
            entry.resubmits += 1;
            queued.push(QueuedJob {
                job,
                tenant,
                request: Arc::clone(
                    entry
                        .request
                        .as_ref()
                        .expect("non-terminal entries keep the request"),
                ),
                submitted_at: Instant::now(),
                predicted_seconds: None,
            });
        }
        self.stats.jobs_resubmitted += queued.len() as u64;
        let weight = self.weights.get(&tenant).copied().unwrap_or(1);
        TenantBundle::from_records(tenant, weight, sessions, queued)
    }

    /// Delivered-retry count for a ledger entry: extra executions the
    /// front door granted (failed attempts that got a re-run, plus
    /// crash resubmissions).
    fn retries_of(entry: &JobEntry, exhausted: bool) -> u32 {
        let reruns = if exhausted {
            entry.attempts.saturating_sub(1)
        } else {
            entry.attempts
        };
        reruns + entry.resubmits
    }
}

/// N independent solve-service shards behind one admission front
/// door. See the [module docs](self) for the architecture.
///
/// All front-door operations (`register_tenant`, `create_session`,
/// `submit`, `migrate_tenant`, `supervise`, `kill_shard`, …)
/// serialize on one lock; shard *drivers*
/// ([`ShardedService::run_until_idle`] spawns one thread per shard
/// with work) run outside it and only contend on their own shard's
/// state lock, slice by slice.
pub struct ShardedService {
    front: Mutex<FrontDoor>,
    cfg: ShardConfig,
}

impl ShardedService {
    /// Spin up `cfg.shards` independent runtimes and an empty front
    /// door.
    pub fn new(cfg: ShardConfig) -> Self {
        let n = cfg.shards.max(1);
        let slots: Vec<ShardSlot> = (0..n)
            .map(|i| ShardSlot {
                svc: Some(Arc::new(Self::build_shard(&cfg.base, i))),
                status: ShardStatus::Healthy,
            })
            .collect();
        let mut ring: Vec<(u64, usize)> = (0..n as u64)
            .flat_map(|s| {
                (0..VNODES_PER_SHARD)
                    .map(move |v| (splitmix64((s << 20) | v), s as usize))
            })
            .collect();
        ring.sort_unstable();
        ShardedService {
            front: Mutex::new(FrontDoor {
                slots,
                placements: BTreeMap::new(),
                weights: BTreeMap::new(),
                session_owner: BTreeMap::new(),
                session_specs: BTreeMap::new(),
                ring,
                next_session: 0,
                next_job: 0,
                migrations: 0,
                round: 0,
                ledger: BTreeMap::new(),
                retry_queue: Vec::new(),
                done: Vec::new(),
                health: vec![HealthWindow::default(); n],
                stats: SupervisorStats::default(),
            }),
            cfg,
        }
    }

    /// One shard engine with the slot-salted scheduler seed.
    fn build_shard(base: &ServiceConfig, slot: usize) -> SolveService {
        let mut cfg = base.clone();
        cfg.seed = splitmix64(base.seed ^ ((slot as u64) << 32));
        SolveService::new(cfg)
    }

    /// Number of shard slots ever created (including quarantined,
    /// killed, and removed slots — slot indices are never reused).
    pub fn shard_count(&self) -> usize {
        self.front.lock().slots.len()
    }

    /// Number of slots currently healthy (routable).
    pub fn healthy_shard_count(&self) -> usize {
        self.front
            .lock()
            .slots
            .iter()
            .filter(|s| s.status.is_healthy())
            .count()
    }

    /// Direct access to one shard engine (tests use this to arm fault
    /// injection or inspect per-shard state). Panics if the slot was
    /// killed or removed — check [`ShardedService::shard_status`]
    /// first when the fleet may have retired shards.
    pub fn shard(&self, idx: usize) -> Arc<SolveService> {
        self.front.lock().slots[idx]
            .svc
            .clone()
            .expect("shard slot was killed or removed")
    }

    /// Lifecycle state of a slot (`None` for out-of-range indices).
    pub fn shard_status(&self, idx: usize) -> Option<ShardStatus> {
        self.front.lock().slots.get(idx).map(|s| s.status)
    }

    /// The shard a tenant currently lives on (`None` if
    /// unregistered).
    pub fn shard_of(&self, tenant: TenantId) -> Option<usize> {
        self.front.lock().placements.get(&tenant).copied()
    }

    /// Completed cross-shard migrations so far (self-migrations are
    /// not counted; evacuations and elasticity moves are).
    pub fn migrations(&self) -> u64 {
        self.front.lock().migrations
    }

    /// Running totals of supervisor interventions.
    pub fn supervisor_stats(&self) -> SupervisorStats {
        self.front.lock().stats
    }

    /// A shard's current health window: counter deltas since the
    /// window baseline plus queue staleness. `None` for retired slots
    /// and out-of-range indices.
    pub fn health(&self, idx: usize) -> Option<HealthReport> {
        let front = self.front.lock();
        let slot = front.slots.get(idx)?;
        let svc = slot.live()?;
        Some(Self::window_report(svc, &front.health[idx]))
    }

    fn window_report(svc: &SolveService, w: &HealthWindow) -> HealthReport {
        let snap = svc.runtime().metrics();
        HealthReport {
            task_failures: snap.task_failures.saturating_sub(w.base_task_failures),
            tasks_poisoned: snap.tasks_poisoned.saturating_sub(w.base_tasks_poisoned),
            tasks_stalled: snap.tasks_stalled.saturating_sub(w.base_tasks_stalled),
            faults_injected: snap.faults_injected.saturating_sub(w.base_faults_injected),
            oldest_queue_wait: svc.oldest_queue_wait(),
        }
    }

    /// Register (or re-weight) a tenant. First registration places
    /// the tenant on its consistent-hash ring shard (first healthy
    /// virtual node at or after the tenant's hash point; panics if no
    /// healthy shard remains); re-registration only updates the
    /// weight, in place.
    pub fn register_tenant(&self, tenant: TenantId, weight: u64) {
        let mut front = self.front.lock();
        let shard = match front.placements.get(&tenant) {
            Some(&s) => s,
            None => {
                let s = front
                    .ring_place_healthy(tenant)
                    .expect("no healthy shard left to place a tenant on");
                front.placements.insert(tenant, s);
                s
            }
        };
        front.weights.insert(tenant, weight.max(1));
        if let Some(svc) = front.slots[shard].live() {
            if front.slots[shard].status.is_healthy() {
                svc.register_tenant(tenant, weight);
            }
        }
    }

    /// Create a plan-cached session for a registered tenant on its
    /// current shard. Returns `Err(BadSessionSpec)` for a spec no
    /// session can be built from, `Err(UnknownTenant)` for
    /// unregistered tenants and `Err(ShardDegraded)` while the
    /// tenant's shard is quarantined (transient: retry after
    /// evacuation). A rejected spec leaves no front-door state behind.
    pub fn create_session(
        &self,
        tenant: TenantId,
        spec: SessionSpec,
    ) -> Result<SessionId, RejectReason> {
        spec.validate()?;
        let mut front = self.front.lock();
        let Some(&shard) = front.placements.get(&tenant) else {
            return Err(RejectReason::UnknownTenant { tenant });
        };
        if !front.slots[shard].status.is_healthy() {
            return Err(RejectReason::ShardDegraded { shard });
        }
        let id = front.next_session;
        front.next_session += 1;
        front.session_owner.insert(id, tenant);
        front.session_specs.insert(id, spec.clone());
        front.slots[shard]
            .live()
            .expect("healthy slots have a runtime")
            .create_session_with_id(id, tenant, spec, None);
        Ok(id)
    }

    /// Submit a request, routing it to the shard its session lives
    /// on. Job ids are globally unique across shards, and every
    /// admitted job is recorded in the front-door ledger until its
    /// response is delivered. The routing decision holds the
    /// front-door lock, so a submit racing a migration or evacuation
    /// cutover serializes against it: it either lands before detach
    /// (the job moves with its tenant) or after attach (it routes to
    /// the new shard) — never in between. A submit aimed at a
    /// quarantined shard gets typed [`RejectReason::ShardDegraded`]
    /// backpressure.
    pub fn submit(
        &self,
        tenant: TenantId,
        request: SolveRequest,
    ) -> Result<JobId, RejectReason> {
        let mut front = self.front.lock();
        let Some(&shard) = front.placements.get(&tenant) else {
            return Err(RejectReason::UnknownTenant { tenant });
        };
        if !front.slots[shard].status.is_healthy() {
            return Err(RejectReason::ShardDegraded { shard });
        }
        match front.session_owner.get(&request.session) {
            Some(&owner) if owner == tenant => {}
            _ => {
                return Err(RejectReason::UnknownSession {
                    session: request.session,
                });
            }
        }
        let job = front.next_job;
        let request = Arc::new(request);
        front.slots[shard]
            .live()
            .expect("healthy slots have a runtime")
            .submit_with_id(job, tenant, Arc::clone(&request))?;
        front.next_job += 1;
        front.ledger.insert(
            job,
            JobEntry {
                tenant,
                request: Some(request),
                attempts: 0,
                resubmits: 0,
                terminal: false,
            },
        );
        Ok(job)
    }

    /// Cooperatively cancel a job wherever it currently is — queued
    /// or running on a shard, parked in the front-door retry queue,
    /// or checkpointed mid-evacuation (the cancel token travels
    /// inside the checkpoint, so a cancel racing an evacuation still
    /// lands). The ledger arbitrates: a delivered job is
    /// [`CancelOutcome::AlreadyDone`], an unadmitted id is
    /// [`CancelOutcome::UnknownJob`], anything else resolves to
    /// [`CancelOutcome::Cancelled`] and its response arrives through
    /// [`ShardedService::take_responses`] — never a lost job.
    pub fn cancel_job(&self, job: JobId) -> CancelOutcome {
        let mut front = self.front.lock();
        match front.ledger.get(&job) {
            None => return CancelOutcome::UnknownJob,
            Some(e) if e.terminal => return CancelOutcome::AlreadyDone,
            Some(_) => {}
        }
        // Parked at the front door awaiting a retry? Cancel locally.
        if let Some(pos) = front.retry_queue.iter().position(|&(_, j)| j == job) {
            front.retry_queue.remove(pos);
            self.synthesize_cancel(&mut front, job);
            return CancelOutcome::Cancelled;
        }
        let entry = front.ledger.get(&job).expect("checked above");
        let tenant = entry.tenant;
        let shard = *front
            .placements
            .get(&tenant)
            .expect("ledgered jobs belong to placed tenants");
        match front.slots[shard].live().map(|svc| svc.cancel_job(job)) {
            Some(CancelOutcome::Cancelled) => CancelOutcome::Cancelled,
            Some(_) => {
                // The shard already finished it; the response is in
                // flight to the front door.
                CancelOutcome::AlreadyDone
            }
            None => {
                // The tenant's slot died and the job was never
                // rescued (no healthy shard remained). Resolve it
                // now rather than leaving it in limbo.
                self.synthesize_cancel(&mut front, job);
                CancelOutcome::Cancelled
            }
        }
    }

    /// Deliver a synthesized `Cancelled` response for a job the
    /// front door holds (retry-parked or stranded) and close its
    /// ledger entry.
    fn synthesize_cancel(&self, front: &mut FrontDoor, job: JobId) {
        let entry = front.ledger.get_mut(&job).expect("caller checked");
        let request = entry
            .request
            .take()
            .expect("non-terminal entries keep the request");
        entry.terminal = true;
        let response = SolveResponse::cancelled_unstarted(
            job,
            entry.tenant,
            request.session,
            Duration::ZERO,
            FrontDoor::retries_of(entry, false),
        );
        front.done.push(response);
    }

    /// Migrate a tenant — scheduler entry, sessions, queued jobs, and
    /// checkpointed in-flight jobs — to `dst`. Atomic under the
    /// front-door lock; safe to call while shard drivers are running
    /// (detach serializes with the source driver's slice boundary).
    /// Returns `false` for unregistered tenants, out-of-range or
    /// non-healthy destinations, or tenants on retired slots; a
    /// self-migration still round-trips through detach/attach
    /// (checkpointing in-flight work) but does not count in
    /// [`ShardedService::migrations`].
    pub fn migrate_tenant(&self, tenant: TenantId, dst: usize) -> bool {
        let mut front = self.front.lock();
        self.migrate_tenant_locked(&mut front, tenant, dst, InFlightRecovery::Resume)
    }

    fn migrate_tenant_locked(
        &self,
        front: &mut FrontDoor,
        tenant: TenantId,
        dst: usize,
        recovery: InFlightRecovery,
    ) -> bool {
        if dst >= front.slots.len() || !front.slots[dst].status.is_healthy() {
            return false;
        }
        let Some(&src) = front.placements.get(&tenant) else {
            return false;
        };
        let Some(src_svc) = front.slots[src].live().cloned() else {
            return false;
        };
        let Some(mut bundle) = src_svc.detach_tenant(tenant) else {
            return false;
        };
        if recovery == InFlightRecovery::Restart {
            bundle.restart_in_flight();
        }
        front.slots[dst]
            .live()
            .expect("healthy destination")
            .attach_tenant(bundle);
        front.placements.insert(tenant, dst);
        if src != dst {
            front.migrations += 1;
        }
        true
    }

    /// One rebalance pass: if the busiest healthy shard's load score
    /// exceeds the least busy one's by more than `rebalance_factor`
    /// (and by at least two outstanding jobs), migrate the busiest
    /// shard's heaviest-backlog tenant to the least busy shard.
    /// Returns the migrated tenant, if any. No-op when
    /// `rebalance_factor == 0.0`.
    pub fn rebalance(&self) -> Option<TenantId> {
        if self.cfg.rebalance_factor <= 0.0 {
            return None;
        }
        let mut front = self.front.lock();
        let loads: Vec<(usize, ShardLoad)> = front
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.status.is_healthy())
            .filter_map(|(i, s)| s.live().map(|svc| (i, svc.load())))
            .collect();
        if loads.len() < 2 {
            return None;
        }
        let &(busy, busy_load) = loads
            .iter()
            .max_by(|(_, a), (_, b)| a.score().total_cmp(&b.score()))?;
        let &(idle, idle_load) = loads
            .iter()
            .min_by(|(_, a), (_, b)| a.score().total_cmp(&b.score()))?;
        if busy == idle
            || busy_load.depth() < idle_load.depth() + 2
            || busy_load.score() <= self.cfg.rebalance_factor * idle_load.score().max(1e-9)
        {
            return None;
        }
        // Heaviest-backlog tenant on the busiest shard: most queued
        // jobs, ties to the smallest id for determinism.
        let mut counts: BTreeMap<TenantId, usize> = BTreeMap::new();
        for t in front.residents(busy) {
            counts.insert(t, 0);
        }
        let busy_svc = front.slots[busy].live().cloned()?;
        for r in busy_svc.queued_tenants() {
            if let Some(c) = counts.get_mut(&r) {
                *c += 1;
            }
        }
        let tenant = counts
            .into_iter()
            .max_by_key(|&(t, c)| (c, std::cmp::Reverse(t)))
            .map(|(t, _)| t)?;
        if self.migrate_tenant_locked(&mut front, tenant, idle, InFlightRecovery::Resume) {
            Some(tenant)
        } else {
            None
        }
    }

    /// Grow the fleet by one freshly spawned shard, then migrate
    /// every tenant whose consistent-hash placement lands on it
    /// (~`1/N` of tenants — the ring guarantee) via graceful
    /// checkpoint migration. Returns the new shard's index.
    pub fn add_shard(&self) -> usize {
        let mut front = self.front.lock();
        let idx = self.add_shard_slot(&mut front);
        let movers: Vec<TenantId> = front
            .placements
            .iter()
            .filter(|&(&t, &s)| {
                s != idx
                    && front.slots[s].status.is_healthy()
                    && front.ring_place_healthy(t) == Some(idx)
            })
            .map(|(&t, _)| t)
            .collect();
        for t in movers {
            self.migrate_tenant_locked(&mut front, t, idx, InFlightRecovery::Resume);
        }
        idx
    }

    /// Append a healthy slot (runtime, ring points, health window)
    /// without moving any tenant.
    fn add_shard_slot(&self, front: &mut FrontDoor) -> usize {
        let idx = front.slots.len();
        front.slots.push(ShardSlot {
            svc: Some(Arc::new(Self::build_shard(&self.cfg.base, idx))),
            status: ShardStatus::Healthy,
        });
        front.health.push(HealthWindow {
            window_start_round: front.round,
            ..HealthWindow::default()
        });
        for v in 0..VNODES_PER_SHARD {
            let point = splitmix64(((idx as u64) << 20) | v);
            let at = front.ring.partition_point(|&(p, _)| p < point);
            front.ring.insert(at, (point, idx));
        }
        front.stats.shards_added += 1;
        idx
    }

    /// Gracefully retire a shard: evacuate its tenants to their ring
    /// successors (checkpoint migration — in-flight jobs resume
    /// bit-identically), drop its runtime, and remove its ring
    /// points. Returns `false` for out-of-range or already-retired
    /// slots, or when residents exist but no healthy destination
    /// remains (the shard is left untouched).
    pub fn remove_shard(&self, idx: usize) -> bool {
        let mut front = self.front.lock();
        if idx >= front.slots.len() || front.slots[idx].svc.is_none() {
            return false;
        }
        let prev_status = front.slots[idx].status;
        if !matches!(prev_status, ShardStatus::Healthy | ShardStatus::Quarantined) {
            return false;
        }
        // Take the slot off the ring first so successors are computed
        // without it. With any healthy shard left, every resident has
        // a ring successor.
        front.slots[idx].status = ShardStatus::Quarantined;
        if !front.residents(idx).is_empty()
            && !front.slots.iter().any(|s| s.status.is_healthy())
        {
            front.slots[idx].status = prev_status;
            return false;
        }
        self.evacuate_residents(&mut front, idx, InFlightRecovery::Resume);
        front.slots[idx].svc = None;
        front.slots[idx].status = ShardStatus::Removed;
        front.ring.retain(|&(_, s)| s != idx);
        front.stats.shards_removed += 1;
        true
    }

    /// Simulate a shard crash: drop the runtime **without reading
    /// anything from it** — no checkpoints, no response drain — then
    /// recover from front-door state alone. Each resident tenant's
    /// [`TenantBundle`] is rebuilt from front-door records — its
    /// weight, its sessions' stashed specs, and its outstanding
    /// ledger jobs, requeued **from scratch** (full budget, so
    /// the delivered residual history is bit-identical to a fault-free
    /// run) — and attached to its ring successor exactly as a
    /// migration would attach it. Undelivered responses on the dead
    /// shard are lost with it; resubmission makes delivery
    /// exactly-once regardless. Returns `false` for out-of-range or
    /// already-retired slots.
    ///
    /// If no healthy shard remains, affected tenants are stranded:
    /// their placements keep pointing at the dead slot (submits get
    /// [`RejectReason::ShardDegraded`]) and their outstanding jobs
    /// stay in the ledger, resolvable only by
    /// [`ShardedService::cancel_job`].
    pub fn kill_shard(&self, idx: usize) -> bool {
        let mut front = self.front.lock();
        if idx >= front.slots.len() {
            return false;
        }
        let Some(svc) = front.slots[idx].svc.take() else {
            return false;
        };
        front.slots[idx].status = ShardStatus::Killed;
        front.ring.retain(|&(_, s)| s != idx);
        front.stats.kills += 1;
        // Dropping the runtime joins its workers (in-flight task
        // bodies finish or panic; nothing is read back).
        drop(svc);
        for t in front.residents(idx) {
            let Some(dst) = front.ring_place_healthy(t) else {
                continue;
            };
            let bundle = front.bundle_from_records(t);
            front.slots[dst]
                .live()
                .expect("healthy slots have a runtime")
                .attach_tenant(bundle);
            front.placements.insert(t, dst);
            front.migrations += 1;
            front.stats.tenants_evacuated += 1;
        }
        true
    }

    /// Explicitly quarantine a shard and evacuate its tenants, as if
    /// it had blown its health budget. Returns `false` for slots that
    /// are not currently healthy.
    pub fn quarantine_shard(&self, idx: usize) -> bool {
        let mut front = self.front.lock();
        if idx >= front.slots.len() || !front.slots[idx].status.is_healthy() {
            return false;
        }
        self.quarantine_and_evacuate(&mut front, idx);
        true
    }

    fn quarantine_and_evacuate(&self, front: &mut FrontDoor, idx: usize) {
        front.slots[idx].status = ShardStatus::Quarantined;
        front.ring.retain(|&(_, s)| s != idx);
        front.stats.quarantines += 1;
        if self.cfg.supervisor.evacuation == EvacuationPolicy::Replace
            && !front.residents(idx).is_empty()
        {
            self.add_shard_slot(front);
        }
        self.evacuate_residents(front, idx, self.cfg.supervisor.in_flight);
    }

    /// Move every tenant still placed on a quarantined slot to its
    /// healthy ring successor, recovering in-flight jobs per
    /// `recovery`. Tenants with no healthy destination stay put
    /// (submits get [`RejectReason::ShardDegraded`]) and are retried
    /// on every later supervision tick, so they recover as soon as
    /// capacity returns (e.g. after an [`ShardedService::add_shard`]).
    fn evacuate_residents(&self, front: &mut FrontDoor, idx: usize, recovery: InFlightRecovery) {
        for t in front.residents(idx) {
            let Some(dst) = front.ring_place_healthy(t) else {
                continue;
            };
            if self.migrate_tenant_locked(front, t, dst, recovery) {
                front.stats.tenants_evacuated += 1;
            }
        }
    }

    /// One supervision tick: advance the round counter, absorb shard
    /// responses into the ledger (intercepting failures for retry),
    /// evaluate every healthy shard's health window (quarantining and
    /// evacuating budget violators), and release retries whose
    /// backoff expired. [`ShardedService::run_rounds`] and
    /// [`ShardedService::run_until_idle`] call this after every
    /// round; explicit calls are only needed when driving shards
    /// manually.
    pub fn supervise(&self) {
        let mut front = self.front.lock();
        front.round += 1;
        self.absorb_responses(&mut front);
        let tripped = self.evaluate_health(&mut front);
        for idx in tripped {
            self.quarantine_and_evacuate(&mut front, idx);
        }
        // Re-attempt evacuations that previously found no healthy
        // destination (capacity may have returned since).
        for idx in 0..front.slots.len() {
            if front.slots[idx].status == ShardStatus::Quarantined
                && front.slots[idx].svc.is_some()
            {
                self.evacuate_residents(&mut front, idx, self.cfg.supervisor.in_flight);
            }
        }
        self.release_due_retries(&mut front);
    }

    /// Drain every live shard's responses into the front door,
    /// closing ledger entries. Failed attempts are intercepted for
    /// retry (never delivered) while budget remains; the retry budget
    /// exhausting converts the last failure into
    /// [`JobOutcome::RetryExhausted`].
    fn absorb_responses(&self, front: &mut FrontDoor) {
        let retry: RetryPolicy = self.cfg.supervisor.retry;
        for idx in 0..front.slots.len() {
            let Some(svc) = front.slots[idx].live().cloned() else {
                continue;
            };
            for mut r in svc.take_responses() {
                let Some(entry) = front.ledger.get_mut(&r.job) else {
                    // Submitted around the front door (not possible
                    // through the public API); pass through.
                    front.done.push(r);
                    continue;
                };
                if entry.terminal {
                    // A stale attempt finishing after its job was
                    // already resolved (e.g. cancelled while parked
                    // for retry). Exactly-once delivery: drop it.
                    continue;
                }
                let failed = matches!(r.outcome, JobOutcome::Failed { .. });
                let mut exhausted = false;
                if failed && retry.max_attempts > 0 {
                    entry.attempts += 1;
                    if entry.attempts <= retry.max_attempts {
                        let shift = u32::min(entry.attempts - 1, 32);
                        let backoff = retry.base_backoff_rounds.max(1) << shift;
                        front.retry_queue.push((front.round + backoff, r.job));
                        front.stats.retries_scheduled += 1;
                        continue;
                    }
                    let message = match r.outcome {
                        JobOutcome::Failed { message } => message,
                        _ => unreachable!("checked failed above"),
                    };
                    r.outcome = JobOutcome::RetryExhausted {
                        attempts: entry.attempts,
                        message,
                    };
                    front.stats.retries_exhausted += 1;
                    exhausted = true;
                }
                r.retries = FrontDoor::retries_of(entry, exhausted);
                entry.terminal = true;
                entry.request = None;
                front.done.push(r);
            }
        }
    }

    /// Compare every healthy shard's window deltas against the
    /// budget; returns the indices that tripped. Windows that
    /// completed `window_rounds` rounds rebaseline.
    fn evaluate_health(&self, front: &mut FrontDoor) -> Vec<usize> {
        let budget: HealthBudget = self.cfg.supervisor.budget;
        let mut tripped = Vec::new();
        for idx in 0..front.slots.len() {
            if !front.slots[idx].status.is_healthy() {
                continue;
            }
            let Some(svc) = front.slots[idx].live().cloned() else {
                continue;
            };
            let report = Self::window_report(&svc, &front.health[idx]);
            if budget.verdict(&report).is_some() {
                tripped.push(idx);
            }
            if front.round
                >= front.health[idx].window_start_round + budget.window_rounds.max(1)
            {
                let snap = svc.runtime().metrics();
                front.health[idx] = HealthWindow {
                    window_start_round: front.round,
                    base_task_failures: snap.task_failures,
                    base_tasks_poisoned: snap.tasks_poisoned,
                    base_tasks_stalled: snap.tasks_stalled,
                    base_faults_injected: snap.faults_injected,
                };
            }
        }
        tripped
    }

    /// Requeue retry jobs whose backoff round arrived, in job-id
    /// order, on their tenant's *current* shard (which may differ
    /// from where they failed, after an evacuation).
    fn release_due_retries(&self, front: &mut FrontDoor) {
        let round = front.round;
        let mut due: Vec<JobId> = Vec::new();
        front.retry_queue.retain(|&(ready, job)| {
            if ready <= round {
                due.push(job);
                false
            } else {
                true
            }
        });
        due.sort_unstable();
        for job in due {
            let Some(entry) = front.ledger.get(&job) else {
                continue;
            };
            if entry.terminal {
                continue;
            }
            let tenant = entry.tenant;
            let request = Arc::clone(
                entry
                    .request
                    .as_ref()
                    .expect("non-terminal entries keep the request"),
            );
            let Some(&shard) = front.placements.get(&tenant) else {
                continue;
            };
            let Some(svc) = front.slots[shard].live().cloned() else {
                // Stranded (tenant's shard died with no successor);
                // the job stays in the ledger, cancellable.
                continue;
            };
            if !front.slots[shard].status.is_healthy() {
                continue;
            }
            svc.restore_job(QueuedJob {
                job,
                tenant,
                request,
                submitted_at: Instant::now(),
                predicted_seconds: None,
            });
        }
    }

    /// Live slots (healthy or quarantined-but-draining) that still
    /// have queued or active work.
    fn busy_shards(&self) -> Vec<Arc<SolveService>> {
        let front = self.front.lock();
        front
            .slots
            .iter()
            .filter_map(|s| s.live())
            .filter(|svc| svc.has_work())
            .cloned()
            .collect()
    }

    /// Whether the front door holds undone work beyond the shards:
    /// retry jobs waiting out their backoff.
    fn pending_retries(&self) -> bool {
        !self.front.lock().retry_queue.is_empty()
    }

    /// Drive every shard to completion: [`ShardedService::run_rounds`]
    /// one round at a time, each round running every busy shard until
    /// it idles, until a round finds the whole fleet idle *and* no
    /// retry pending. With the rebalancer and supervisor passive a
    /// single round suffices; with them active, later rounds drain
    /// migrated, evacuated, and retried work.
    pub fn run_until_idle(&self) {
        while self.run_rounds(1, usize::MAX) > 0 {}
    }

    /// Drive at most `rounds` rounds of `slices_per_shard` scheduler
    /// slices on every shard with work (in parallel), with a
    /// rebalance pass and a supervision tick between rounds. Stops
    /// early when the fleet goes idle with no retries pending;
    /// returns the rounds actually run. Bounded rounds give the
    /// rebalancer and the health model a deterministic cadence.
    pub fn run_rounds(&self, rounds: usize, slices_per_shard: usize) -> usize {
        for k in 0..rounds {
            let busy = self.busy_shards();
            if busy.is_empty() && !self.pending_retries() {
                return k;
            }
            std::thread::scope(|scope| {
                for svc in &busy {
                    let svc = Arc::clone(svc);
                    scope.spawn(move || svc.run_slices(slices_per_shard));
                }
            });
            self.rebalance();
            self.supervise();
        }
        rounds
    }

    /// Completed responses accumulated since the last call: absorbed
    /// shard by shard in slot order (deterministic for a
    /// deterministic schedule), with failed attempts already
    /// intercepted by the retry policy and `retries` stamped from the
    /// ledger.
    pub fn take_responses(&self) -> Vec<SolveResponse> {
        let mut front = self.front.lock();
        self.absorb_responses(&mut front);
        std::mem::take(&mut front.done)
    }

    /// Per-tenant metrics merged across live shards: a migrated
    /// tenant's counters accumulate on every shard it visited and sum
    /// here. (A killed shard's unmerged counters die with it — crash
    /// semantics.)
    pub fn metrics(&self) -> BTreeMap<TenantId, TenantMetrics> {
        let shards: Vec<Arc<SolveService>> = {
            let front = self.front.lock();
            front.slots.iter().filter_map(|s| s.live()).cloned().collect()
        };
        let mut merged: BTreeMap<TenantId, TenantMetrics> = BTreeMap::new();
        for shard in shards {
            for (tenant, m) in shard.metrics() {
                merged.entry(tenant).or_default().merge(&m);
            }
        }
        merged
    }

    /// Per-slot load signals (index = slot; retired slots report the
    /// default all-zero load).
    pub fn loads(&self) -> Vec<ShardLoad> {
        let front = self.front.lock();
        front
            .slots
            .iter()
            .map(|s| s.live().map(|svc| svc.load()).unwrap_or_default())
            .collect()
    }

    /// Tenant-tagged Chrome trace JSON merged across live shards: one
    /// Perfetto process per tenant (spans concatenated from every
    /// shard the tenant ran on), with fleet-wide reduction counters
    /// and degradation counters (`task_failures`, `tasks_poisoned`,
    /// `tasks_stalled`, `faults_injected`) summed over shard runtimes
    /// as Perfetto counter tracks. Meaningful only with
    /// [`ServiceConfig::capture_events`] on in the base config.
    pub fn chrome_trace(&self) -> String {
        let shards: Vec<Arc<SolveService>> = {
            let front = self.front.lock();
            front.slots.iter().filter_map(|s| s.live()).cloned().collect()
        };
        let mut per_tenant: BTreeMap<TenantId, Vec<TaskSpan>> = BTreeMap::new();
        for shard in &shards {
            for (tenant, spans) in shard.span_groups() {
                per_tenant.entry(tenant).or_default().extend(spans);
            }
        }
        let groups: Vec<(String, Vec<TaskSpan>)> = per_tenant
            .into_iter()
            .map(|(t, spans)| (format!("tenant-{t}"), spans))
            .collect();
        let snaps: Vec<_> = shards.iter().map(|s| s.runtime().metrics()).collect();
        let tenants: Vec<TenantMetrics> = shards
            .iter()
            .flat_map(|s| s.metrics().into_values())
            .collect();
        let counters = trace_counters(&snaps, &tenants);
        kdr_runtime::chrome_trace_json_with_counters(&groups, &counters)
    }

    /// Persist the fleet's durable state to `path` as one bundle: the
    /// shared cost catalogue (every shard refines the same
    /// [`SharedCatalogue`](kdr_store::SharedCatalogue) from
    /// `base.catalogue`), every registered tenant at its front-door
    /// base weight, and every session. Live shards export their
    /// sessions warm (pinned kernel, completed-job counts); a session
    /// stranded on a killed or removed shard is exported *cold* from
    /// its front-door spec — its warm plan died with the shard, which
    /// is exactly crash semantics. Queued and in-flight jobs are not
    /// persisted. The write is atomic (temp file + rename).
    pub fn save_store(&self, path: &Path) -> Result<(), StoreError> {
        let front = self.front.lock();
        let mut sessions = Vec::new();
        for slot in &front.slots {
            if let Some(svc) = slot.live() {
                sessions.extend(svc.export_sessions());
            }
        }
        for (&sid, &tenant) in &front.session_owner {
            let on_live_shard = front
                .placements
                .get(&tenant)
                .is_some_and(|&s| front.slots[s].live().is_some());
            if on_live_shard {
                continue;
            }
            let Some(spec) = front.session_specs.get(&sid) else {
                continue;
            };
            sessions.push(persist::session_to_store(sid, tenant, spec, None, 0, 0));
        }
        sessions.sort_by_key(|s| s.session);
        let bundle = StoreBundle {
            catalogue: self
                .cfg
                .base
                .catalogue
                .as_ref()
                .map(|c| c.export())
                .unwrap_or_default(),
            tenants: front
                .weights
                .iter()
                .map(|(&t, &w)| StoreTenant {
                    tenant: u64::from(t),
                    weight: u32::try_from(w).unwrap_or(u32::MAX),
                })
                .collect(),
            sessions,
        };
        drop(front);
        kdr_store::store::save(path, &bundle)
    }

    /// Rebuild a fleet from a store written by
    /// [`ShardedService::save_store`] (or by
    /// [`SolveService::save_store`] — the bundle format is shared).
    /// The catalogue re-seeds into `cfg.base.catalogue` (merged if the
    /// caller supplies one, fresh otherwise) and is shared by every
    /// shard; tenants re-register at their saved base weights and are
    /// re-placed on the consistent-hash ring (which puts them back on
    /// the same shard when the shard count is unchanged); sessions rebuild on their owner's shard with
    /// persisted kernel choices pinned, and sessions that were warm at
    /// save time are pre-warmed. Corrupted, truncated, or semantically
    /// invalid stores fail with a typed [`StoreError`], never a panic.
    pub fn open_store(path: &Path, mut cfg: ShardConfig) -> Result<ShardedService, StoreError> {
        let bundle = kdr_store::store::load(path)?;
        cfg.base.catalogue = Some(persist::seeded_catalogue(
            cfg.base.catalogue.take(),
            &bundle,
        ));
        let svc = ShardedService::new(cfg);
        let malformed = |what: &'static str| StoreError::Malformed { offset: 0, what };
        for t in &bundle.tenants {
            let tenant =
                TenantId::try_from(t.tenant).map_err(|_| malformed("tenant id out of range"))?;
            svc.register_tenant(tenant, u64::from(t.weight));
        }
        let mut stored: Vec<&StoreSession> = bundle.sessions.iter().collect();
        stored.sort_by_key(|s| s.session);
        {
            let mut front = svc.front.lock();
            for s in stored {
                let id = SessionId::try_from(s.session)
                    .map_err(|_| malformed("session id out of range"))?;
                let tenant = TenantId::try_from(s.tenant)
                    .map_err(|_| malformed("tenant id out of range"))?;
                let Some(&shard) = front.placements.get(&tenant) else {
                    return Err(malformed("session references an unregistered tenant"));
                };
                let spec = front.slots[shard]
                    .live()
                    .expect("a fresh fleet's shards are all live")
                    .install_store_session(s)?;
                front.session_owner.insert(id, tenant);
                front.session_specs.insert(id, spec);
                front.next_session = front.next_session.max(id.saturating_add(1));
            }
        }
        Ok(svc)
    }
}
