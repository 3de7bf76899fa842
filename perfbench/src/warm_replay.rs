//! `warm_replay`: a closed loop of 8 tenants on one `SolveService`
//! with two workers. Each tenant owns one long-lived session (24²
//! Lap2D, assembled CSR, 4 pieces, CG to 1e-10) and waits for each
//! solution before sending its next right-hand side, 12 measured jobs
//! per session after one warm-up job. Per-task overhead in the runtime
//! and the service is almost all of the cost, and trace replay stops
//! part way through each session.
//!
//! End-to-end values are per-pass statistics, reported as their median
//! over the run's passes. Latency rises through a pass as the runtime
//! ages, so a pass's job latency and `iter_us` are read quarter by
//! quarter ([`quarter_median`]).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use kdr_core::SolveControl;
use kdr_service::{ServiceConfig, SessionId, SessionSpec, SolveRequest, SolveService, SolverKind, TenantId, TenantMetrics};
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{SparseMatrix, Stencil};

use crate::common::{gather, input_seed, mix, peak_rss_mb, Ctx, Report, RtDelta, WORKERS};
use crate::layers::Counters;
use crate::floor::SerialCsr;
use crate::ledger::{resolve, Expect, Ledger, ResolveStats, Sample};
use crate::probes;
use crate::span::Tracer;
use crate::stats::{median, percentile, quarter_median, ratio};

const GRID: u64 = 24;
const PIECES: usize = 4;
const TENANTS: u32 = 8;
const JOBS_PER_SESSION: usize = 12;
const TOL: f64 = 1e-10;
/// Service set-ups per pass; `setup_s` is the median over the run.
const SETUPS_PER_PASS: usize = 2;
/// Traced passes drain runtime spans after this many slices.
const DRAIN_EVERY_SLICES: usize = 32;
/// Two set-ups plus 96 closed-loop jobs on the reference host.
const NOMINAL_PASS_S: f64 = 3.0;

fn control() -> SolveControl {
    SolveControl::to_tolerance(TOL, 2000)
}

#[derive(Default)]
struct Pass {
    traced: bool,
    setup_s: Vec<f64>,
    ttfi_cold_ms: Vec<f64>,
    measured_s: f64,
    ok_jobs: u64,
    latency_ms: Vec<f64>,
    ttfi_warm_ms: Vec<f64>,
    /// Per measured job in completion order: service time / iteration.
    iter_us: Vec<f64>,
    iters: Vec<f64>,
    counters: Counters,
    submit_us: Vec<f64>,
    slice_us: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    slices: u64,
    busy_s: f64,
    fairness: f64,
    driver_wall_ns: f64,
}

struct Setup {
    svc: SolveService,
    sessions: Vec<(TenantId, SessionId)>,
}

fn setup(tr: &Tracer, ctx: &Ctx, matrix: &Arc<dyn SparseMatrix<f64>>, n: u64, pass: &mut Pass, ledger: &mut Ledger, rep: &mut Report) -> Setup {
    let t0 = Instant::now();
    let svc = tr.span("kdr-service", "service.new", || {
        SolveService::new(ServiceConfig {
            workers: WORKERS,
            queue_capacity: 64,
            slice_iters: 8,
            seed: ctx.seed,
            ..ServiceConfig::default()
        })
    });
    // Traced passes log runtime events and drain them as they go,
    // rather than with `ServiceConfig::capture_events`, which keeps
    // every span of the pass in the service: late in a pass each
    // analyzed task's span carries hundreds of dependence edges, and
    // one pass grew to about 1.9 GB.
    if pass.traced {
        tr.span("kdr-runtime", "runtime.enable_events", || svc.runtime().enable_events(true));
    }
    let mut sessions = Vec::new();
    for t in 1..=TENANTS {
        let sid = tr.span("kdr-service", "service.create_session", || {
            svc.register_tenant(t, 1);
            svc.create_session(
                t,
                SessionSpec {
                    matrix: Arc::clone(matrix),
                    unknowns: n,
                    pieces: PIECES,
                    solver: SolverKind::Cg,
                    stencil: None,
                },
            )
        });
        sessions.push((t, sid));
    }
    // One warm-up job per session pays the lazy finalize and the
    // first trace capture.
    for &(t, sid) in &sessions {
        let rhs = rhs_vector::<f64>(n, input_seed(ctx.seed, 3, u64::from(t)));
        rep.attempted += 1;
        let submitted = Instant::now();
        match tr.span("kdr-service", "service.submit", || svc.submit(t, SolveRequest::new(sid, rhs, control()))) {
            Ok(job) => ledger.admit(job, submitted, Expect::Converged, 0),
            Err(_) => ledger.rejected += 1,
        }
    }
    tr.span("kdr-service", "service.run_until_idle", || svc.run_until_idle());
    for r in tr.span("kdr-service", "service.take_responses", || svc.take_responses()) {
        if ledger.deliver(&r, TOL).is_some() {
            pass.ttfi_cold_ms.extend(r.time_to_first_iteration.map(|d| d.as_secs_f64() * 1e3));
        }
    }
    pass.setup_s.push(t0.elapsed().as_secs_f64());
    Setup { svc, sessions }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::new("warm_replay");
    let stencil = Stencil::lap2d(GRID, GRID);
    let n = stencil.unknowns();
    let matrix: Arc<dyn SparseMatrix<f64>> = Arc::new(stencil.to_csr::<f64, u64>());

    let mut floor = None;
    if ctx.trace {
        probes::sparse_and_index(&mut rep, &matrix, n, PIECES, "24^2 Lap2D, 4 pieces");
        probes::task_floor(&mut rep);
        let serial = SerialCsr::from_matrix(matrix.as_ref());
        let b = rhs_vector::<f64>(n, input_seed(ctx.seed, 9, 0));
        floor = Some(probes::floor_cg(&serial, &b, TOL, 0.3));
    }

    let off = Tracer::new(false);
    let mut passes: Vec<Pass> = Vec::new();
    let mut resolved = ResolveStats::default();
    let mut ledger = Ledger::default();
    while ctx.more_passes(passes.len(), NOMINAL_PASS_S, passes.last().map_or(0.0, |p| p.driver_wall_ns / 1e9)) {
        let k = passes.len();
        let traced = ctx.pass_traced(k);
        let tr = if traced { &ctx.tracer } else { &off };
        let mut p = Pass { traced, ..Pass::default() };
        let pass_t0 = Instant::now();
        tr.span("bench", "bench.pass", || {
            let mut s = None;
            for _ in 0..SETUPS_PER_PASS {
                s = Some(setup(tr, ctx, &matrix, n, &mut p, &mut ledger, &mut rep));
            }
            let Setup { svc, sessions } = s.expect("at least one set-up");
            let samples = measure(tr, ctx, k, &svc, &sessions, &matrix, n, &mut p, &mut ledger, &mut rep);
            if traced {
                drain_spans(tr, &svc, &mut p);
            }
            tr.span("kdr-service", "service.drop", || drop(svc));
            resolve(tr, &samples, &control(), &mut resolved, &mut rep);
        });
        p.driver_wall_ns = pass_t0.elapsed().as_nanos() as f64;
        passes.push(p);
    }
    ledger.close(&mut rep);
    ledger.checks(&mut rep);
    rep.check(
        "sampled residual histories match a plain Planner bit for bit",
        resolved.mismatches == 0 && resolved.resolved > 0,
        format!("{} of {} sampled jobs differ", resolved.mismatches, resolved.resolved),
    );
    report(ctx, &mut rep, &passes, &resolved, floor);
    rep
}

/// Move the runtime's logged task spans into the pass's statistics.
/// The runtime keeps submit records until drained, so traced passes
/// drain every [`DRAIN_EVERY_SLICES`] slices (a fence each time).
fn drain_spans(tr: &Tracer, svc: &SolveService, p: &mut Pass) {
    let spans = tr.span("kdr-runtime", "runtime.take_spans", || svc.runtime().take_spans());
    p.counters.tasks.absorb(&spans);
}

/// One closed-loop client: a tenant, its session, and its progress.
struct Client {
    tenant: TenantId,
    session: SessionId,
    sent: usize,
    /// The tenant's `busy_seconds` when its job in flight was sent.
    busy_at: f64,
    /// The job re-solved on a plain planner, with its RHS.
    sampled: Option<(usize, Vec<f64>)>,
}

/// What every send in one pass's closed loop shares.
struct Sender<'a> {
    tr: &'a Tracer,
    svc: &'a SolveService,
    seed: u64,
    pass: u64,
    n: u64,
}

impl Sender<'_> {
    /// Submit the client's next job.
    fn send(&self, c: &mut Client, p: &mut Pass, ledger: &mut Ledger, rep: &mut Report) {
        let (t, j) = (c.tenant, c.sent);
        c.sent += 1;
        let rhs = rhs_vector::<f64>(self.n, input_seed(self.seed, 2, (self.pass << 32) | (u64::from(t) << 16) | j as u64));
        let mut req = SolveRequest::new(c.session, rhs.clone(), control());
        // One job per tenant per pass is re-solved on a plain planner.
        if j == (mix(self.seed ^ (self.pass << 8) ^ u64::from(t)) % JOBS_PER_SESSION as u64) as usize {
            req.capture_history = true;
            c.sampled = Some((j, rhs));
        }
        rep.attempted += 1;
        let t0 = Instant::now();
        let res = self.tr.span_id("kdr-service", "service.submit", (u64::from(t) << 16) | j as u64, || self.svc.submit(t, req));
        p.submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        match res {
            Ok(job) => ledger.admit(job, t0, Expect::Converged, j),
            Err(_) => ledger.rejected += 1,
        }
    }
}

/// The closed loop: every tenant keeps exactly one job in flight.
#[allow(clippy::too_many_arguments)]
fn measure(
    tr: &Tracer,
    ctx: &Ctx,
    pass: usize,
    svc: &SolveService,
    sessions: &[(TenantId, SessionId)],
    matrix: &Arc<dyn SparseMatrix<f64>>,
    n: u64,
    p: &mut Pass,
    ledger: &mut Ledger,
    rep: &mut Report,
) -> Vec<Sample> {
    let total = sessions.len() * JOBS_PER_SESSION;
    let sender = Sender { tr, svc, seed: ctx.seed, pass: pass as u64, n };
    let metrics = || tr.span("kdr-service", "service.metrics", || svc.metrics());
    let runtime = svc.runtime();
    let rt_metrics = || tr.span("kdr-runtime", "runtime.metrics", || runtime.metrics());
    let mut samples = Vec::new();

    let m0 = metrics();
    let mut clients: BTreeMap<TenantId, Client> = sessions
        .iter()
        .map(|&(tenant, session)| {
            let busy_at = m0.get(&tenant).map_or(0.0, |m| m.busy_seconds);
            (tenant, Client { tenant, session, sent: 0, busy_at, sampled: None })
        })
        .collect();
    let t_meas = Instant::now();
    let rt0 = rt_metrics();
    let mut rt_prev = rt0.clone();
    for c in clients.values_mut() {
        sender.send(c, p, ledger, rep);
    }
    let mut done = 0usize;
    let mut quarter = 0usize;
    while done < total && ledger.outstanding() > 0 {
        let t0 = Instant::now();
        let ran = tr.span("kdr-service", "service.run_slices", || svc.run_slices(1));
        p.slice_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if p.traced && p.slice_us.len().is_multiple_of(DRAIN_EVERY_SLICES) {
            drain_spans(tr, svc, p);
        }
        if ran == 0 {
            break;
        }
        let responses = tr.span("kdr-service", "service.take_responses", || svc.take_responses());
        if responses.is_empty() {
            continue;
        }
        let m = metrics();
        for r in responses {
            let Some(d) = tr.span("bench", "bench.check", || ledger.deliver(&r, TOL)) else { continue };
            let Some(c) = clients.get_mut(&r.tenant) else { continue };
            done += 1;
            p.ok_jobs += 1;
            p.latency_ms.push(d.latency_ms);
            p.queue_wait_ms.push(r.queue_wait.as_secs_f64() * 1e3);
            p.ttfi_warm_ms.extend(r.time_to_first_iteration.map(|x| x.as_secs_f64() * 1e3));
            let busy = m.get(&r.tenant).map_or(0.0, |x| x.busy_seconds);
            p.iter_us.push((busy - c.busy_at) * 1e6 / r.iterations as f64);
            p.iters.push(r.iterations as f64);
            c.busy_at = busy;
            if c.sampled.as_ref().is_some_and(|s| s.0 == d.input) {
                let (_, rhs) = c.sampled.take().expect("checked above");
                samples.push(Sample {
                    matrix: Arc::clone(matrix),
                    n,
                    pieces: PIECES,
                    rhs,
                    history: r.residual_history.clone(),
                    iterations: r.iterations,
                });
            }
            if c.sent < JOBS_PER_SESSION {
                sender.send(c, p, ledger, rep);
            }
        }
        // Session-aging probe: runtime counters per quarter of jobs.
        while quarter < 4 && done * 4 >= total * (quarter + 1) {
            let now = rt_metrics();
            p.counters.quarters[quarter] = RtDelta::between(&rt_prev, &now);
            rt_prev = now;
            quarter += 1;
        }
    }
    p.measured_s = t_meas.elapsed().as_secs_f64();
    p.counters.rt = RtDelta::between(&rt0, &rt_prev);
    let m1 = metrics();
    let delta = |f: &dyn Fn(&TenantMetrics) -> f64| -> Vec<f64> {
        sessions.iter().map(|(t, _)| f(&m1[t]) - m0.get(t).map_or(0.0, f)).collect()
    };
    p.slices = delta(&|m| m.slices as f64).iter().sum::<f64>() as u64;
    p.busy_s = delta(&|m| m.busy_seconds).iter().sum();
    let iters = delta(&|m| m.iterations as f64);
    let lo = iters.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = iters.iter().copied().fold(0.0, f64::max);
    p.fairness = ratio(hi, lo);
    samples
}

fn report(ctx: &Ctx, rep: &mut Report, passes: &[Pass], resolved: &ResolveStats, floor: Option<(f64, usize)>) {
    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    // One value per pass; the reported value is their median.
    let jobs_per_s = |ps: &[&Pass]| gather(ps, |p| vec![p.ok_jobs as f64 / p.measured_s]);
    let p50_ms = |ps: &[&Pass]| gather(ps, |p| vec![quarter_median(&p.latency_ms)]);
    let iter_us = |ps: &[&Pass]| gather(ps, |p| vec![quarter_median(&p.iter_us)]);

    let untraced_iter_us = iter_us(&plain);
    let untraced_jobs_per_s = jobs_per_s(&plain);
    rep.e2e_timed("setup_s", "s", &gather(&plain, |p| p.setup_s.clone()), "service + 8 sessions + one warm-up job each");
    rep.e2e_timed("jobs_per_s", "1/s", &untraced_jobs_per_s, "per pass: measured jobs converged / measured wall, 8 closed-loop clients; median over passes");
    rep.e2e_timed("job_p50_ms", "ms", &p50_ms(&plain), "submit -> response; per pass: geometric mean of the p50s of the four quarters of its jobs in completion order; median over passes");
    rep.extra_timed("job_latency_ms", "ms", &gather(&plain, |p| p.latency_ms.clone()), "submit -> response, every measured job of every pass");
    // A pooled tail is set by the worst pass; the median over passes
    // of each pass's p90 is not.
    let p90s = gather(&plain, |p| vec![percentile(&p.latency_ms, 90.0)]);
    rep.extra_timed("job_p90_ms", "ms", &p90s, "median over passes of the pass's nearest-rank p90; submit -> response");
    rep.e2e_timed("iter_us", "us", &untraced_iter_us, "per job: the tenant's slice time during the job / iterations; per pass and over passes as job_p50_ms");
    rep.e2e_timed("ttfi_cold_ms", "ms", &gather(&plain, |p| p.ttfi_cold_ms.clone()), "warm-up job on a fresh session (SolveResponse)");
    rep.e2e("peak_rss_mb", "MiB", peak_rss_mb(), "VmHWM of the run");
    rep.extra_timed("ttfi_warm_ms", "ms", &gather(&plain, |p| p.ttfi_warm_ms.clone()), "measured jobs on warm sessions (SolveResponse)");

    let src = if ctx.trace { &traced } else { &plain };
    service_extras(rep, src);
    if !ctx.trace {
        return;
    }
    crate::layers::runtime_and_core(
        rep,
        crate::layers::Shared {
            counters: &Counters::merged(traced.iter().map(|p| &p.counters)),
            iterations: gather(&traced, |p| p.iters.clone()).iter().sum(),
            measured_ns: traced.iter().map(|p| p.measured_s * 1e9).sum(),
            iters_per_job: median(&gather(&traced, |p| p.iters.clone())),
            fences_per_iter: median(&resolved.fences_per_iter),
            reduction_stall_frac: ratio(resolved.reduction_stall_ns, resolved.solve_ns),
            trace_hit_rate: median(&resolved.trace_hit_rate),
            step_us: &resolved.step_us,
            finalize_ms: &resolved.finalize_ms,
            job_iter_us_in_order: &traced.iter().map(|p| p.iter_us.clone()).collect::<Vec<_>>(),
            traced_iter_us: median(&iter_us(&traced)),
            untraced_iter_us: median(&untraced_iter_us),
            traced_jobs_per_s: median(&jobs_per_s(&traced)),
            untraced_jobs_per_s: median(&untraced_jobs_per_s),
        },
    );
    if let Some((floor_us, floor_iters)) = floor {
        crate::layers::floor(rep, floor_us, floor_iters, median(&untraced_iter_us), median(&gather(&plain, |p| p.iters.clone())), "24^2 serial CSR CG");
    }
    rep.layer_self_times(&ctx.tracer, traced.iter().map(|p| p.driver_wall_ns).sum());
}

/// `service.*` and session-aging metrics of the passes in `ps`.
fn service_extras(rep: &mut Report, ps: &[&Pass]) {
    let jobs: f64 = ps.iter().map(|p| p.ok_jobs as f64).sum();
    let measured: f64 = ps.iter().map(|p| p.measured_s).sum();
    rep.extra_timed("service.submit_us_p50", "us", &gather(ps, |p| p.submit_us.clone()), "SolveService::submit wall");
    rep.extra_timed("service.queue_wait_ms_p50", "ms", &gather(ps, |p| p.queue_wait_ms.clone()), "SolveResponse::queue_wait");
    rep.extra_timed("service.slice_us_p50", "us", &gather(ps, |p| p.slice_us.clone()), "run_slices(1) wall");
    rep.extra("service.slices_per_job", "count", ratio(ps.iter().map(|p| p.slices as f64).sum(), jobs), "TenantMetrics::slices delta / measured jobs");
    rep.extra("service.busy_frac", "frac", ratio(ps.iter().map(|p| p.busy_s).sum(), measured), "sum of TenantMetrics::busy_seconds / measured wall");
    rep.extra("service.fairness", "ratio", median(&gather(ps, |p| vec![p.fairness])), "max / min tenant iterations over the measured phase");
    crate::layers::aging_extras(rep, &Counters::merged(ps.iter().map(|p| &p.counters)));
}
