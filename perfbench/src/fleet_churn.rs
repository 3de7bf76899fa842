//! `fleet_churn`: a `ShardedService` of 2 shards × 1 worker with a
//! cost catalogue and 32 tenants. Waves of 16 jobs, 288 jobs in all,
//! each on a **fresh** session (16², 32², 48² Lap2D CSR, cycling, 4
//! pieces, CG to 1e-10). One job per wave is cancelled right after
//! submit; `add_shard` runs at one third of the jobs and
//! `kill_shard(0)` mid-wave at two thirds. At the end the fleet is
//! saved (`save_store`), reopened (`open_store`), and one replay wave
//! runs on the restored sessions. Cold paths dominate.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use kdr_core::SolveControl;
use kdr_machine::MachineConfig;
use kdr_runtime::MetricsSnapshot;
use kdr_service::{
    CancelOutcome, JobId, ServiceConfig, SessionId, SessionSpec, ShardConfig, ShardedService, SolveRequest, SolverKind, TenantId,
    TenantMetrics,
};
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{SparseMatrix, Stencil};
use kdr_store::SharedCatalogue;

use crate::common::{gather, input_seed, mix, peak_rss_mb, Ctx, Report, RtDelta, OUT_DIR};
use crate::layers::Counters;
use crate::floor::SerialCsr;
use crate::ledger::{resolve, Expect, Ledger, ResolveStats, Sample};
use crate::probes;
use crate::span::Tracer;
use crate::stats::{median, percentile, ratio};

const GRIDS: [u64; 3] = [16, 32, 48];
const PIECES: usize = 4;
const SHARDS: usize = 2;
const WORKERS_PER_SHARD: usize = 1;
const TENANTS: u32 = 32;
const WAVE: usize = 16;
const JOBS: usize = 288;
const TOL: f64 = 1e-10;
/// Scheduler slices per shard per `run_rounds` round.
const SLICES_PER_ROUND: usize = 4;
/// Fleet set-ups per pass; `setup_s` is their median.
const SETUPS_PER_PASS: usize = 9;
/// 18 waves, save, reopen, and the replay wave on the reference host.
const NOMINAL_PASS_S: f64 = 6.5;

fn control() -> SolveControl {
    SolveControl::to_tolerance(TOL, 4000)
}

struct Operator {
    matrix: Arc<dyn SparseMatrix<f64>>,
    n: u64,
}

#[derive(Default)]
struct Pass {
    traced: bool,
    setup_s: Vec<f64>,
    waves_s: f64,
    ok_jobs: u64,
    latency_ms: Vec<f64>,
    iter_us: Vec<f64>,
    iter_us_skipped: u64,
    iters: Vec<f64>,
    ttfi_cold_ms: Vec<f64>,
    ttfi_warm_ms: Vec<f64>,
    reopen_s: f64,
    create_session_us: Vec<f64>,
    submit_us: Vec<f64>,
    round_ms: Vec<f64>,
    kill_ms: f64,
    add_shard_ms: f64,
    resubmitted: u64,
    evacuated: u64,
    save_ms: f64,
    open_ms: f64,
    store_bytes: u64,
    catalogue_hits: u64,
    catalogue_misses: u64,
    prediction_error_pct: f64,
    counters: Counters,
    driver_wall_ns: f64,
}

fn config(ctx: &Ctx, traced: bool, catalogue: Option<SharedCatalogue>) -> ShardConfig {
    ShardConfig {
        shards: SHARDS,
        base: ServiceConfig {
            workers: WORKERS_PER_SHARD,
            queue_capacity: 64,
            slice_iters: 8,
            seed: ctx.seed,
            capture_events: traced,
            catalogue,
            ..ServiceConfig::default()
        },
        ..ShardConfig::default()
    }
}

fn setup(tr: &Tracer, ctx: &Ctx, traced: bool) -> (ShardedService, f64) {
    let t0 = Instant::now();
    let catalogue = tr.span("kdr-store", "store.catalogue", || SharedCatalogue::new(MachineConfig::lassen(1)));
    let fleet = tr.span("kdr-service::sharded", "fleet.new", || ShardedService::new(config(ctx, traced, Some(catalogue))));
    for t in 1..=TENANTS {
        tr.span("kdr-service::sharded", "fleet.register_tenant", || fleet.register_tenant(t, 1));
    }
    (fleet, t0.elapsed().as_secs_f64())
}

/// Runtime snapshots of every live shard.
fn shard_snapshots(tr: &Tracer, fleet: &ShardedService) -> BTreeMap<usize, MetricsSnapshot> {
    tr.span("kdr-runtime", "runtime.metrics", || {
        (0..fleet.shard_count())
            .filter(|&i| matches!(fleet.shard_status(i), Some(s) if s.is_healthy()))
            .map(|i| (i, fleet.shard(i).runtime().metrics()))
            .collect()
    })
}

/// Counter deltas summed over the shards live at both snapshots.
fn fleet_delta(a: &BTreeMap<usize, MetricsSnapshot>, b: &BTreeMap<usize, MetricsSnapshot>) -> RtDelta {
    let mut d = RtDelta::default();
    for (i, sb) in b {
        if let Some(sa) = a.get(i) {
            d.add(&RtDelta::between(sa, sb));
        }
    }
    d
}

pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::new("fleet_churn");
    let ops: Vec<Operator> = GRIDS
        .iter()
        .map(|&g| {
            let s = Stencil::lap2d(g, g);
            Operator {
                matrix: Arc::new(s.to_csr::<f64, u64>()),
                n: s.unknowns(),
            }
        })
        .collect();

    let mut floors = Vec::new();
    if ctx.trace {
        let mid = &ops[1];
        probes::sparse_and_index(&mut rep, &mid.matrix, mid.n, PIECES, "32^2 Lap2D, 4 pieces");
        probes::task_floor(&mut rep);
        for op in &ops {
            let serial = SerialCsr::from_matrix(op.matrix.as_ref());
            let b = rhs_vector::<f64>(op.n, input_seed(ctx.seed, 9, op.n));
            floors.push(probes::floor_cg(&serial, &b, TOL, 0.1));
        }
    }

    let off = Tracer::new(false);
    let mut passes: Vec<Pass> = Vec::new();
    let mut resolved = ResolveStats::default();
    let mut ledger = Ledger::default();
    let mut cancels_ok = true;
    while ctx.more_passes(passes.len(), NOMINAL_PASS_S, passes.last().map_or(0.0, |p| p.driver_wall_ns / 1e9)) {
        let k = passes.len();
        let traced = ctx.pass_traced(k);
        let tr = if traced { &ctx.tracer } else { &off };
        let mut p = Pass { traced, ..Pass::default() };
        let pass_t0 = Instant::now();
        tr.span("bench", "bench.pass", || {
            let mut fleet = None;
            for _ in 0..SETUPS_PER_PASS {
                let (f, s) = setup(tr, ctx, traced);
                p.setup_s.push(s);
                fleet = Some(f);
            }
            let fleet = fleet.expect("at least one set-up");
            let mut samples = Vec::new();
            let sessions = waves(tr, ctx, k, &fleet, &ops, &mut p, &mut ledger, &mut rep, &mut samples, &mut cancels_ok);
            reopen(tr, ctx, k, fleet, &ops, &sessions, &mut p, &mut ledger, &mut rep, &mut samples);
            resolve(tr, &samples, &control(), &mut resolved, &mut rep);
        });
        p.driver_wall_ns = pass_t0.elapsed().as_nanos() as f64;
        passes.push(p);
    }
    ledger.close(&mut rep);
    ledger.checks(&mut rep);
    rep.check("every cancel_job right after submit returned Cancelled", cancels_ok, "");
    rep.check(
        "sampled residual histories match a plain Planner bit for bit",
        resolved.mismatches == 0 && resolved.resolved > 0,
        format!("{} of {} sampled jobs differ (incl. killed-and-resubmitted and reopened jobs)", resolved.mismatches, resolved.resolved),
    );
    report(ctx, &mut rep, &passes, &resolved, &floors, &ops);
    rep
}

/// The 18 waves. Returns the sessions of the last wave, `(tenant,
/// session, operator)`, for the replay wave after reopening.
#[allow(clippy::too_many_arguments)]
fn waves(
    tr: &Tracer,
    ctx: &Ctx,
    pass: usize,
    fleet: &ShardedService,
    ops: &[Operator],
    p: &mut Pass,
    ledger: &mut Ledger,
    rep: &mut Report,
    samples: &mut Vec<Sample>,
    cancels_ok: &mut bool,
) -> Vec<(TenantId, SessionId, usize)> {
    let waves = JOBS / WAVE;
    let mut last = Vec::new();
    let mut snaps = shard_snapshots(tr, fleet);
    let t_waves = Instant::now();
    for w in 0..waves {
        if w == waves / 3 {
            let t = Instant::now();
            tr.span("kdr-service::sharded", "fleet.add_shard", || fleet.add_shard());
            p.add_shard_ms = t.elapsed().as_secs_f64() * 1e3;
        }
        let m0 = tr.span("kdr-service::sharded", "fleet.metrics", || fleet.metrics());
        let cancelled = (mix(ctx.seed ^ ((pass as u64) << 16) ^ w as u64) % WAVE as u64) as usize;
        let sampled = (cancelled + 1 + (mix(ctx.seed.wrapping_add(w as u64)) % (WAVE as u64 - 1)) as usize) % WAVE;
        let mut jobs: BTreeMap<JobId, (TenantId, usize, Vec<f64>, bool)> = BTreeMap::new();
        last.clear();
        for i in 0..WAVE {
            let j = w * WAVE + i;
            let tenant = ((j % TENANTS as usize) + 1) as TenantId;
            let op = j % ops.len();
            let rhs = rhs_vector::<f64>(ops[op].n, input_seed(ctx.seed, 4, ((pass as u64) << 32) | j as u64));
            let spec = SessionSpec {
                matrix: Arc::clone(&ops[op].matrix),
                unknowns: ops[op].n,
                pieces: PIECES,
                solver: SolverKind::Cg,
                stencil: None,
            };
            rep.attempted += 1;
            let t = Instant::now();
            let sid = match tr.span_id("kdr-service::sharded", "fleet.create_session", j as u64, || fleet.create_session(tenant, spec)) {
                Ok(sid) => sid,
                Err(_) => {
                    ledger.rejected += 1;
                    continue;
                }
            };
            p.create_session_us.push(t.elapsed().as_secs_f64() * 1e6);
            last.push((tenant, sid, op));
            let mut req = SolveRequest::new(sid, rhs.clone(), control());
            req.capture_history = i == sampled;
            let t = Instant::now();
            let res = tr.span_id("kdr-service::sharded", "fleet.submit", j as u64, || fleet.submit(tenant, req));
            p.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            let Ok(job) = res else {
                ledger.rejected += 1;
                continue;
            };
            let expect = if i == cancelled { Expect::CancelledOrConverged } else { Expect::Converged };
            ledger.admit(job, t, expect, op);
            jobs.insert(job, (tenant, op, rhs, i == sampled));
            if i == cancelled {
                let outcome = tr.span_id("kdr-service::sharded", "fleet.cancel_job", j as u64, || fleet.cancel_job(job));
                *cancels_ok &= outcome == CancelOutcome::Cancelled;
            }
        }
        let kill_wave = w == 2 * waves / 3;
        let mut rounds = 0usize;
        let mut pending = jobs.len();
        while pending > 0 {
            let t = Instant::now();
            let ran = tr.span("kdr-service::sharded", "fleet.run_rounds", || fleet.run_rounds(1, SLICES_PER_ROUND));
            p.round_ms.push(t.elapsed().as_secs_f64() * 1e3);
            rounds += 1;
            if kill_wave && rounds == 2 {
                let t = Instant::now();
                tr.span("kdr-service::sharded", "fleet.kill_shard", || fleet.kill_shard(0));
                p.kill_ms = t.elapsed().as_secs_f64() * 1e3;
            }
            let responses = tr.span("kdr-service::sharded", "fleet.take_responses", || fleet.take_responses());
            if !responses.is_empty() {
                let m = tr.span("kdr-service::sharded", "fleet.metrics", || fleet.metrics());
                for r in responses {
                    let Some(d) = tr.span("bench", "bench.check", || ledger.deliver(&r, TOL)) else { continue };
                    pending -= 1;
                    p.ok_jobs += 1;
                    let Some((tenant, op, rhs, sample)) = jobs.remove(&r.job) else { continue };
                    if d.cancelled {
                        continue;
                    }
                    p.latency_ms.push(d.latency_ms);
                    p.iters.push(r.iterations as f64);
                    p.ttfi_cold_ms.extend(r.time_to_first_iteration.map(|x| x.as_secs_f64() * 1e3));
                    let busy = |mm: &BTreeMap<TenantId, TenantMetrics>| mm.get(&tenant).map_or(0.0, |x| x.busy_seconds);
                    let service_s = busy(&m) - busy(&m0);
                    if r.retries == 0 && service_s > 0.0 {
                        p.iter_us.push(service_s * 1e6 / r.iterations as f64);
                    } else {
                        p.iter_us_skipped += 1;
                    }
                    if sample {
                        samples.push(Sample {
                            matrix: Arc::clone(&ops[op].matrix),
                            n: ops[op].n,
                            pieces: PIECES,
                            rhs,
                            history: r.residual_history.clone(),
                            iterations: r.iterations,
                        });
                    }
                }
            }
            if ran == 0 {
                break;
            }
        }
        let now = shard_snapshots(tr, fleet);
        p.counters.add_job(w, waves, &fleet_delta(&snaps, &now));
        snaps = now;
    }
    p.waves_s = t_waves.elapsed().as_secs_f64();
    let stats = tr.span("kdr-service::sharded", "fleet.supervisor_stats", || fleet.supervisor_stats());
    if stats.kills != 1 || stats.shards_added != 1 {
        rep.check("add_shard and kill_shard(0) each ran once", false, format!("{stats:?}"));
    }
    p.resubmitted = stats.jobs_resubmitted;
    p.evacuated = stats.tenants_evacuated;
    let m = tr.span("kdr-service::sharded", "fleet.metrics", || fleet.metrics());
    p.catalogue_hits = m.values().map(|x| x.catalogue_hits).sum();
    p.catalogue_misses = m.values().map(|x| x.catalogue_misses).sum();
    let mut merged = TenantMetrics::default();
    for x in m.values() {
        merged.merge(x);
    }
    p.prediction_error_pct = merged.prediction_error_pct().unwrap_or(f64::NAN);
    if p.traced {
        for i in 0..fleet.shard_count() {
            if matches!(fleet.shard_status(i), Some(s) if s.is_healthy()) {
                let groups = tr.span("kdr-service", "service.span_groups", || fleet.shard(i).span_groups());
                for (_, spans) in &groups {
                    p.counters.tasks.absorb(spans);
                }
            }
        }
    }
    last
}

/// Save the fleet, reopen it, and run one replay wave on the restored
/// sessions of the last wave.
#[allow(clippy::too_many_arguments)]
fn reopen(
    tr: &Tracer,
    ctx: &Ctx,
    pass: usize,
    fleet: ShardedService,
    ops: &[Operator],
    sessions: &[(TenantId, SessionId, usize)],
    p: &mut Pass,
    ledger: &mut Ledger,
    rep: &mut Report,
    samples: &mut Vec<Sample>,
) {
    let path = PathBuf::from(OUT_DIR).join(format!("fleet_churn-{}-{pass}.store", std::process::id()));
    let _ = std::fs::create_dir_all(OUT_DIR);
    let t = Instant::now();
    let saved = tr.span("kdr-store", "store.save", || fleet.save_store(&path));
    p.save_ms = t.elapsed().as_secs_f64() * 1e3;
    p.store_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    tr.span("kdr-service::sharded", "fleet.drop", || drop(fleet));
    if saved.is_err() {
        rep.check("save_store succeeded", false, format!("{saved:?}"));
        rep.failed += 1;
        return;
    }

    let t_reopen = Instant::now();
    let opened = tr.span("kdr-store", "store.open", || ShardedService::open_store(&path, config(ctx, p.traced, None)));
    p.open_ms = t_reopen.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_file(&path);
    let fleet = match opened {
        Ok(f) => f,
        Err(e) => {
            rep.check("open_store succeeded", false, format!("{e:?}"));
            rep.failed += 1;
            return;
        }
    };
    let mut jobs: BTreeMap<JobId, (usize, Vec<f64>)> = BTreeMap::new();
    for (i, &(tenant, sid, op)) in sessions.iter().enumerate() {
        let rhs = rhs_vector::<f64>(ops[op].n, input_seed(ctx.seed, 5, ((pass as u64) << 32) | i as u64));
        let mut req = SolveRequest::new(sid, rhs.clone(), control());
        req.capture_history = i % 8 == 0;
        rep.attempted += 1;
        let t = Instant::now();
        match tr.span_id("kdr-service::sharded", "fleet.submit", (JOBS + i) as u64, || fleet.submit(tenant, req)) {
            Ok(job) => {
                ledger.admit(job, t, Expect::Converged, op);
                jobs.insert(job, (op, rhs));
            }
            Err(_) => ledger.rejected += 1,
        }
    }
    let mut pending = jobs.len();
    let mut idle = false;
    while pending > 0 && !idle {
        idle = tr.span("kdr-service::sharded", "fleet.run_rounds", || fleet.run_rounds(1, SLICES_PER_ROUND)) == 0;
        for r in tr.span("kdr-service::sharded", "fleet.take_responses", || fleet.take_responses()) {
            if tr.span("bench", "bench.check", || ledger.deliver(&r, TOL)).is_none() {
                continue;
            }
            pending -= 1;
            p.ttfi_warm_ms.extend(r.time_to_first_iteration.map(|x| x.as_secs_f64() * 1e3));
            if let Some((op, rhs)) = jobs.remove(&r.job) {
                if !r.residual_history.is_empty() {
                    samples.push(Sample {
                        matrix: Arc::clone(&ops[op].matrix),
                        n: ops[op].n,
                        pieces: PIECES,
                        rhs,
                        history: r.residual_history.clone(),
                        iterations: r.iterations,
                    });
                }
            }
        }
    }
    p.reopen_s = t_reopen.elapsed().as_secs_f64();
    tr.span("kdr-service::sharded", "fleet.drop", || drop(fleet));
}

fn report(ctx: &Ctx, rep: &mut Report, passes: &[Pass], resolved: &ResolveStats, floors: &[(f64, usize)], ops: &[Operator]) {
    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let jobs_per_s = |ps: &[&Pass]| ratio(ps.iter().map(|p| p.ok_jobs as f64).sum(), ps.iter().map(|p| p.waves_s).sum());

    let iter_us = gather(&plain, |p| p.iter_us.clone());
    let latency = gather(&plain, |p| p.latency_ms.clone());
    rep.e2e_timed("setup_s", "s", &gather(&plain, |p| p.setup_s.clone()), "catalogue + fleet of 2 shards + 32 tenants");
    rep.e2e_with("jobs_per_s", "1/s", jobs_per_s(&plain), &gather(&plain, |p| vec![p.ok_jobs as f64 / p.waves_s]), "jobs at their expected outcome / wall of the 18 waves");
    rep.e2e_timed("job_p50_ms", "ms", &latency, "submit -> response, cancelled jobs excluded");
    // A pooled tail is set by the worst pass; the median over passes
    // of each pass's p90 is not.
    let p90s = gather(&plain, |p| vec![percentile(&p.latency_ms, 90.0)]);
    rep.extra_timed("job_p90_ms", "ms", &p90s, "median over passes of the pass's nearest-rank p90; submit -> response");
    let skipped: u64 = plain.iter().map(|p| p.iter_us_skipped).sum();
    rep.e2e_timed("iter_us", "us", &iter_us, &format!("median over jobs of the tenant's slice time during the job / iterations; {skipped} killed-and-resubmitted jobs left out"));
    rep.e2e_timed("ttfi_cold_ms", "ms", &gather(&plain, |p| p.ttfi_cold_ms.clone()), "fresh-session jobs (SolveResponse)");
    rep.e2e("peak_rss_mb", "MiB", peak_rss_mb(), "VmHWM of the run");
    rep.extra_timed("ttfi_warm_ms", "ms", &gather(&plain, |p| p.ttfi_warm_ms.clone()), "replay wave on sessions restored by open_store (SolveResponse)");

    let src = if ctx.trace { &traced } else { &plain };
    rep.extra_timed("reopen_s", "s", &gather(src, |p| vec![p.reopen_s]), "open_store + one replay wave of 16 jobs");
    rep.extra_timed("fleet.create_session_us_p50", "us", &gather(src, |p| p.create_session_us.clone()), "ShardedService::create_session wall");
    rep.extra_timed("fleet.submit_us_p50", "us", &gather(src, |p| p.submit_us.clone()), "ShardedService::submit wall");
    rep.extra_timed("fleet.round_ms", "ms", &gather(src, |p| p.round_ms.clone()), &format!("run_rounds(1, {SLICES_PER_ROUND}) wall"));
    rep.extra_timed("fleet.kill_ms", "ms", &gather(src, |p| vec![p.kill_ms]), "kill_shard(0) mid-wave");
    rep.extra_timed("fleet.add_shard_ms", "ms", &gather(src, |p| vec![p.add_shard_ms]), "add_shard at one third of the jobs");
    rep.extra("fleet.resubmitted", "count", median(&gather(src, |p| vec![p.resubmitted as f64])), "SupervisorStats::jobs_resubmitted per pass");
    rep.extra("fleet.evacuated", "count", median(&gather(src, |p| vec![p.evacuated as f64])), "SupervisorStats::tenants_evacuated per pass");
    rep.extra_timed("store.save_ms", "ms", &gather(src, |p| vec![p.save_ms]), "save_store");
    rep.extra_timed("store.open_ms", "ms", &gather(src, |p| vec![p.open_ms]), "open_store");
    rep.extra("store.bytes", "B", median(&gather(src, |p| vec![p.store_bytes as f64])), "store file size");
    let hits: u64 = src.iter().map(|p| p.catalogue_hits).sum();
    let misses: u64 = src.iter().map(|p| p.catalogue_misses).sum();
    rep.extra("store.catalogue_hit_frac", "frac", ratio(hits as f64, (hits + misses) as f64), &format!("{hits} hits of {} predictions", hits + misses));
    rep.extra("store.prediction_error_pct", "%", median(&gather(src, |p| vec![p.prediction_error_pct])), "mean |predicted - actual| / actual (TenantMetrics)");
    crate::layers::aging_extras(rep, &Counters::merged(src.iter().map(|p| &p.counters)));

    if !ctx.trace {
        return;
    }
    crate::layers::runtime_and_core(
        rep,
        crate::layers::Shared {
            counters: &Counters::merged(traced.iter().map(|p| &p.counters)),
            iterations: gather(&traced, |p| p.iters.clone()).iter().sum(),
            measured_ns: traced.iter().map(|p| p.waves_s * 1e9).sum(),
            iters_per_job: median(&gather(&traced, |p| p.iters.clone())),
            fences_per_iter: median(&resolved.fences_per_iter),
            reduction_stall_frac: ratio(resolved.reduction_stall_ns, resolved.solve_ns),
            trace_hit_rate: median(&resolved.trace_hit_rate),
            step_us: &resolved.step_us,
            finalize_ms: &resolved.finalize_ms,
            job_iter_us_in_order: &traced.iter().map(|p| p.iter_us.clone()).collect::<Vec<_>>(),
            traced_iter_us: median(&gather(&traced, |p| p.iter_us.clone())),
            untraced_iter_us: median(&iter_us),
            traced_jobs_per_s: jobs_per_s(&traced),
            untraced_jobs_per_s: jobs_per_s(&plain),
        },
    );
    if !floors.is_empty() {
        let what = ops
            .iter()
            .zip(floors)
            .map(|(o, f)| format!("n={}: {:.3} us/iter, {} iters", o.n, f.0, f.1))
            .collect::<Vec<_>>()
            .join("; ");
        let floor_us = median(&floors.iter().map(|f| f.0).collect::<Vec<_>>());
        let floor_iters = median(&floors.iter().map(|f| f.1 as f64).collect::<Vec<_>>()) as usize;
        let iters = median(&gather(&plain, |p| p.iters.clone()));
        crate::layers::floor(rep, floor_us, floor_iters, median(&iter_us), iters, &format!("median over the three grids ({what})"));
    }
    rep.layer_self_times(&ctx.tracer, traced.iter().map(|p| p.driver_wall_ns).sum());
}
