//! `large_3d`: the library path. One `Planner` over an `ExecBackend`
//! with two workers solves 64³ Lap3D7 (assembled CSR, lowered by the
//! planner) in 16 pieces, CG to 1e-8 checked every 10 iterations, for
//! six right-hand sides one after another. Kernel bandwidth dominates;
//! the runtime and service do little.
//!
//! End-to-end values are per-pass statistics, reported as their median
//! over the run's passes, so a pass the host slowed down moves them
//! little.

use std::sync::Arc;
use std::time::Instant;

use kdr_core::SolveControl;
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{SparseMatrix, Stencil};

use crate::common::{core_solve, exec_metrics, exec_spans, gather, input_seed, peak_rss_mb, plain_planner, Ctx, Report, RtDelta};
use crate::layers::Counters;
use crate::floor::SerialCsr;
use crate::probes;
use crate::span::Tracer;
use crate::stats::{median, percentile, ratio};

const GRID: u64 = 64;
const PIECES: usize = 16;
const RHS_PER_PASS: usize = 6;
/// Planner set-up plus six solves on the reference host.
const NOMINAL_PASS_S: f64 = 4.5;
const TOL: f64 = 1e-8;
/// Bound on the true relative residual `‖b − Ax‖/‖b‖` of every solve.
const TRUE_RESIDUAL_BOUND: f64 = 1e-9;

fn control() -> SolveControl {
    SolveControl {
        max_iters: 5000,
        tol: TOL,
        check_every: 10,
        ..SolveControl::default()
    }
}

#[derive(Default)]
struct Pass {
    traced: bool,
    setup_s: f64,
    finalize_ms: f64,
    measured_s: f64,
    ok_solves: u64,
    /// Per solve, in order.
    wall_ms: Vec<f64>,
    iters: Vec<f64>,
    ttfi_ms: Vec<f64>,
    counters: Counters,
    step_us: Vec<f64>,
    fences_per_iter: f64,
    trace_hit_rate: f64,
    reduction_stall_ns: u64,
    driver_wall_ns: f64,
}

impl Pass {
    fn iter_us(&self) -> Vec<f64> {
        self.wall_ms.iter().zip(&self.iters).map(|(w, i)| w * 1e3 / i).collect()
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::new("large_3d");
    let stencil = Stencil::lap3d7(GRID, GRID, GRID);
    let n = stencil.unknowns();
    let matrix: Arc<dyn SparseMatrix<f64>> = Arc::new(stencil.to_csr::<f64, u64>());
    let serial = SerialCsr::from_matrix(matrix.as_ref());

    let mut floor = None;
    if ctx.trace {
        probes::sparse_and_index(&mut rep, &matrix, n, PIECES, "64^3 Lap3D7, 16 pieces");
        probes::task_floor(&mut rep);
        let b = rhs_vector::<f64>(n, input_seed(ctx.seed, 9, 0));
        floor = Some(probes::floor_cg(&serial, &b, TOL, 0.0));
    }

    let off = Tracer::new(false);
    let mut passes: Vec<Pass> = Vec::new();
    while ctx.more_passes(passes.len(), NOMINAL_PASS_S, passes.last().map_or(0.0, |p| p.driver_wall_ns / 1e9)) {
        let k = passes.len();
        let traced = ctx.pass_traced(k);
        let tr = if traced { &ctx.tracer } else { &off };
        let rhs: Vec<Vec<f64>> = (0..RHS_PER_PASS)
            .map(|i| rhs_vector::<f64>(n, input_seed(ctx.seed, 1, (k * RHS_PER_PASS + i) as u64)))
            .collect();
        let mut p = Pass { traced, ..Pass::default() };
        let pass_t0 = Instant::now();
        tr.span("bench", "bench.pass", || {
            let t0 = Instant::now();
            let mut planner = tr.span("kdr-core", "core.build", || plain_planner(&matrix, n, PIECES, traced));
            let tf = Instant::now();
            tr.span("kdr-core", "core.finalize", || planner.finalize());
            p.finalize_ms = tf.elapsed().as_secs_f64() * 1e3;
            p.setup_s = t0.elapsed().as_secs_f64();

            let m0 = tr.span("kdr-core", "core.metrics", || exec_metrics(&mut planner));
            let mut prev = m0.runtime.clone();
            let t_meas = Instant::now();
            for (i, b) in rhs.iter().enumerate() {
                rep.attempted += 1;
                let id = (k * RHS_PER_PASS + i) as u64;
                let cs = core_solve(tr, &mut planner, b, control(), id);
                let now = tr.span("kdr-runtime", "runtime.metrics", || exec_metrics(&mut planner).runtime);
                p.counters.add_job(i, RHS_PER_PASS, &RtDelta::between(&prev, &now));
                prev = now;
                let true_res = tr.span("bench", "bench.check", || serial.relative_residual(b, &cs.x));
                let ok = match &cs.outcome {
                    Ok(r) => r.converged && true_res <= TRUE_RESIDUAL_BOUND,
                    Err(_) => false,
                };
                if !ok {
                    rep.failed += 1;
                    rep.check(format!("solve {id} converged, true residual"), false, format!("{:?}, ‖b−Ax‖/‖b‖ = {true_res:e}", cs.outcome));
                    continue;
                }
                p.ok_solves += 1;
                let iters = cs.trace.iterations.len();
                p.wall_ms.push(cs.wall_s * 1e3);
                p.iters.push(iters as f64);
                let first = cs.trace.iterations.first().map_or(0, |r| r.wall_ns);
                p.ttfi_ms.push((cs.prologue_ns + first) as f64 / 1e6);
                p.step_us.extend(cs.trace.iterations.iter().map(|r| r.wall_ns as f64 / 1e3));
            }
            p.measured_s = t_meas.elapsed().as_secs_f64();
            let m1 = tr.span("kdr-core", "core.metrics", || exec_metrics(&mut planner));
            p.fences_per_iter = m1.fences_per_iteration;
            let steps = |m: &kdr_core::ExecMetrics| m.steps_analyzed + m.steps_captured + m.steps_replayed;
            p.trace_hit_rate = ratio((m1.steps_replayed - m0.steps_replayed) as f64, (steps(&m1) - steps(&m0)) as f64);
            p.reduction_stall_ns = m1.reduction_stall_ns - m0.reduction_stall_ns;
            if traced {
                let spans = tr.span("kdr-core", "core.take_spans", || exec_spans(&mut planner));
                p.counters.tasks.absorb(&spans);
            }
            tr.span("kdr-core", "core.drop", || drop(planner));
        });
        p.driver_wall_ns = pass_t0.elapsed().as_nanos() as f64;
        passes.push(p);
    }

    report(ctx, &mut rep, &passes, floor);
    rep
}

fn report(ctx: &Ctx, rep: &mut Report, passes: &[Pass], floor: Option<(f64, usize)>) {
    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    // One value per pass; the reported value is their median.
    let jobs_per_s = |ps: &[&Pass]| gather(ps, |p| vec![p.ok_solves as f64 / p.measured_s]);
    let iter_us = |ps: &[&Pass]| gather(ps, |p| vec![median(&p.iter_us())]);
    rep.check("every solve converged with true residual bound", rep.failed == 0, format!("‖b−Ax‖/‖b‖ ≤ {TRUE_RESIDUAL_BOUND:e} on {} solves", rep.attempted));

    let untraced_iter_us = iter_us(&plain);
    let untraced_jobs_per_s = jobs_per_s(&plain);
    rep.e2e_timed("setup_s", "s", &gather(&plain, |p| vec![p.setup_s]), "planner build + finalize, one per pass");
    rep.e2e_timed("jobs_per_s", "1/s", &untraced_jobs_per_s, "per pass: right-hand sides solved per second; median over passes");
    rep.e2e_timed("job_p50_ms", "ms", &gather(&plain, |p| vec![median(&p.wall_ms)]), "per-RHS solve time; per pass: median of its solves; median over passes");
    rep.extra_timed("job_latency_ms", "ms", &gather(&plain, |p| p.wall_ms.clone()), "per-RHS solve time, every solve of every pass");
    // A pooled tail is set by the worst pass; the median over passes
    // of each pass's p90 is not.
    let p90s = gather(&plain, |p| vec![percentile(&p.wall_ms, 90.0)]);
    rep.extra_timed("job_p90_ms", "ms", &p90s, "median over passes of the pass's nearest-rank p90; per-RHS solve time; a pass has 6 solves, so its p90 is its slowest");
    rep.e2e_timed("iter_us", "us", &untraced_iter_us, "per solve: solve wall / iterations; per pass: median of its solves; median over passes");
    // Like a cold service session, the first solve pays the lowering
    // (finalize) before its first iteration.
    let cold = gather(&plain, |p| p.ttfi_ms.first().map(|t| p.finalize_ms + t).into_iter().collect());
    rep.e2e_timed("ttfi_cold_ms", "ms", &cold, "fresh planner: finalize + first solve's prologue + first iteration");
    rep.e2e("peak_rss_mb", "MiB", peak_rss_mb(), "VmHWM of the run");
    rep.extra_timed("ttfi_warm_ms", "ms", &gather(&plain, |p| p.ttfi_ms[1.min(p.ttfi_ms.len())..].to_vec()), "later solves: prologue + first iteration");

    if !ctx.trace {
        return;
    }
    let measured_ns: f64 = traced.iter().map(|p| p.measured_s * 1e9).sum();
    crate::layers::runtime_and_core(
        rep,
        crate::layers::Shared {
            counters: &Counters::merged(traced.iter().map(|p| &p.counters)),
            iterations: gather(&traced, |p| p.iters.clone()).iter().sum(),
            measured_ns,
            iters_per_job: median(&gather(&traced, |p| p.iters.clone())),
            fences_per_iter: median(&gather(&traced, |p| vec![p.fences_per_iter])),
            reduction_stall_frac: ratio(traced.iter().map(|p| p.reduction_stall_ns as f64).sum(), measured_ns),
            trace_hit_rate: median(&gather(&traced, |p| vec![p.trace_hit_rate])),
            step_us: &gather(&traced, |p| p.step_us.clone()),
            finalize_ms: &gather(&traced, |p| vec![p.finalize_ms]),
            job_iter_us_in_order: &traced.iter().map(|p| p.iter_us()).collect::<Vec<_>>(),
            traced_iter_us: median(&iter_us(&traced)),
            untraced_iter_us: median(&untraced_iter_us),
            traced_jobs_per_s: median(&jobs_per_s(&traced)),
            untraced_jobs_per_s: median(&untraced_jobs_per_s),
        },
    );
    if let Some((floor_us, floor_iters)) = floor {
        crate::layers::floor(rep, floor_us, floor_iters, median(&untraced_iter_us), median(&gather(&plain, |p| p.iters.clone())), "64^3 serial CSR CG");
    }
    rep.layer_self_times(&ctx.tracer, traced.iter().map(|p| p.driver_wall_ns).sum());
}
