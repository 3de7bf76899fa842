//! Observability demo: run traced CG with event logging enabled and
//! export everything the runtime saw.
//!
//! Produces:
//! * `results/cg_trace.json` — Chrome `trace_event` JSON; open it at
//!   <https://ui.perfetto.dev> or in `chrome://tracing` to see one
//!   lane per worker with a slice per task.
//! * stdout — the `MetricsSnapshot`/[`ExecMetrics`] counters, the
//!   per-phase summary table, the solver-level phase split, and the
//!   critical-path estimate with its parallelism bound.
//!
//! Usage: `cargo run --release -p kdr-bench --bin observability`

use std::sync::Arc;

use kdr_core::{
    solve_traced, CgSolver, ExecBackend, ExecMetrics, PhaseSplit, Planner, SolveControl,
};
use kdr_index::Partition;
use kdr_runtime::{chrome_trace_json, critical_path, phase_summary, TaskSpan};
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{SparseMatrix, Stencil};

fn main() {
    let nx = 128;
    let pieces = 16;
    let stencil = Stencil::lap2d(nx, nx);
    let n = stencil.unknowns();
    let matrix: Arc<dyn SparseMatrix<f64>> = Arc::new(stencil.to_csr::<f64, u32>());

    let backend = ExecBackend::<f64>::with_default_workers();
    backend.set_event_logging(true);
    let workers = backend.runtime().num_workers();
    let mut planner = Planner::new(Box::new(backend));
    let part = Partition::equal_blocks(n, pieces);
    let d = planner.add_sol_vector(n, Some(part.clone()));
    let r = planner.add_rhs_vector(n, Some(part));
    planner.add_operator(matrix, d, r);
    planner.set_rhs_data(r, &rhs_vector::<f64>(n, 42));

    let mut solver = CgSolver::new(&mut planner);
    let control = SolveControl {
        max_iters: 2000,
        tol: 1e-10,
        check_every: 25,
        ..SolveControl::default()
    };
    let (outcome, trace) = solve_traced(&mut planner, &mut solver, control);
    let report = outcome.expect("solve failed");

    let (spans, metrics): (Vec<TaskSpan>, ExecMetrics) = planner.with_backend(|b| {
        let exec = b
            .as_any()
            .downcast_mut::<ExecBackend<f64>>()
            .expect("exec backend");
        (exec.take_spans(), exec.metrics())
    });

    println!(
        "cg on lap2d {nx}x{nx}, {pieces} pieces, {workers} workers: \
         {} iters, converged={}, residual={:.3e}",
        report.iters, report.converged, report.final_residual
    );
    println!(
        "steps: analyzed={} (uncached={}) captured={} replayed={} (trace hit rate {:.1}%)",
        metrics.steps_analyzed,
        metrics.steps_uncached,
        metrics.steps_captured,
        metrics.steps_replayed,
        100.0 * metrics.trace_hit_rate()
    );
    println!(
        "tasks: submitted={} analyzed={} replayed={} stolen={} | \
         scalar arena {}/{} slots live | events recorded={} dropped={}",
        metrics.runtime.tasks_submitted,
        metrics.runtime.tasks_analyzed,
        metrics.runtime.tasks_replayed,
        metrics.runtime.tasks_stolen,
        metrics.scalar_slots - metrics.scalar_free,
        metrics.scalar_slots,
        metrics.runtime.events_recorded,
        metrics.runtime.events_dropped,
    );
    println!(
        "latency: queue-wait p50={}ns p99={}ns | execute p50={}ns p99={}ns",
        metrics.runtime.queue_wait_ns.quantile(0.5),
        metrics.runtime.queue_wait_ns.quantile(0.99),
        metrics.runtime.execute_ns.quantile(0.5),
        metrics.runtime.execute_ns.quantile(0.99),
    );

    println!("\nper-phase summary (from {} spans):", spans.len());
    print!("{}", phase_summary(&spans));

    let split = PhaseSplit::from_spans(&spans);
    println!("\nsolver phase split:");
    for (phase, frac) in split.fractions() {
        println!("  {:>13}: {:>5.1}%", format!("{phase:?}"), 100.0 * frac);
    }

    let cp = critical_path(&spans);
    println!(
        "\ncritical path: {:.3} ms of {:.3} ms total work -> parallelism {:.1} ({} tasks on path)",
        cp.length_ns as f64 / 1e6,
        cp.total_work_ns as f64 / 1e6,
        cp.parallelism(),
        cp.path.len()
    );

    if let Some((it, res)) = trace.residual_history.last() {
        println!(
            "residual history: {} checks, last at iter {} -> {:.3e}",
            trace.residual_history.len(),
            it,
            res
        );
    }

    let json = chrome_trace_json(&spans);
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/cg_trace.json", &json).expect("write trace");
    println!(
        "\nwrote results/cg_trace.json ({} bytes) — open in https://ui.perfetto.dev",
        json.len()
    );
}
