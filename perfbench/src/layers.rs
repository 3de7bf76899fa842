//! Per-layer metrics every workload reports the same way: runtime and
//! core counters, the session-aging quarters, tracing overhead, and
//! the serial floor.

use crate::common::{Report, RtDelta, TaskStats, WORKERS};
use crate::stats::{median, percentile, ratio};

/// Runtime counters over the measured jobs of one or more passes.
#[derive(Default)]
pub struct Counters {
    pub rt: RtDelta,
    /// `rt` split by quarter of the measured jobs (session-aging probe).
    pub quarters: [RtDelta; 4],
    pub tasks: TaskStats,
}

impl Counters {
    /// Account the counter delta of job `i` of `n` measured jobs.
    pub fn add_job(&mut self, i: usize, n: usize, d: &RtDelta) {
        self.rt.add(d);
        self.quarters[i * 4 / n.max(1)].add(d);
    }

    pub fn merged<'a>(all: impl IntoIterator<Item = &'a Counters>) -> Counters {
        let mut out = Counters::default();
        for c in all {
            out.rt.add(&c.rt);
            for (q, d) in out.quarters.iter_mut().zip(&c.quarters) {
                q.add(d);
            }
            out.tasks.queue_wait_us.extend(&c.tasks.queue_wait_us);
            out.tasks.execute_us.extend(&c.tasks.execute_us);
            out.tasks.execute_ns_sum += c.tasks.execute_ns_sum;
        }
        out
    }
}

/// Inputs for [`runtime_and_core`], all taken from a run's traced
/// passes unless named `untraced_*`.
pub struct Shared<'a> {
    pub counters: &'a Counters,
    /// Solver iterations behind `counters`.
    pub iterations: f64,
    /// Measured-phase wall time behind `counters`, ns.
    pub measured_ns: f64,
    pub iters_per_job: f64,
    pub fences_per_iter: f64,
    pub reduction_stall_frac: f64,
    pub trace_hit_rate: f64,
    pub step_us: &'a [f64],
    pub finalize_ms: &'a [f64],
    /// Per pass, each measured job's µs/iteration in completion order.
    pub job_iter_us_in_order: &'a [Vec<f64>],
    pub traced_iter_us: f64,
    pub untraced_iter_us: f64,
    pub traced_jobs_per_s: f64,
    pub untraced_jobs_per_s: f64,
}

pub fn runtime_and_core(rep: &mut Report, s: Shared) {
    let (rt, tasks) = (&s.counters.rt, &s.counters.tasks);
    rep.layer("runtime.tasks_per_iter", "count", ratio(rt.submitted as f64, s.iterations), &format!("{} tasks / {} iterations", rt.submitted, s.iterations));
    rep.layer("runtime.replay_frac", "frac", rt.replay_frac(), &format!("{} replayed of {} submitted", rt.replayed, rt.submitted));
    rep.layer("runtime.analysis_ns_per_task", "ns", rt.analysis_ns_per_task(), &format!("{} ns over {} analyzed tasks", rt.analysis_ns, rt.analyzed));
    rep.layer("runtime.edges_per_task", "count", rt.edges_per_task(), &format!("{} edges / {} analyzed tasks", rt.edges, rt.analyzed));
    for (q, d) in s.counters.quarters.iter().enumerate() {
        rep.layer(&format!("runtime.replay_frac_q{}", q + 1), "frac", d.replay_frac(), &format!("quarter {} of measured jobs: {} of {} tasks replayed", q + 1, d.replayed, d.submitted));
    }
    for (q, d) in s.counters.quarters.iter().enumerate() {
        rep.layer(&format!("runtime.analysis_ns_per_task_q{}", q + 1), "ns", d.analysis_ns_per_task(), &format!("quarter {} of measured jobs: {} analyzed tasks", q + 1, d.analyzed));
    }
    let qw = &tasks.queue_wait_us;
    rep.layer("runtime.queue_wait_p50_us", "us", median(qw), &format!("ready -> start over {} task spans", qw.len()));
    rep.layer("runtime.queue_wait_p99_us", "us", percentile(qw, 99.0), &format!("nearest-rank p99 over {} task spans", qw.len()));
    rep.layer_timed("runtime.execute_p50_us", "us", &tasks.execute_us, "start -> end per task span");
    rep.layer("runtime.busy_frac", "frac", ratio(tasks.execute_ns_sum, WORKERS as f64 * s.measured_ns), &format!("task execute time / ({WORKERS} workers x measured wall)"));
    rep.layer("runtime.steal_frac", "frac", rt.steal_frac(), &format!("{} stolen of {} executed", rt.stolen, rt.executed));

    rep.layer("core.iters_per_job", "count", s.iters_per_job, "median solver iterations per job; any change means the numerics changed");
    rep.layer("core.fences_per_iter", "count", s.fences_per_iter, "reduction stages per solver step (ExecMetrics)");
    rep.layer("core.reduction_stall_frac", "frac", s.reduction_stall_frac, "driver ns blocked on reductions / solve wall");
    rep.layer("core.trace_hit_rate", "frac", s.trace_hit_rate, "replayed steps / all steps");
    rep.layer_timed("core.step_us_p50", "us", s.step_us, "submit window of one solver iteration (IterationRecord::wall_ns)");
    rep.layer_timed("core.finalize_ms", "ms", s.finalize_ms, "Planner::finalize");

    let (mut early, mut late) = (Vec::new(), Vec::new());
    for jobs in s.job_iter_us_in_order {
        let n = jobs.len();
        for (i, &v) in jobs.iter().enumerate() {
            match i * 4 / n.max(1) {
                0 => early.push(v),
                3 => late.push(v),
                _ => {}
            }
        }
    }
    let (e, l) = (median(&early), median(&late));
    rep.layer("service.late_over_early", "ratio", ratio(l, e), &format!("median iter_us of last quarter of jobs {l:.3} / first quarter {e:.3}"));

    rep.layer("trace.iter_us_ratio", "ratio", ratio(s.traced_iter_us, s.untraced_iter_us), &format!("traced {:.3} us / untraced {:.3} us", s.traced_iter_us, s.untraced_iter_us));
    rep.layer("trace.jobs_per_s_ratio", "ratio", ratio(s.traced_jobs_per_s, s.untraced_jobs_per_s), &format!("traced {:.3} / untraced {:.3} jobs/s", s.traced_jobs_per_s, s.untraced_jobs_per_s));
}

/// The session-aging quarters of an untraced run, for the detail
/// report (the traced run reports them as per-layer metrics).
pub fn aging_extras(rep: &mut Report, c: &Counters) {
    for (q, d) in c.quarters.iter().enumerate() {
        rep.extra(&format!("aging.replay_frac_q{}", q + 1), "frac", d.replay_frac(), &format!("{} of {} tasks", d.replayed, d.submitted));
        rep.extra(&format!("aging.analysis_ns_per_task_q{}", q + 1), "ns", d.analysis_ns_per_task(), &format!("{} analyzed tasks", d.analyzed));
    }
}

/// `floor.*`: the serial CG floor next to the runtime's iteration
/// cost and iteration count.
pub fn floor(rep: &mut Report, floor_iter_us: f64, floor_iters: usize, iter_us: f64, runtime_iters: f64, what: &str) {
    rep.layer("floor.iter_us", "us", floor_iter_us, what);
    rep.layer("floor.iters", "count", floor_iters as f64, &format!("serial CG iterations (checked every iteration); runtime: {runtime_iters}"));
    rep.layer("floor.ratio", "ratio", ratio(iter_us, floor_iter_us), &format!("untraced iter_us {iter_us:.3} / floor.iter_us {floor_iter_us:.3}"));
}
