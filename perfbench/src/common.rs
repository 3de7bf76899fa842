//! What every workload shares: run context, seeds, metric records,
//! runtime-counter deltas, the plain-planner reference solve, and the
//! result report.

use std::sync::Arc;
use std::time::Instant;

use kdr_core::{solve_traced, CgSolver, ExecBackend, Planner, SolveControl, SolveOutcome, SolveTrace, SOL};
use kdr_index::Partition;
use kdr_runtime::MetricsSnapshot;
use kdr_sparse::SparseMatrix;

use crate::span::{Tracer, LAYERS};
use crate::stats::{num, ratio, Summary};

/// Runtime worker threads per runtime (the host's `nproc`).
pub const WORKERS: usize = 2;

/// Command-line run parameters plus the driver-thread span recorder.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub start: Instant,
    pub tracer: Tracer,
}

impl Ctx {
    /// Pass kind for pass `k`: untraced runs never trace; traced runs
    /// alternate untraced (even) and traced (odd) passes so the
    /// tracing overhead is measured within the run.
    pub fn pass_traced(&self, k: usize) -> bool {
        self.trace && k % 2 == 1
    }

    /// Whether to run pass number `done`. The pass count is fixed by
    /// `--seconds` and the workload's nominal pass length, not by the
    /// clock, so every run of a workload does the same work: at least
    /// two passes in a traced run (one of each kind), one otherwise.
    /// Only a host more than 1.25× slower than nominal cuts a run short.
    pub fn more_passes(&self, done: usize, nominal_pass_s: f64, last_pass_s: f64) -> bool {
        let min = if self.trace { 2 } else { 1 };
        let planned = ((self.seconds / nominal_pass_s).floor() as usize).max(min);
        let late = self.start.elapsed().as_secs_f64() + last_pass_s > 1.25 * self.seconds;
        done < min || (done < planned && !late)
    }
}

/// SplitMix64: the benchmark's only source of input randomness.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seed of input `index` within `stream` for the run seed.
pub fn input_seed(seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(seed ^ stream.wrapping_mul(0x100_0000_01b3)) ^ index)
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Every pass's samples of one quantity, concatenated.
pub fn gather<P>(passes: &[&P], f: impl Fn(&P) -> Vec<f64>) -> Vec<f64> {
    passes.iter().flat_map(|p| f(p)).collect()
}

/// Counter deltas of one runtime over an interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct RtDelta {
    pub submitted: u64,
    pub executed: u64,
    pub analyzed: u64,
    pub replayed: u64,
    pub stolen: u64,
    pub edges: u64,
    pub analysis_ns: u64,
}

impl RtDelta {
    pub fn between(a: &MetricsSnapshot, b: &MetricsSnapshot) -> RtDelta {
        RtDelta {
            submitted: b.tasks_submitted.saturating_sub(a.tasks_submitted),
            executed: b.tasks_executed.saturating_sub(a.tasks_executed),
            analyzed: b.tasks_analyzed.saturating_sub(a.tasks_analyzed),
            replayed: b.tasks_replayed.saturating_sub(a.tasks_replayed),
            stolen: b.tasks_stolen.saturating_sub(a.tasks_stolen),
            edges: b.edges_created.saturating_sub(a.edges_created),
            analysis_ns: b.analysis_ns.saturating_sub(a.analysis_ns),
        }
    }

    pub fn add(&mut self, o: &RtDelta) {
        self.submitted += o.submitted;
        self.executed += o.executed;
        self.analyzed += o.analyzed;
        self.replayed += o.replayed;
        self.stolen += o.stolen;
        self.edges += o.edges;
        self.analysis_ns += o.analysis_ns;
    }

    pub fn replay_frac(&self) -> f64 {
        ratio(self.replayed as f64, self.submitted as f64)
    }

    pub fn analysis_ns_per_task(&self) -> f64 {
        ratio(self.analysis_ns as f64, self.analyzed as f64)
    }

    pub fn edges_per_task(&self) -> f64 {
        ratio(self.edges as f64, self.analyzed as f64)
    }

    pub fn steal_frac(&self) -> f64 {
        ratio(self.stolen as f64, self.executed as f64)
    }
}

/// Worker-side task statistics from captured runtime spans.
#[derive(Default)]
pub struct TaskStats {
    pub queue_wait_us: Vec<f64>,
    pub execute_us: Vec<f64>,
    pub execute_ns_sum: f64,
}

impl TaskStats {
    pub fn absorb(&mut self, spans: &[kdr_runtime::TaskSpan]) {
        for s in spans {
            self.queue_wait_us.push(s.queue_wait_ns() as f64 / 1e3);
            let e = s.execute_ns();
            self.execute_us.push(e as f64 / 1e3);
            self.execute_ns_sum += e as f64;
        }
    }
}

/// A session-shaped plain planner: `pieces` equal blocks, one
/// operator, exactly as the service builds its sessions.
pub fn plain_planner(
    matrix: &Arc<dyn SparseMatrix<f64>>,
    n: u64,
    pieces: usize,
    events: bool,
) -> Planner<f64> {
    let backend = ExecBackend::<f64>::new(WORKERS);
    backend.set_event_logging(events);
    let mut planner = Planner::new(Box::new(backend));
    let part = Partition::equal_blocks(n, pieces);
    let d = planner.add_sol_vector(n, Some(part.clone()));
    let r = planner.add_rhs_vector(n, Some(part));
    planner.add_operator(Arc::clone(matrix), d, r);
    planner
}

/// One CG solve on a finalized-or-fresh planner, shaped like a
/// service job: install the RHS, zero the iterate, build the solver,
/// solve, read the solution, release the workspace.
pub struct CoreSolve {
    pub outcome: SolveOutcome,
    pub trace: SolveTrace,
    pub x: Vec<f64>,
    /// RHS install + zero + solver construction, ns.
    pub prologue_ns: u64,
    pub wall_s: f64,
}

pub fn core_solve(tr: &Tracer, planner: &mut Planner<f64>, rhs: &[f64], control: SolveControl, id: u64) -> CoreSolve {
    let t0 = Instant::now();
    let (mut solver, mark) = tr.span_id("kdr-core", "core.prologue", id, || {
        planner.set_rhs_data(0, rhs);
        let mark = planner.workspace_mark();
        if mark > 0 {
            planner.zero(SOL);
        }
        (CgSolver::new(planner), mark)
    });
    let prologue_ns = t0.elapsed().as_nanos() as u64;
    let (outcome, trace) = tr.span_id("kdr-core", "core.solve", id, || solve_traced(planner, &mut solver, control));
    let x = tr.span_id("kdr-core", "core.read", id, || {
        let x = planner.read_component(SOL, 0);
        planner.release_workspace_from(mark.max(kdr_core::RHS + 1));
        x
    });
    CoreSolve {
        outcome,
        trace,
        x,
        prologue_ns,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// `ExecMetrics` of a planner's `ExecBackend`.
pub fn exec_metrics(planner: &mut Planner<f64>) -> kdr_core::ExecMetrics {
    planner.with_backend(|b| {
        b.as_any()
            .downcast_mut::<ExecBackend<f64>>()
            .expect("planner runs on ExecBackend")
            .metrics()
    })
}

/// Captured runtime task spans of a planner's `ExecBackend`.
pub fn exec_spans(planner: &mut Planner<f64>) -> Vec<kdr_runtime::TaskSpan> {
    planner.with_backend(|b| {
        b.as_any()
            .downcast_mut::<ExecBackend<f64>>()
            .expect("planner runs on ExecBackend")
            .take_spans()
    })
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Sample statistics behind a timed value.
    pub summary: Option<Summary>,
    /// What a ratio is relative to (its base), or what a count counts.
    pub note: String,
}

/// Everything one run reports.
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// `(check, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Workload-specific metrics outside the declared sets.
    pub extra: Vec<Metric>,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            extra: Vec::new(),
        }
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), ok, detail.into()));
    }

    fn push(list: &mut Vec<Metric>, name: &str, unit: &'static str, value: f64, summary: Option<Summary>, note: &str) {
        list.push(Metric {
            name: name.to_string(),
            unit,
            value,
            summary,
            note: note.to_string(),
        });
    }

    /// A timed end-to-end metric: its value is the samples' median.
    pub fn e2e_timed(&mut self, name: &str, unit: &'static str, samples: &[f64], note: &str) {
        let s = Summary::of(samples);
        Self::push(&mut self.end_to_end, name, unit, s.median, Some(s), note);
    }

    pub fn e2e(&mut self, name: &str, unit: &'static str, value: f64, note: &str) {
        Self::push(&mut self.end_to_end, name, unit, value, None, note);
    }

    pub fn e2e_with(&mut self, name: &str, unit: &'static str, value: f64, samples: &[f64], note: &str) {
        Self::push(&mut self.end_to_end, name, unit, value, Some(Summary::of(samples)), note);
    }

    pub fn layer_timed(&mut self, name: &str, unit: &'static str, samples: &[f64], note: &str) {
        let s = Summary::of(samples);
        Self::push(&mut self.per_layer, name, unit, s.median, Some(s), note);
    }

    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64, note: &str) {
        Self::push(&mut self.per_layer, name, unit, value, None, note);
    }

    pub fn extra_timed(&mut self, name: &str, unit: &'static str, samples: &[f64], note: &str) {
        let s = Summary::of(samples);
        Self::push(&mut self.extra, name, unit, s.median, Some(s), note);
    }

    pub fn extra(&mut self, name: &str, unit: &'static str, value: f64, note: &str) {
        Self::push(&mut self.extra, name, unit, value, None, note);
    }

    /// Driver-thread self time per layer as shares of the traced
    /// passes' driver wall time, plus the reconciliation error
    /// against an independently clocked wall time.
    pub fn layer_self_times(&mut self, tr: &Tracer, driver_wall_ns: f64) {
        let times = tr.self_times_ns();
        let total: f64 = times.iter().map(|&t| t as f64).sum();
        for (layer, &t) in LAYERS.iter().zip(times.iter()) {
            let name = format!("self.{}", layer.replace("::", "."));
            let note = format!("{:.3} ms of {:.3} ms driver wall", t as f64 / 1e6, driver_wall_ns / 1e6);
            self.layer(&name, "frac", ratio(t as f64, driver_wall_ns), &note);
        }
        let err = ((total - driver_wall_ns) / driver_wall_ns).abs();
        self.layer(
            "self.reconcile_err",
            "frac",
            err,
            &format!("|sum of layer self times {:.3} ms - driver wall| / driver wall", total / 1e6),
        );
        self.check(
            "self times add up to driver wall",
            err <= SELF_TIME_TOLERANCE,
            format!("error {:.5} (tolerance {SELF_TIME_TOLERANCE})", err),
        );
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.1)
    }

    fn metric_json(m: &Metric) -> String {
        let summary = m.summary.as_ref().map_or("null".to_string(), Summary::json);
        format!(
            "{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"summary\": {summary}, \"note\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit,
            m.note.replace('"', "'")
        )
    }

    /// Print the human-readable report, write the detail file, and
    /// print the result line. Returns whether the run was correct.
    pub fn finish(&self, ctx: &Ctx) -> bool {
        let correct = self.correct();
        println!("workload {} seed {} trace {}", self.workload, ctx.seed, ctx.trace as u8);
        for (name, ok, detail) in &self.checks {
            println!("  check {:<44} {} {}", name, if *ok { "ok  " } else { "FAIL" }, detail);
        }
        let sections = [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
            ("workload-specific", &self.extra),
        ];
        for (title, list) in sections {
            if list.is_empty() {
                continue;
            }
            println!("  {title}:");
            for m in list.iter() {
                let s = m.summary.as_ref().map_or(String::new(), |s| format!("  [{}]", s.text()));
                let note = if m.note.is_empty() { String::new() } else { format!("  ({})", m.note) };
                println!("    {:<34} {:>14.6} {:<6}{s}{note}", m.name, m.value, m.unit);
            }
        }
        println!(
            "  attempted {} failed {} failed_frac {} correct {}",
            self.attempted,
            self.failed,
            ratio(self.failed as f64, self.attempted as f64),
            correct
        );

        let dir = std::path::Path::new(OUT_DIR);
        let _ = std::fs::create_dir_all(dir);
        let list_json = |l: &Vec<Metric>| l.iter().map(Self::metric_json).collect::<Vec<_>>().join(",\n    ");
        let checks = self
            .checks
            .iter()
            .map(|(n, ok, d)| format!("{{\"check\": \"{n}\", \"ok\": {ok}, \"detail\": \"{}\"}}", d.replace('"', "'")))
            .collect::<Vec<_>>()
            .join(",\n    ");
        let detail = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {correct}, \"attempted\": {}, \
             \"failed\": {}, \"checks\": [\n    {checks}\n  ], \"end_to_end\": [\n    {}\n  ], \
             \"per_layer\": [\n    {}\n  ], \"workload_specific\": [\n    {}\n  ]}}\n",
            self.workload,
            ctx.seed,
            ctx.trace as u8,
            self.attempted,
            self.failed,
            list_json(&self.end_to_end),
            list_json(&self.per_layer),
            list_json(&self.extra)
        );
        let file = dir.join(format!("{}-seed{}-trace{}.json", self.workload, ctx.seed, ctx.trace as u8));
        if std::fs::write(&file, detail).is_ok() {
            println!("  wrote {}", file.display());
        }
        if ctx.trace {
            let trace_file = dir.join(format!("{}-seed{}-spans.json", self.workload, ctx.seed));
            if std::fs::write(&trace_file, ctx.tracer.chrome_trace()).is_ok() {
                println!("  wrote {} ({} driver spans)", trace_file.display(), ctx.tracer.len());
            }
        }

        let declared = if ctx.trace { &self.per_layer } else { &self.end_to_end };
        let metrics = declared
            .iter()
            .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        );
        correct
    }
}

/// Where detail reports and Chrome traces go, relative to the
/// directory the benchmark runs from.
pub const OUT_DIR: &str = ".bench_out";

/// Allowed |Σ layer self time − driver wall| / driver wall.
pub const SELF_TIME_TOLERANCE: f64 = 0.01;
