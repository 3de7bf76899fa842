//! Output checks shared by the service workloads: an exactly-once job
//! ledger and the plain-planner re-solve of sampled jobs.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use kdr_core::SolveControl;
use kdr_service::{JobId, JobOutcome, SolveResponse};
use kdr_sparse::SparseMatrix;

use crate::common::{core_solve, exec_metrics, plain_planner, Report};
use crate::span::Tracer;

/// The outcome a job must reach.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    Converged,
    /// Cancelled right after submit: `Cancelled`, or `Converged` if it
    /// finished first.
    CancelledOrConverged,
}

struct Pending {
    submitted: Instant,
    expect: Expect,
    /// Index into the caller's input table, for re-solve sampling.
    input: usize,
}

/// Every admitted job, until its single response arrives.
#[derive(Default)]
pub struct Ledger {
    pending: BTreeMap<JobId, Pending>,
    delivered: BTreeSet<JobId>,
    pub lost: u64,
    pub duplicated: u64,
    pub unexpected: u64,
    pub rejected: u64,
}

/// A response that passed the ledger, with its measured latency.
pub struct Delivered {
    pub latency_ms: f64,
    pub input: usize,
    pub cancelled: bool,
}

impl Ledger {
    pub fn admit(&mut self, job: JobId, submitted: Instant, expect: Expect, input: usize) {
        self.pending.insert(job, Pending { submitted, expect, input });
    }

    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Account one response; `None` when it fails a check (unknown or
    /// duplicated job, unexpected outcome).
    pub fn deliver(&mut self, r: &SolveResponse, tol: f64) -> Option<Delivered> {
        let Some(p) = self.pending.remove(&r.job) else {
            if self.delivered.contains(&r.job) {
                self.duplicated += 1;
            } else {
                self.unexpected += 1;
            }
            return None;
        };
        self.delivered.insert(r.job);
        let converged = matches!(r.outcome, JobOutcome::Converged { final_residual } if final_residual < tol)
            && r.iterations > 0;
        let cancelled = matches!(r.outcome, JobOutcome::Cancelled { .. });
        let ok = match p.expect {
            Expect::Converged => converged,
            Expect::CancelledOrConverged => converged || cancelled,
        };
        if !ok {
            self.unexpected += 1;
            return None;
        }
        Some(Delivered {
            latency_ms: p.submitted.elapsed().as_secs_f64() * 1e3,
            input: p.input,
            cancelled,
        })
    }

    /// Close the books: whatever is still pending was lost.
    pub fn close(&mut self, rep: &mut Report) {
        self.lost += self.pending.len() as u64;
        self.pending.clear();
        rep.failed += self.lost + self.duplicated + self.unexpected + self.rejected;
    }

    pub fn checks(&self, rep: &mut Report) {
        rep.check("zero lost responses", self.lost == 0, format!("{} lost", self.lost));
        rep.check("zero duplicated responses", self.duplicated == 0, format!("{} duplicated", self.duplicated));
        rep.check("every job reached its expected outcome", self.unexpected == 0, format!("{} unexpected", self.unexpected));
        rep.check("zero rejected submits", self.rejected == 0, format!("{} rejected", self.rejected));
    }
}

/// One sampled job to re-solve on a plain planner.
pub struct Sample {
    pub matrix: Arc<dyn SparseMatrix<f64>>,
    pub n: u64,
    pub pieces: usize,
    pub rhs: Vec<f64>,
    pub history: Vec<(usize, f64)>,
    pub iterations: u64,
}

/// What the plain-planner re-solves saw, for the `core.*` metrics.
#[derive(Default)]
pub struct ResolveStats {
    pub finalize_ms: Vec<f64>,
    pub step_us: Vec<f64>,
    pub fences_per_iter: Vec<f64>,
    pub trace_hit_rate: Vec<f64>,
    pub reduction_stall_ns: f64,
    pub solve_ns: f64,
    pub mismatches: u64,
    pub resolved: u64,
}

fn history_bits(h: &[(usize, f64)]) -> Vec<(usize, u64)> {
    h.iter().map(|&(i, v)| (i, v.to_bits())).collect()
}

/// Re-solve every sample on a fresh plain `Planner` and compare the
/// residual histories bit for bit.
pub fn resolve(tr: &Tracer, samples: &[Sample], control: &SolveControl, stats: &mut ResolveStats, rep: &mut Report) {
    for (i, s) in samples.iter().enumerate() {
        let mut planner = tr.span("kdr-core", "core.build", || plain_planner(&s.matrix, s.n, s.pieces, false));
        let t = Instant::now();
        tr.span("kdr-core", "core.finalize", || planner.finalize());
        stats.finalize_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let mut control = control.clone();
        control.cancel_token = None;
        let cs = core_solve(tr, &mut planner, &s.rhs, control, i as u64);
        let m = tr.span("kdr-core", "core.metrics", || exec_metrics(&mut planner));
        stats.step_us.extend(cs.trace.iterations.iter().map(|r| r.wall_ns as f64 / 1e3));
        stats.fences_per_iter.push(m.fences_per_iteration);
        stats.trace_hit_rate.push(m.trace_hit_rate());
        stats.reduction_stall_ns += m.reduction_stall_ns as f64;
        stats.solve_ns += cs.wall_s * 1e9;
        stats.resolved += 1;
        let same = history_bits(&cs.trace.residual_history) == history_bits(&s.history)
            && cs.trace.iterations.len() as u64 == s.iterations
            && !s.history.is_empty();
        if !same {
            stats.mismatches += 1;
            rep.failed += 1;
        }
    }
}
