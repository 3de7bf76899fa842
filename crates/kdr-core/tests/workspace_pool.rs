//! Workspace pooling keeps warm solves on the traced fast path.
//!
//! Every vector a solve checks out — freshly allocated or reused from
//! the pool — goes back at `release_workspace_from`, so the next solve
//! on the same planner sees the same buffer ids, the same step shapes,
//! and replays its traces instead of filling the trace cache with new
//! shapes. The calls below follow the service's per-job idiom:
//! `workspace_mark` before the solver is built,
//! `release_workspace_from(mark.max(RHS + 1))` after it finishes.

use std::sync::Arc;

use kdr_core::{
    solve_recoverable, solve_traced, CgSolver, ExecBackend, ExecMetrics, Planner, RecoveryPolicy,
    SolveControl, VecId, RHS, SOL,
};
use kdr_index::Partition;
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{SparseMatrix, Stencil};

const SOLVES: usize = 10;

fn planner() -> Planner<f64> {
    let s = Stencil::lap2d(24, 24);
    let n = s.unknowns();
    let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
    let part = Partition::equal_blocks(n, 4);
    let mut p = Planner::new(Box::new(ExecBackend::<f64>::new(2)));
    let d = p.add_sol_vector(n, Some(part.clone()));
    let r = p.add_rhs_vector(n, Some(part));
    p.add_operator(m, d, r);
    p
}

fn rhs(i: usize) -> Vec<f64> {
    rhs_vector::<f64>(24 * 24, 100 + i as u64)
}

fn control() -> SolveControl {
    SolveControl::to_tolerance(1e-10, 500)
}

fn exec_metrics(p: &mut Planner<f64>) -> ExecMetrics {
    p.with_backend(|b| {
        b.as_any()
            .downcast_mut::<ExecBackend<f64>>()
            .expect("exec backend")
            .metrics()
    })
}

fn bits(h: &[(usize, f64)]) -> Vec<(usize, u64)> {
    h.iter().map(|&(i, r)| (i, r.to_bits())).collect()
}

/// What one solve left behind on its planner.
struct SolveRecord {
    mark: usize,
    workspace: Vec<VecId>,
    vector_count: usize,
    trace_cache_len: usize,
    /// `(analyzed, captured, replayed)` steps of this solve alone.
    steps: (u64, u64, u64),
    steps_uncached: u64,
    history: Vec<(usize, u64)>,
}

fn cg_job(p: &mut Planner<f64>, b: &[f64]) -> SolveRecord {
    let m0 = exec_metrics(p);
    p.set_rhs_data(0, b);
    let mark = p.workspace_mark();
    if mark > 0 {
        p.zero(SOL);
    }
    let mut solver = CgSolver::new(p);
    let workspace = p.workspace_checked_out().to_vec();
    let (outcome, trace) = solve_traced(p, &mut solver, control());
    assert!(outcome.expect("solve failed").converged);
    drop(solver);
    p.release_workspace_from(mark.max(RHS + 1));
    assert!(
        p.workspace_checked_out().is_empty(),
        "release must return everything"
    );
    let m1 = exec_metrics(p);
    SolveRecord {
        mark,
        workspace,
        vector_count: p.vector_count(),
        trace_cache_len: m1.trace_cache_len,
        steps: (
            m1.steps_analyzed - m0.steps_analyzed,
            m1.steps_captured - m0.steps_captured,
            m1.steps_replayed - m0.steps_replayed,
        ),
        steps_uncached: m1.steps_uncached,
        history: bits(&trace.residual_history),
    }
}

#[test]
fn sequential_cg_solves_reuse_workspace_and_replay() {
    let mut p = planner();
    let runs: Vec<SolveRecord> = (0..SOLVES).map(|i| cg_job(&mut p, &rhs(i))).collect();

    let first = &runs[0];
    assert_eq!(first.mark, 0, "the first mark predates finalization");
    assert_eq!(first.workspace.len(), 3, "CG checks out p, q, r");
    let warm = &runs[1];
    for (i, r) in runs.iter().enumerate().skip(1) {
        assert_eq!(r.mark, warm.mark, "solve {i}: workspace mark moved");
        assert_eq!(
            r.workspace, warm.workspace,
            "solve {i}: workspace ids moved"
        );
        assert_eq!(
            r.workspace, first.workspace,
            "solve {i}: pooled ids differ from solve 0's"
        );
        assert_eq!(
            r.vector_count, first.vector_count,
            "solve {i}: allocated a new backend vector"
        );
        assert_eq!(
            r.trace_cache_len, first.trace_cache_len,
            "solve {i}: new step shapes"
        );
        let (analyzed, captured, replayed) = r.steps;
        let total = analyzed + captured + replayed;
        assert!(
            replayed * 10 >= total * 9,
            "solve {i}: replayed {replayed} of {total} steps"
        );
        assert_eq!(r.steps_uncached, 0, "solve {i}: trace cache overflowed");
    }

    // Bitwise: a warm solve is the same computation as a cold one.
    for (i, r) in runs.iter().enumerate() {
        let fresh = cg_job(&mut planner(), &rhs(i));
        assert_eq!(
            r.history, fresh.history,
            "solve {i}: residual history differs from a fresh planner"
        );
    }
}

#[test]
fn rhs_structured_workspace_returns_to_the_pool() {
    // `solve_recoverable` checks out an RHS-structured vector for its
    // true-residual check next to CG's solution-structured ones.
    let mut p = planner();
    let mut ids: Vec<Vec<VecId>> = Vec::new();
    let mut counts = Vec::new();
    let mut solutions = Vec::new();
    for i in 0..SOLVES {
        p.set_rhs_data(0, &rhs(i));
        let mark = p.workspace_mark();
        if mark > 0 {
            p.zero(SOL);
        }
        let mut seen = Vec::new();
        let report = solve_recoverable(
            &mut p,
            |pl| {
                let s = CgSolver::new(pl);
                seen = pl.workspace_checked_out().to_vec();
                s
            },
            control(),
            RecoveryPolicy::default(),
        )
        .expect("solve failed");
        assert!(report.converged);
        solutions.push(p.read_component(SOL, 0));
        p.release_workspace_from(mark.max(RHS + 1));
        ids.push(seen);
        counts.push(p.vector_count());
    }
    assert_eq!(ids[0].len(), 4, "one RHS-structured vector plus CG's three");
    assert!(
        ids.iter().all(|s| *s == ids[0]),
        "workspace ids moved: {ids:?}"
    );
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "vector count grew: {counts:?}"
    );
    assert_eq!(exec_metrics(&mut p).steps_uncached, 0);

    // Pooled RHS-structured vectors come back zeroed, lowest id first.
    let mark = p.workspace_mark();
    let w = p.allocate_workspace_vector_rhs();
    assert_eq!(w, ids[0][0]);
    assert!(p.read_component(w, 0).iter().all(|&x| x == 0.0));
    p.release_workspace_from(mark);

    for (i, x) in solutions.iter().enumerate() {
        let mut q = planner();
        q.set_rhs_data(0, &rhs(i));
        solve_recoverable(&mut q, CgSolver::new, control(), RecoveryPolicy::default())
            .expect("solve failed");
        let fresh = q.read_component(SOL, 0);
        assert!(
            x.iter()
                .zip(&fresh)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "solve {i}: solution differs from a fresh planner"
        );
    }
}

#[test]
fn nested_marks_release_inner_then_outer() {
    let mut p = planner();
    p.finalize();
    let outer = p.workspace_mark();
    assert!(outer > RHS);
    let a = p.allocate_workspace_vector();
    let inner = p.workspace_mark();
    let b = p.allocate_workspace_vector_rhs();
    let c = p.allocate_workspace_vector();
    p.release_workspace_from(inner);
    assert_eq!(p.workspace_checked_out(), &[a][..]);
    // Twice is a no-op.
    p.release_workspace_from(inner);
    assert_eq!(p.workspace_checked_out(), &[a][..]);
    // Reuse hands the pooled ids back, lowest first per structure.
    let inner = p.workspace_mark();
    assert_eq!(p.allocate_workspace_vector(), c);
    assert_eq!(p.allocate_workspace_vector_rhs(), b);
    p.release_workspace_from(inner);
    p.release_workspace_from(outer);
    assert!(p.workspace_checked_out().is_empty());
    let count = p.vector_count();
    for _ in 0..3 {
        let m = p.workspace_mark();
        assert_eq!(p.allocate_workspace_vector(), a);
        assert_eq!(p.allocate_workspace_vector(), c);
        assert_eq!(p.allocate_workspace_vector_rhs(), b);
        p.release_workspace_from(m.max(RHS + 1));
    }
    assert_eq!(p.vector_count(), count);
}
