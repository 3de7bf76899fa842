//! Per-layer probes that time one public function in isolation on a
//! workload's own operator: tile lowering and tile SpMV (`kdr-sparse`),
//! partition projection (`kdr-index`), the empty-task floor
//! (`kdr-runtime`), and the serial CG floor.

use std::sync::Arc;
use std::time::Instant;

use kdr_core::partitioning::{compute_tiles, extract_tile_triplets};
use kdr_index::{spmv_closure, Partition};
use kdr_runtime::{Runtime, TaskBuilder};
use kdr_sparse::{KernelChoice, SparseMatrix, TileKernel};

use crate::common::{Report, WORKERS};
use crate::floor::{self, SerialCsr};
use crate::stats::median;

/// Repeat `f` until `min_reps` runs and `min_s` seconds have passed;
/// return each run's wall time in ns.
fn repeat(min_reps: usize, min_s: f64, mut f: impl FnMut()) -> Vec<f64> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || t0.elapsed().as_secs_f64() < min_s {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_nanos() as f64);
        if out.len() >= 100_000 {
            break;
        }
    }
    out
}

/// The tiles the planner would lower for `pieces` equal blocks.
fn lowered_tiles(matrix: &dyn SparseMatrix<f64>, n: u64, pieces: usize) -> Vec<TileKernel<f64>> {
    let part = Partition::equal_blocks(n, pieces);
    let tiles = compute_tiles(matrix, &part, &part, 0, 0);
    extract_tile_triplets(matrix, &tiles)
        .iter()
        .map(|(r, c, v)| TileKernel::lower(r, c, v, KernelChoice::Auto))
        .collect()
}

/// `sparse.*` and `index.partition_ms` on one operator.
pub fn sparse_and_index(rep: &mut Report, matrix: &Arc<dyn SparseMatrix<f64>>, n: u64, pieces: usize, label: &str) {
    let m = matrix.as_ref();
    let lower = repeat(3, 0.3, || {
        std::hint::black_box(lowered_tiles(m, n, pieces));
    });
    let partition = repeat(5, 0.2, || {
        let part = Partition::equal_blocks(n, pieces);
        std::hint::black_box(spmv_closure(m.row_relation().as_ref(), m.col_relation().as_ref(), &part));
    });

    let kernels = lowered_tiles(m, n, pieces);
    let kinds: Vec<&str> = kernels.iter().filter_map(|k| k.kind()).map(|k| k.name()).collect();
    let x: Vec<f64> = (0..n).map(|i| 0.5 + (i % 32) as f64 * 0.125).collect();
    let mut y = vec![0.0; n as usize];
    let spmv = repeat(20, 0.4, || {
        for k in &kernels {
            k.apply_slices(&x, &mut y, false);
        }
        std::hint::black_box(&y);
    });
    // Minimum traffic of one SpMV: operator value bytes, one read of
    // x, one read and one write of y.
    let value_bytes: usize = kernels.iter().map(TileKernel::value_bytes).sum();
    let bytes = value_bytes as f64 + 24.0 * n as f64;
    let spmv_us: Vec<f64> = spmv.iter().map(|v| v / 1e3).collect();
    let med_us = median(&spmv_us);

    rep.layer_timed("sparse.spmv_us", "us", &spmv_us, &format!("{label}: all {} tiles ({}) applied serially", kernels.len(), kinds.first().copied().unwrap_or("empty")));
    rep.layer("sparse.spmv_bytes", "B", bytes, "computed: value bytes + 8 B/row x read + 16 B/row y read+write");
    rep.layer("sparse.spmv_gbs", "GB/s", bytes / med_us / 1e3, "computed bytes / median spmv time");
    let lower_ms: Vec<f64> = lower.iter().map(|v| v / 1e6).collect();
    rep.layer_timed("sparse.lower_ms", "ms", &lower_ms, &format!("{label}: compute_tiles + extract_tile_triplets + TileKernel::lower"));
    let part_ms: Vec<f64> = partition.iter().map(|v| v / 1e6).collect();
    rep.layer_timed("index.partition_ms", "ms", &part_ms, &format!("{label}: Partition::equal_blocks + spmv_closure"));
}

/// `runtime.task_floor_ns`: submit + fence of empty-body tasks on a
/// fresh runtime.
pub fn task_floor(rep: &mut Report) {
    const TASKS: usize = 2000;
    let rt = Runtime::new(WORKERS);
    let per_task = repeat(10, 0.4, || {
        for _ in 0..TASKS {
            rt.submit(TaskBuilder::new("empty").body(|_| {})).expect("submit");
        }
        rt.fence().expect("fence");
    });
    let ns: Vec<f64> = per_task.iter().map(|v| v / TASKS as f64).collect();
    rep.layer_timed("runtime.task_floor_ns", "ns", &ns, &format!("per task, batches of {TASKS} empty tasks + one fence, Runtime::new({WORKERS})"));
}

/// Serial CG floor on one operator: `(median µs/iteration, iterations)`.
pub fn floor_cg(a: &SerialCsr, rhs: &[f64], tol: f64, min_s: f64) -> (f64, usize) {
    let mut per_iter = Vec::new();
    let mut iters = 0;
    let t0 = Instant::now();
    while per_iter.len() < 3 || t0.elapsed().as_secs_f64() < min_s {
        let (it, wall, _) = floor::cg(a, rhs, tol, 100_000);
        iters = it;
        per_iter.push(wall * 1e6 / it.max(1) as f64);
    }
    (median(&per_iter), iters)
}
