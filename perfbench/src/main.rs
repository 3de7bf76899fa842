//! The repository benchmark: three workloads through the public API
//! (`Planner`/`solve`, `SolveService`, `ShardedService`), timed end to
//! end and, in a separate traced run, layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm_replay --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A detail report
//! (sample statistics, checks, workload-specific metrics) goes to
//! `.bench_out/`. The exit code is non-zero when any output check fails.

mod common;
mod fleet_churn;
mod floor;
mod large_3d;
mod layers;
mod ledger;
mod probes;
mod span;
mod stats;
mod warm_replay;

use std::time::Instant;

use common::Ctx;
use span::Tracer;

const WORKLOADS: [&str; 3] = ["warm_replay", "large_3d", "fleet_churn"];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = WORKLOADS.iter().copied().find(|w| w == value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace) else {
        usage()
    };
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        start: Instant::now(),
        tracer: Tracer::new(trace),
    };
    let report = match workload {
        "warm_replay" => warm_replay::run(&ctx),
        "large_3d" => large_3d::run(&ctx),
        _ => fleet_churn::run(&ctx),
    };
    if !report.finish(&ctx) {
        std::process::exit(1);
    }
}
