//! `perfbench` — the SMFL benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <vehicle-paper|synth-sparse> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from `--seed`, runs them through the
//! public `smfl_core` API as one closed-loop caller, checks every
//! output, and prints a run header, one line per metric with its unit,
//! and finally one JSON result line. `--trace 0` measures the
//! end-to-end metrics with tracing off; `--trace 1` gives the per-layer
//! metrics (see `layers.rs`). See `perfbench/README.md`.

mod alloc;
mod e2e;
mod layers;
mod report;
mod workload;

use report::{Def, Ledger};
use std::process::ExitCode;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// End-to-end metrics (`--trace 0`), as declared in `BENCHMARK.json`.
const END_TO_END: [Def; 11] = [
    ("setup_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("fit_s", "s", "lower"),
    ("rmse_psi", "rms", "lower"),
    ("objective_final", "objective", "lower"),
    ("peak_heap_mb", "MB", "lower"),
    ("tune_s", "s", "lower"),
    ("refit_ms_p50", "ms", "lower"),
    ("refit_ms_p90", "ms", "lower"),
    ("remask_ms_p50", "ms", "lower"),
    ("remask_ms_p90", "ms", "lower"),
];

/// Per-layer metrics (`--trace 1`), as declared in `BENCHMARK.json`.
const PER_LAYER: [Def; 61] = [
    ("spatial.si_fill_ms", "ms", "lower"),
    ("spatial.graph_knn_ms", "ms", "lower"),
    ("spatial.graph_assembly_ms", "ms", "lower"),
    ("spatial.kmeans_ms", "ms", "lower"),
    ("spatial.kmeans_iters", "count", "lower"),
    ("spatial.graph_nnz", "count", "lower"),
    ("plan.compile_ms", "ms", "lower"),
    ("plan.pattern_compile_ms", "ms", "lower"),
    ("plan.warm_start_ms", "ms", "lower"),
    ("plan.rebind_inplace_ms_p50", "ms", "lower"),
    ("plan.rebind_remask_ms_p50", "ms", "lower"),
    ("engine.update_loop_ms", "ms", "lower"),
    ("engine.iterations", "count", "lower"),
    ("engine.iter_ms_p50", "ms", "lower"),
    ("engine.iter_ms_p90", "ms", "lower"),
    ("updater.step_ms_p50", "ms", "lower"),
    ("engine.objective_ms", "ms", "lower"),
    ("kernels.sddmm_calls", "count", "lower"),
    ("kernels.spmm_calls", "count", "lower"),
    ("kernels.spmm_t_calls", "count", "lower"),
    ("kernels.dense_steps", "count", "lower"),
    ("kernels.masked_nnz", "count", "lower"),
    ("kernels.sddmm_ns_per_nnz", "ns/nnz", "lower"),
    ("kernels.spmm_ns_per_nnz", "ns/nnz", "lower"),
    ("kernels.spmm_t_ns_per_nnz", "ns/nnz", "lower"),
    ("kernels.fit_term_ms", "ms/iter", "lower"),
    ("kernels.gather_ms", "ms/iter", "lower"),
    ("ops.matmul_ms", "ms/iter", "lower"),
    ("ops.matmul_bt_ms", "ms/iter", "lower"),
    ("ops.matmul_at_ms", "ms/iter", "lower"),
    ("mask.zero_unset_ms", "ms/iter", "lower"),
    ("sparse.similarity_spmm_ms", "ms/iter", "lower"),
    ("sparse.degree_spmm_ms", "ms/iter", "lower"),
    ("sparse.quadratic_form_ms", "ms/iter", "lower"),
    ("parallel.threads", "count", "higher"),
    ("parallel.sddmm_speedup", "x", "higher"),
    ("parallel.spmm_speedup", "x", "higher"),
    ("parallel.matmul_speedup", "x", "higher"),
    ("parallel.similarity_spmm_speedup", "x", "higher"),
    ("selection.kmeans_runs", "count", "lower"),
    ("selection.graph_builds", "count", "lower"),
    ("selection.pattern_compiles", "count", "lower"),
    ("selection.cache_hit_ratio", "ratio", "higher"),
    ("selection.fits", "count", "lower"),
    ("selection.fit_failures", "count", "lower"),
    ("model.impute_ms", "ms", "lower"),
    ("mem.compile_peak_mb", "MB", "lower"),
    ("mem.solve_peak_mb", "MB", "lower"),
    ("mem.solve_allocs_per_iter", "allocs/iter", "lower"),
    ("mem.refit_allocs", "allocs", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("computed.sddmm_flops", "flop/iter", "lower"),
    ("computed.sddmm_bytes", "B/iter", "lower"),
    ("computed.spmm_flops", "flop/iter", "lower"),
    ("computed.spmm_bytes", "B/iter", "lower"),
    ("computed.spmm_t_flops", "flop/iter", "lower"),
    ("computed.spmm_t_bytes", "B/iter", "lower"),
    ("computed.dense_flops", "flop/iter", "lower"),
    ("computed.dense_bytes", "B/iter", "lower"),
    ("computed.graph_flops", "flop/iter", "lower"),
    ("computed.graph_bytes", "B/iter", "lower"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    replay_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut replay_child = false;
    while let Some(flag) = args.next() {
        if flag == "--replay-child" {
            replay_child = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    // The single-thread replay child only needs the workload and seed.
    let (seconds, trace) = if replay_child {
        (0.0, true)
    } else {
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        (seconds, trace.ok_or("--trace is required")?)
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        replay_child,
    })
}

/// The commit of the checkout, read from `.git` in the working
/// directory only; a checkout without one reports `unknown`.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    if args.replay_child {
        return match layers::replay_child(spec, args.seed) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: single-thread replay: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let threads_env = std::env::var("SMFL_THREADS").unwrap_or_else(|_| "unset".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        spec.name, args.seed, args.seconds, args.trace as u8
    );
    println!("# commit {}", commit());
    println!(
        "# nproc {nproc}; SMFL_THREADS {threads_env}; kernel threads {}",
        smfl_linalg::parallel::max_threads()
    );
    println!("# {}", env!("PERFBENCH_RUSTC_VERSION"));
    println!("# one closed-loop caller in one process");

    let data = spec.generate(args.seed);
    let mut ledger = Ledger::default();
    let (metrics, defs): (_, &[Def]) = if args.trace {
        (
            layers::run(spec, &data, args.seed, args.seconds, &mut ledger),
            &PER_LAYER,
        )
    } else {
        (
            e2e::run(spec, &data, args.seed, args.seconds, &mut ledger),
            &END_TO_END,
        )
    };
    println!(
        "# fail_rate {} ({} of {} operations)",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
        ledger.failed,
        ledger.attempted
    );
    metrics.print(defs, &ledger);
    ExitCode::SUCCESS
}
