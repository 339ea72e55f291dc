//! The traced run (`--trace 1`): per-layer metrics, read from outside
//! the program.
//!
//! Three sources, none of which adds instrumentation to the library:
//! - the spans and `KernelCounters` the engine already emits into a
//!   `RecordingSink`;
//! - calls into each module's public functions timed here, on the
//!   workload's own plan pieces (the observed pattern, the masked data,
//!   the plan's graph and landmarks);
//! - the counting allocator of this binary.
//!
//! Layer times named `*_ms` are milliseconds per iteration spent in
//! that call on the path this workload's solve takes: the replayed
//! per-call time times the calls per iteration, so an idle layer reads
//! 0. Calls per iteration come from the exact counters; the dense path's
//! products per dense step are read off `updater.rs` (two each).
//! `computed.*` metrics are operation and byte counts derived from N,
//! M, K and the nonzero counts, not measured.

use crate::alloc::Mark;
use crate::e2e::{repeat_for, tune_problems, tune_result, Refitter};
use crate::report::{median, ms, percentile, secs, Ledger, Metrics, MB};
use crate::workload::{bitwise_eq, check_fit, Data, Spec, COLD_ITERS, SI_COLS, TUNE_LAMBDAS};
use smfl_core::updater::{multiplicative_step, UpdateContext};
use smfl_core::{FitPlan, Landmarks, Phase, RecordingSink, SolveOptions, Trace};
use smfl_linalg::ops::{matmul_at_into, matmul_bt_into, matmul_into};
use smfl_linalg::random::positive_uniform_matrix;
use smfl_linalg::{KernelCounters, Mask, Matrix, ObservedPattern, Workspace};
use smfl_spatial::{fill_missing_si, kmeans, KMeansConfig, SpatialGraph};
use std::hint::black_box;
use std::time::{Duration, Instant};

const COMPILES: usize = 3;
const SOLVE_SHARE: f64 = 0.35;
const STREAM_SHARE: f64 = 0.10;
const STREAM_MIN_BATCHES: usize = 20;
/// Wall-time budget of each replayed kernel (at least 5 calls).
const REPLAY_BUDGET: Duration = Duration::from_millis(150);

/// The workload's plan pieces, rebuilt from the same inputs through
/// public constructors (the plan keeps its own copies private).
pub struct Pieces<'a> {
    pattern: ObservedPattern,
    masked_x: Matrix,
    omega: &'a Mask,
    graph: &'a SpatialGraph,
    landmarks: &'a Landmarks,
    lambda: f64,
    /// The cold-start factors of the plan's seed, landmarks injected.
    u: Matrix,
    v: Matrix,
}

impl<'a> Pieces<'a> {
    pub fn new(data: &'a Data, plan: &'a FitPlan) -> smfl_linalg::Result<Pieces<'a>> {
        let cfg = plan.config();
        let (n, m) = data.x.shape();
        let k = cfg.rank;
        let missing = smfl_linalg::LinalgError::Empty;
        let landmarks = plan.landmarks().ok_or(missing.clone())?;
        let mut v = positive_uniform_matrix(k, m, cfg.seed.wrapping_add(1));
        landmarks.inject(&mut v)?;
        Ok(Pieces {
            pattern: ObservedPattern::compile(&data.x, &data.omega)?,
            masked_x: data.omega.apply(&data.x)?,
            omega: &data.omega,
            graph: plan.graph().ok_or(missing)?,
            landmarks,
            lambda: cfg.lambda,
            u: positive_uniform_matrix(n, k, cfg.seed).scale(1.0 / k as f64),
            v,
        })
    }

    fn ctx(&self) -> UpdateContext<'_> {
        UpdateContext {
            masked_x: &self.masked_x,
            omega: self.omega,
            pattern: &self.pattern,
            graph: Some(self.graph),
            lambda: self.lambda,
            landmarks: Some(self.landmarks),
        }
    }

    /// Replays every kernel of one iteration on these pieces and returns
    /// the per-call median wall time (s) of each: SDDMM, SpMM, SpMMᵀ,
    /// fit term, gather, U·V, R·Vᵀ, Rᵀ·U, mask zeroing, D·U, W·U and
    /// Tr(UᵀLU).
    pub fn replay(&self) -> smfl_linalg::Result<[f64; 12]> {
        let (u, v, p) = (&self.u, &self.v, &self.pattern);
        let (n, m) = self.masked_x.shape();
        let k = u.cols();
        let vt = v.transpose();
        let mut vals = vec![0.0; p.nnz()];
        let mut nk = Matrix::zeros(n, k);
        let mut mk = Matrix::zeros(m, k);
        let mut dense = Matrix::zeros(n, m);
        let start = self.landmarks.spatial_cols();
        let mut t = [0.0; 12];
        t[0] = time_call(|| p.sddmm_into(u, &vt, &mut vals))?;
        t[1] = time_call(|| p.spmm_into(p.x_vals(), &vt, &mut nk))?;
        t[2] = time_call(|| p.spmm_t_into(p.x_vals(), u, start, &mut mk))?;
        t[3] = time_call(|| {
            p.fit_term(&vals).map(|f| {
                black_box(f);
            })
        })?;
        t[5] = time_call(|| matmul_into(u, v, &mut dense))?;
        t[8] = time_call(|| self.omega.zero_unset(&mut dense))?;
        t[4] = time_call(|| p.gather_into(&dense, &mut vals))?;
        t[6] = time_call(|| matmul_bt_into(&self.masked_x, v, &mut nk))?;
        t[7] = time_call(|| matmul_at_into(&self.masked_x, u, &mut mk))?;
        t[9] = time_call(|| self.graph.similarity.spmm_into(u, &mut nk))?;
        t[10] = time_call(|| self.graph.degree.spmm_into(u, &mut nk))?;
        t[11] = time_call(|| {
            self.graph.regularization(u).map(|r| {
                black_box(r);
            })
        })?;
        Ok(t)
    }

    /// Median wall time (s) of `multiplicative_step` on these pieces,
    /// after one warm-up step (the dense path allocates its buffer on
    /// the first).
    fn step_median(&self, budget: Duration) -> smfl_linalg::Result<f64> {
        let ctx = self.ctx();
        let mut ws = Workspace::new(&self.pattern, self.u.cols());
        let (mut u, mut v) = (self.u.clone(), self.v.clone());
        multiplicative_step(&ctx, &mut ws, &mut u, &mut v)?;
        let mut samples = Vec::new();
        let mut err = None;
        repeat_for(budget, 5, || {
            let t = Instant::now();
            if let Err(e) = multiplicative_step(&ctx, &mut ws, &mut u, &mut v) {
                err = Some(e);
            }
            samples.push(secs(t.elapsed()));
        });
        err.map_or(Ok(median(&samples)), Err)
    }
}

/// Median wall time (s) of `call` over at least 5 calls and
/// [`REPLAY_BUDGET`], after one warm-up call.
fn time_call(mut call: impl FnMut() -> smfl_linalg::Result<()>) -> smfl_linalg::Result<f64> {
    call()?;
    let mut samples = Vec::new();
    let mut err = Ok(());
    repeat_for(REPLAY_BUDGET, 5, || {
        let t = Instant::now();
        let r = black_box(call());
        samples.push(secs(t.elapsed()));
        if r.is_err() {
            err = r;
        }
    });
    err.map(|()| median(&samples))
}

/// The single-thread baseline: the same replay in a child process with
/// `SMFL_THREADS=1` (the thread count is read once per process). The
/// child regenerates the inputs from the seed; this process waits for it.
fn replay_single_thread(spec: &Spec, seed: u64) -> Result<[f64; 12], String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args([
            "--replay-child",
            "--workload",
            spec.name,
            "--seed",
            &seed.to_string(),
        ])
        .env("SMFL_THREADS", "1")
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("single-thread replay exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut t = [0.0; 12];
    for (slot, word) in t.iter_mut().zip(text.split_whitespace()) {
        *slot = word
            .parse()
            .map_err(|_| format!("bad replay output {text:?}"))?;
    }
    Ok(t)
}

/// Body of the `--replay-child` process.
pub fn replay_child(spec: &Spec, seed: u64) -> smfl_linalg::Result<String> {
    let data = spec.generate(seed);
    let plan = FitPlan::compile(&data.x, &data.omega, &spec.config(spec.rank, COLD_ITERS))?;
    let t = Pieces::new(&data, &plan)?.replay()?;
    Ok(t.iter()
        .map(|x| format!("{x:?}"))
        .collect::<Vec<_>>()
        .join(" "))
}

pub fn run(spec: &Spec, data: &Data, seed: u64, seconds: f64, ledger: &mut Ledger) -> Metrics {
    let cfg = spec.config(spec.rank, COLD_ITERS);
    let eval = (&data.x, &data.omega, &data.truth, &data.psi);
    let mut out = Metrics::default();

    // Spatial and plan layers: traced compiles, medians per span.
    let mut plan = None;
    let (mut spans, mut compile_peak) = (Vec::new(), Vec::new());
    for _ in 0..COMPILES {
        let mut sink = RecordingSink::new();
        let mark = Mark::now();
        match FitPlan::compile_with_sink(&data.x, &data.omega, &cfg, &mut sink) {
            Ok(p) => {
                compile_peak.push(mark.peak_bytes() as f64 / MB);
                spans.push(sink.into_trace());
                plan = Some(p);
                ledger.record("traced compile", &[]);
            }
            Err(e) => ledger.error("traced compile", e),
        }
    }
    let Some(mut plan) = plan else {
        return out;
    };
    let span_ms = |traces: &[Trace], phase: Phase| {
        median(
            &traces
                .iter()
                .map(|t| t.span_total(phase).map_or(0.0, ms))
                .collect::<Vec<_>>(),
        )
    };
    out.add("spatial.si_fill_ms", span_ms(&spans, Phase::SiFill));
    out.add("spatial.graph_knn_ms", span_ms(&spans, Phase::GraphKnn));
    out.add(
        "spatial.graph_assembly_ms",
        span_ms(&spans, Phase::GraphAssembly),
    );
    let si = fill_missing_si(&data.x, &data.omega, SI_COLS);
    let km_cfg = KMeansConfig::new(cfg.rank)
        .with_max_iter(cfg.kmeans_max_iter)
        .with_seed(cfg.seed);
    let (mut km_ms, mut km_iters) = (Vec::new(), 0);
    for _ in 0..COMPILES {
        let t = Instant::now();
        match kmeans(&si, &km_cfg) {
            Ok(r) => {
                km_ms.push(ms(t.elapsed()));
                km_iters = r.iterations;
            }
            Err(e) => ledger.error("kmeans", e),
        }
    }
    out.add("spatial.kmeans_ms", median(&km_ms));
    out.add("spatial.kmeans_iters", km_iters as f64);
    let graph_nnz = plan.graph().map_or(0, |g| g.similarity.nnz());
    out.add("spatial.graph_nnz", graph_nnz as f64);
    out.add("plan.compile_ms", span_ms(&spans, Phase::PlanCompile));
    out.add(
        "plan.pattern_compile_ms",
        span_ms(&spans, Phase::PatternCompile),
    );
    out.add("mem.compile_peak_mb", median(&compile_peak));

    // Engine: untraced and traced solves, alternating which goes first;
    // the traced factors must equal the untraced ones bit for bit.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut loop_ms, mut iter_ms, mut peak, mut allocs) = (vec![], vec![], vec![], vec![]);
    let mut last: Option<(Trace, smfl_core::FittedModel)> = None;
    let mut traced_first = false;
    repeat_for(Duration::from_secs_f64(seconds * SOLVE_SHARE), 2, || {
        let mut sink = RecordingSink::with_capacity(cfg.max_iter + 1);
        let mut solve_traced = |plan: &mut FitPlan| {
            let t = Instant::now();
            (
                plan.solve_with_sink(&SolveOptions::new(), &mut sink),
                t.elapsed(),
            )
        };
        let early = traced_first.then(|| solve_traced(&mut plan));
        let mark = Mark::now();
        let t = Instant::now();
        let u_res = plan.solve();
        let u_wall = t.elapsed();
        let (u_peak, u_allocs) = (mark.peak_bytes(), mark.allocs());
        let (t_res, t_wall) = early.unwrap_or_else(|| solve_traced(&mut plan));
        traced_first = !traced_first;
        let (mu, mt) = match (u_res, t_res) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => return ledger.error("solve pair", e),
        };
        plain.push(secs(u_wall));
        traced.push(secs(t_wall));
        peak.push(u_peak as f64 / MB);
        allocs.push(u_allocs as f64 / mu.iterations.max(1) as f64);
        let trace = sink.into_trace();
        loop_ms.push(trace.span_total(Phase::UpdateLoop).map_or(0.0, ms));
        iter_ms.extend(trace.iterations.iter().map(|e| ms(e.wall)));
        let imputed = match mu.impute(&data.x, &data.omega) {
            Ok(i) => i,
            Err(e) => return ledger.error("solve pair", e),
        };
        let (mut problems, _) = check_fit(&mu, plan.landmarks(), &imputed, eval);
        let same_history = mu.objective_history.len() == mt.objective_history.len()
            && mu
                .objective_history
                .iter()
                .zip(&mt.objective_history)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !(bitwise_eq(&mu.u, &mt.u) && bitwise_eq(&mu.v, &mt.v) && same_history) {
            problems.push("traced factors differ from untraced".to_string());
        }
        ledger.record("solve pair", &problems);
        last = Some((trace, mu));
    });
    let Some((trace, model)) = last else {
        return out;
    };
    let c: KernelCounters = trace.counters;
    let iters = trace.iterations.len().max(1) as f64;
    ledger.record(
        "kernel path",
        &path_problems(spec, &c, trace.iterations.len()),
    );

    let mut impute_ms = Vec::new();
    repeat_for(REPLAY_BUDGET, 5, || {
        let t = Instant::now();
        match model.impute(&data.x, &data.omega) {
            Ok(imp) => {
                impute_ms.push(ms(t.elapsed()));
                drop(black_box(imp));
            }
            Err(e) => ledger.error("impute", e),
        }
    });

    // Kernel replays: this process, then the single-thread child.
    let pieces = match Pieces::new(data, &plan) {
        Ok(p) => p,
        Err(e) => {
            ledger.error("plan pieces", e);
            return out;
        }
    };
    let step = pieces.step_median(REPLAY_BUDGET * 4);
    let replay = pieces.replay();
    let (step, t) = match (step, replay) {
        (Ok(s), Ok(t)) => {
            ledger.record("kernel replay", &[]);
            (s, t)
        }
        (Err(e), _) | (_, Err(e)) => {
            ledger.error("kernel replay", e);
            return out;
        }
    };
    let single = replay_single_thread(spec, seed);
    let t1 = match single {
        Ok(t1) => {
            ledger.record("single-thread replay", &[]);
            t1
        }
        Err(e) => {
            ledger.error("single-thread replay", e);
            [f64::NAN; 12]
        }
    };

    out.add("engine.update_loop_ms", median(&loop_ms));
    out.add("engine.iterations", iters);
    out.add("engine.iter_ms_p50", median(&iter_ms));
    out.add("engine.iter_ms_p90", percentile(&iter_ms, 90.0));
    out.add("updater.step_ms_p50", step * 1e3);
    out.add("engine.objective_ms", median(&iter_ms) - step * 1e3);

    let nnz = pieces.pattern.nnz() as f64;
    let per_iter = |calls: u64| calls as f64 / iters;
    let dense = per_iter(c.dense_steps);
    let ns_per_nnz = |secs: f64, calls: u64| if calls > 0 { secs * 1e9 / nnz } else { 0.0 };
    out.add("kernels.sddmm_calls", c.sddmm as f64);
    out.add("kernels.spmm_calls", c.spmm as f64);
    out.add("kernels.spmm_t_calls", c.spmm_t as f64);
    out.add("kernels.dense_steps", c.dense_steps as f64);
    out.add("kernels.masked_nnz", c.masked_nnz as f64);
    out.add("kernels.sddmm_ns_per_nnz", ns_per_nnz(t[0], c.sddmm));
    out.add("kernels.spmm_ns_per_nnz", ns_per_nnz(t[1], c.spmm));
    out.add("kernels.spmm_t_ns_per_nnz", ns_per_nnz(t[2], c.spmm_t));
    out.add("kernels.fit_term_ms", t[3] * 1e3);
    out.add("kernels.gather_ms", t[4] * 1e3 * dense);
    out.add("ops.matmul_ms", t[5] * 1e3 * 2.0 * dense);
    out.add("ops.matmul_bt_ms", t[6] * 1e3 * 2.0 * dense);
    out.add("ops.matmul_at_ms", t[7] * 1e3 * 2.0 * dense);
    out.add("mask.zero_unset_ms", t[8] * 1e3 * 2.0 * dense);
    out.add("sparse.similarity_spmm_ms", t[9] * 1e3);
    out.add("sparse.degree_spmm_ms", t[10] * 1e3);
    out.add("sparse.quadratic_form_ms", t[11] * 1e3);
    out.add(
        "parallel.threads",
        smfl_linalg::parallel::max_threads() as f64,
    );
    for (name, i) in [
        ("sddmm", 0),
        ("spmm", 1),
        ("matmul", 5),
        ("similarity_spmm", 9),
    ] {
        out.add(&format!("parallel.{name}_speedup"), t1[i] / t[i]);
    }
    computed_work(&mut out, &pieces, &c, iters);
    out.add("model.impute_ms", median(&impute_ms));
    out.add("mem.solve_peak_mb", median(&peak));
    out.add("mem.solve_allocs_per_iter", median(&allocs));
    out.add(
        "trace.overhead_pct",
        (median(&traced) / median(&plain) - 1.0) * 100.0,
    );

    // Model selection: one tune with a fresh cache.
    match tune_result(spec, data) {
        Ok(result) => {
            let s = result.cache_stats();
            let built = s.kmeans_runs + s.graph_builds + s.pattern_compiles;
            let hits = s.landmark_hits + s.graph_hits + s.pattern_hits;
            let candidates = TUNE_LAMBDAS.len() * spec.tune_ranks.len();
            out.add("selection.kmeans_runs", s.kmeans_runs as f64);
            out.add("selection.graph_builds", s.graph_builds as f64);
            out.add("selection.pattern_compiles", s.pattern_compiles as f64);
            out.add(
                "selection.cache_hit_ratio",
                hits as f64 / (hits + built).max(1) as f64,
            );
            out.add(
                "selection.fits",
                (candidates * 2 - result.skipped_folds()) as f64,
            );
            out.add("selection.fit_failures", result.fit_failures() as f64);
            ledger.record("tune", &tune_problems(spec, &result));
            let lambda = result.best().config.lambda;
            let budget = Duration::from_secs_f64(seconds * STREAM_SHARE);
            match Refitter::new(spec, data, lambda, &model, seed) {
                Ok(r) => plan_stream(r, budget, ledger, &mut out),
                Err(e) => ledger.error("stream start", e),
            }
        }
        Err(e) => ledger.error("tune", e),
    }
    out
}

/// The checks that the traced cold solve ran the whole budget on the
/// path the workload claims: every iteration a dense step and no SDDMM
/// on a dense-path workload, no dense step on a sparse-path one.
fn path_problems(spec: &Spec, c: &KernelCounters, iterations: usize) -> Vec<String> {
    let mut problems = Vec::new();
    if iterations != COLD_ITERS {
        problems.push(format!("ran {iterations} of {COLD_ITERS} iterations"));
    }
    let on_path = if spec.dense_path {
        c.dense_steps == iterations as u64 && c.sddmm == 0
    } else {
        c.dense_steps == 0
    };
    if !on_path {
        let path = if spec.dense_path { "dense" } else { "sparse" };
        problems.push(format!(
            "not on the {path} path: {} dense steps, {} SDDMM calls in {iterations} iterations",
            c.dense_steps, c.sddmm
        ));
    }
    problems
}

/// The refit stream run as its steps: `FitPlan::rebind` timed from
/// outside per batch kind, allocations per value-only refit, then one
/// traced warm solve for the warm-start span.
fn plan_stream(mut refitter: Refitter, budget: Duration, ledger: &mut Ledger, out: &mut Metrics) {
    let (mut inplace, mut remask, mut allocs) = (vec![], vec![], vec![]);
    repeat_for(budget, 2 * STREAM_MIN_BATCHES, || {
        if let Some(s) = refitter.step(ledger) {
            if s.remask {
                remask.push(ms(s.rebind));
            } else {
                inplace.push(ms(s.rebind));
                allocs.push(s.allocs as f64);
            }
        }
    });
    out.add("plan.rebind_inplace_ms_p50", median(&inplace));
    out.add("plan.rebind_remask_ms_p50", median(&remask));
    out.add("mem.refit_allocs", median(&allocs));
    let (mut plan, last) = refitter.into_parts();
    let mut sink = RecordingSink::new();
    match plan.solve_with_sink(&SolveOptions::warm_from(&last), &mut sink) {
        Ok(m) => {
            let ok = plan.landmarks().is_some_and(|lm| lm.verify_injected(&m.v));
            let problems = if ok {
                vec![]
            } else {
                vec!["landmarks moved".to_string()]
            };
            ledger.record("traced warm solve", &problems);
            let warm = sink.trace().span_total(Phase::WarmStart).map_or(0.0, ms);
            out.add("plan.warm_start_ms", warm);
        }
        Err(e) => ledger.error("traced warm solve", e),
    }
}

/// Operations and bytes per iteration of each kernel group on the path
/// the solve took, derived from the shapes and scaled by the exact calls
/// per iteration. Labelled `computed`: a streaming model (every index,
/// value and factor row read once per call), not a measurement.
fn computed_work(out: &mut Metrics, p: &Pieces<'_>, c: &KernelCounters, iters: f64) {
    let (n, m) = p.masked_x.shape();
    let (n, m, k) = (n as f64, m as f64, p.u.cols() as f64);
    let nnz = p.pattern.nnz() as f64;
    let start = p.landmarks.spatial_cols();
    let live = (0..p.pattern.rows())
        .map(|i| {
            p.pattern
                .row_entries(i)
                .filter(|&(_, j)| j >= start)
                .count()
        })
        .sum::<usize>() as f64;
    let per = |calls: u64| calls as f64 / iters;
    let factors = 8.0 * k * (n + m);
    let kernel_rows = [
        ("sddmm", per(c.sddmm), 2.0 * nnz * k, 16.0 * nnz + factors),
        ("spmm", per(c.spmm), 2.0 * nnz * k, 16.0 * nnz + factors),
        (
            "spmm_t",
            per(c.spmm_t),
            2.0 * live * k,
            24.0 * live + factors,
        ),
    ];
    for (name, calls, flops, bytes) in kernel_rows {
        out.add(&format!("computed.{name}_flops"), calls * flops);
        out.add(&format!("computed.{name}_bytes"), calls * bytes);
    }
    // A dense step: two each of U·V, R·Vᵀ and Rᵀ·U (2·N·M·K flops and
    // one N×M matrix plus both factors each), two mask passes over N×M
    // and one gather of the observed entries.
    let dense = per(c.dense_steps);
    out.add("computed.dense_flops", dense * 6.0 * 2.0 * n * m * k);
    out.add(
        "computed.dense_bytes",
        dense * (6.0 * (8.0 * n * m + factors) + 16.0 * n * m + 24.0 * nnz),
    );
    // Graph terms, once per iteration: D·U, W·U and Tr(UᵀLU).
    let g = p.graph;
    let graph_nnz = (g.similarity.nnz() + g.degree.nnz() + g.laplacian.nnz()) as f64;
    out.add("computed.graph_flops", 2.0 * graph_nnz * k + 2.0 * n * k);
    out.add(
        "computed.graph_bytes",
        16.0 * graph_nnz + 3.0 * 2.0 * 8.0 * n * k,
    );
}
