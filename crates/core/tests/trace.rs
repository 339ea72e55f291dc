//! Integration contract of the telemetry layer (DESIGN.md §11):
//!
//! 1. observation must not perturb — a fit through [`NoopSink`], a
//!    [`RecordingSink`], or no sink at all produces bitwise-identical
//!    factors, history, and report, and the no-sink fit is bitwise the
//!    update loop written out by hand with no sink plumbing anywhere;
//! 2. an enabled trace is complete — every pipeline phase spanned,
//!    kernel counters populated, one `IterEvent` per loop iteration;
//! 3. the JSONL sink writes exactly the model's `FitReport::events` —
//!    the one event store — whether the fit is one-shot under
//!    `SMFL_TRACE`, a compile without a sink followed by a traced
//!    solve, a sanitizing `rebind` followed by a traced solve, or a
//!    solve that uses up its restarts and ends in a `failed` event; and
//!    under a restart ladder the accepted iterations equal the history;
//! 4. the JSONL sink emits one well-formed object per line;
//! 5. the golden thread-invariance property (PR 2) holds for the traced
//!    objective stream: `SMFL_THREADS=1` and `=4` write identical
//!    objective sequences. The thread pool is sized once per process,
//!    so this runs seeded child processes via the `SMFL_TRACE`
//!    environment toggle — which exercises that toggle end to end.

use smfl_core::objective::objective_from_fit_term;
use smfl_core::telemetry::event_parts;
use smfl_core::updater::{multiplicative_step, UpdateContext};
use smfl_core::{
    fit, FitEvent, FitPlan, FitReport, FittedModel, JsonlSink, NoopSink, Phase, RecordingSink,
    SmflConfig, SolveOptions, Trace, TraceSink,
};
use smfl_datasets::{inject_inf_spike, inject_nan_burst};
use smfl_linalg::random::{positive_uniform_matrix, uniform_matrix};
use smfl_linalg::{Mask, Matrix, ObservedPattern, Workspace};
use std::path::PathBuf;
use std::process::{Command, Output};

/// Random spatial problem with ~`missing_pct`% of cells hidden.
fn problem(n: usize, m: usize, seed: u64, missing_pct: u32) -> (Matrix, Mask) {
    let x = uniform_matrix(n, m, 0.0, 1.0, seed);
    let sel = uniform_matrix(n, m, 0.0, 100.0, seed.wrapping_add(77));
    let mut omega = Mask::full(n, m);
    for i in 0..n {
        for j in 0..m {
            if sel.get(i, j) < missing_pct as f64 {
                omega.set(i, j, false);
            }
        }
    }
    for j in 0..m {
        omega.set(0, j, true);
    }
    (x, omega)
}

/// Asserts a child test process succeeded. Its output is captured
/// rather than inherited so the child's harness lines never interleave
/// with the parent's; it is shown only when the child failed.
fn assert_child_passed(child: &Output, what: &str) {
    assert!(
        child.status.success(),
        "{what}\n--- child stdout ---\n{}\n--- child stderr ---\n{}",
        String::from_utf8_lossy(&child.stdout),
        String::from_utf8_lossy(&child.stderr),
    );
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Compile + cold solve, both streaming into `sink`.
fn fit_with<S: TraceSink>(x: &Matrix, omega: &Mask, cfg: &SmflConfig, sink: &mut S) -> FittedModel {
    FitPlan::compile_with_sink(x, omega, cfg, sink)
        .and_then(|mut plan| plan.solve_with_sink(&SolveOptions::new(), sink))
        .unwrap()
}

/// [`fit_with`] into a fresh [`RecordingSink`], returning its trace.
fn record_fit(x: &Matrix, omega: &Mask, cfg: &SmflConfig) -> (FittedModel, Trace) {
    let mut sink = RecordingSink::new();
    let model = fit_with(x, omega, cfg, &mut sink);
    (model, sink.into_trace())
}

// ---------------------------------------------------------------------
// 1. Observation does not perturb the fit.
// ---------------------------------------------------------------------
#[test]
fn tracing_does_not_perturb_the_fit() {
    let (x, omega) = problem(40, 6, 5, 30);
    let cfg = SmflConfig::smfl(3, 2).with_max_iter(20).with_seed(5).with_tol(0.0);

    let plain = fit(&x, &omega, &cfg).unwrap();
    let noop = fit_with(&x, &omega, &cfg, &mut NoopSink);
    let (traced, trace) = record_fit(&x, &omega, &cfg);

    for other in [&noop, &traced] {
        assert!(plain.u.approx_eq(&other.u, 0.0), "U drifted under observation");
        assert!(plain.v.approx_eq(&other.v, 0.0), "V drifted under observation");
        assert_eq!(plain.objective_history, other.objective_history);
        assert_eq!(plain.iterations, other.iterations);
        assert_eq!(plain.converged, other.converged);
        assert_eq!(plain.report, other.report);
    }
    assert_eq!(trace.iterations.len(), traced.iterations);
}

/// The pre-telemetry NMF fit loop, by hand: the engine's seeded init,
/// then `multiplicative_step` + objective + history push per iteration,
/// with no sink type parameter anywhere. Returns `(U, V, history)`.
fn hand_rolled_nmf(x: &Matrix, omega: &Mask, cfg: &SmflConfig) -> (Matrix, Matrix, Vec<f64>) {
    let (n, m, k) = (x.rows(), x.cols(), cfg.rank);
    let masked_x = omega.apply(x).unwrap();
    let pattern = ObservedPattern::compile(x, omega).unwrap();
    let mut ws = Workspace::new(&pattern, k);
    let mut u = positive_uniform_matrix(n, k, cfg.seed).scale(1.0 / k as f64);
    let mut v = positive_uniform_matrix(k, m, cfg.seed.wrapping_add(1));
    let ctx = UpdateContext {
        masked_x: &masked_x,
        omega,
        pattern: &pattern,
        graph: None,
        lambda: 0.0,
        landmarks: None,
    };
    let mut history = Vec::with_capacity(cfg.max_iter);
    for _ in 0..cfg.max_iter {
        let fit_term = multiplicative_step(&ctx, &mut ws, &mut u, &mut v).unwrap();
        let objective = objective_from_fit_term(fit_term, &u, 0.0, None).unwrap();
        assert!(objective.is_finite());
        history.push(objective);
    }
    (u, v, history)
}

/// The no-sink `fit` is the uninstrumented loop: every `S::ENABLED`
/// guard folds away without changing a single operation, on both
/// kernel paths (70% missing runs the sparse kernels, 10% the dense).
#[test]
fn noop_fit_equals_hand_rolled_loop_bitwise() {
    for missing_pct in [70, 10] {
        let (x, omega) = problem(300, 60, 17, missing_pct);
        let cfg = SmflConfig::nmf(6).with_max_iter(20).with_seed(17).with_tol(0.0);
        let model = fit(&x, &omega, &cfg).unwrap();
        let (u, v, history) = hand_rolled_nmf(&x, &omega, &cfg);
        assert_eq!(model.objective_history, history, "missing {missing_pct}%");
        assert!(model.u.approx_eq(&u, 0.0), "U differs at missing {missing_pct}%");
        assert!(model.v.approx_eq(&v, 0.0), "V differs at missing {missing_pct}%");
    }
}

// ---------------------------------------------------------------------
// 2. An enabled trace is complete.
// ---------------------------------------------------------------------
#[test]
fn trace_covers_every_phase_and_counter() {
    // 60% missing keeps the engine on the sparse kernels, so the
    // SDDMM/SpMM counters (not dense_steps) must move.
    let (x, omega) = problem(40, 6, 9, 60);
    let cfg = SmflConfig::smfl(3, 2).with_max_iter(15).with_seed(9).with_tol(0.0);
    let (model, trace) = record_fit(&x, &omega, &cfg);

    for phase in [
        Phase::SiFill,
        Phase::GraphKnn,
        Phase::GraphAssembly,
        Phase::GraphBuild,
        Phase::Landmarks,
        Phase::PatternCompile,
        Phase::UpdateLoop,
    ] {
        assert!(
            trace.span_total(phase).is_some(),
            "phase {} never spanned",
            phase.name()
        );
    }

    assert_eq!(trace.iterations.len(), model.iterations, "one IterEvent per iteration");
    assert!(trace.iterations.iter().all(|e| e.accepted && e.health.is_none()));
    assert!(trace.landmarks_always_intact());

    let c = &trace.counters;
    assert!(c.sddmm > 0, "no SDDMM counted: {c:?}");
    assert!(c.spmm > 0 && c.spmm_t > 0, "no SpMM counted: {c:?}");
    assert_eq!(c.dense_steps, 0, "sparse fit took the dense path: {c:?}");
    assert!(c.masked_nnz > 0);
    assert_eq!(c.kernel_calls(), c.sddmm + c.spmm + c.spmm_t);
}

// ---------------------------------------------------------------------
// 3. The JSONL event lines are exactly the model's FitReport events.
// ---------------------------------------------------------------------

/// The `(event, detail)` pairs of a JSONL trace's event lines, in order.
fn jsonl_events(path: &std::path::Path) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(path).unwrap();
    text.lines()
        .filter(|l| l.starts_with("{\"type\":\"event\""))
        .map(|l| {
            let field = |key: &str, end: &str| {
                let start = l.find(key).unwrap() + key.len();
                l[start..start + l[start..].find(end).unwrap()].to_string()
            };
            (field("\"event\":\"", "\""), field("\"detail\":\"", "\"}"))
        })
        .collect()
}

/// A report's events in the JSONL `(event, detail)` form.
fn report_events(report: &FitReport) -> Vec<(String, String)> {
    report
        .events
        .iter()
        .map(|e| {
            let (name, detail) = event_parts(e);
            (name.to_string(), detail)
        })
        .collect()
}

/// A sanitization storm: NaN/Inf bursts the resilient engine repairs
/// before the loop.
fn storm(seed: u64) -> Matrix {
    let mut x = uniform_matrix(30, 6, 0.1, 1.0, seed);
    inject_nan_burst(&mut x, 4, 1);
    inject_inf_spike(&mut x, 3, 2);
    x
}

fn storm_config() -> SmflConfig {
    SmflConfig::smfl(3, 2).with_max_iter(20).with_seed(99).resilient()
}

fn assert_sanitized(model: &FittedModel) {
    assert!(
        model.report.events.iter().any(|e| matches!(e, FitEvent::Sanitized { .. })),
        "storm produced no Sanitized event: {:?}",
        model.report.events
    );
}

/// Child-process body of the one-shot case: a resilient storm fit with
/// `SMFL_TRACE` set by the parent, checked against the file it wrote.
/// A no-op unless spawned by `jsonl_events_equal_fit_report`.
#[test]
fn jsonl_events_child_fit() {
    let Some(path) = std::env::var_os("SMFL_TRACE_EVENTS_CHILD") else {
        return;
    };
    let model = fit(&storm(99), &Mask::full(30, 6), &storm_config()).unwrap();
    assert_sanitized(&model);
    assert_eq!(jsonl_events(std::path::Path::new(&path)), report_events(&model.report));
}

#[test]
fn jsonl_events_equal_fit_report() {
    let omega = Mask::full(30, 6);
    let cfg = storm_config();

    // (a) One-shot `fit` under SMFL_TRACE, in a child process so the
    // environment toggle cannot leak into other tests' fits.
    let path = tmp("events_oneshot.jsonl");
    let _ = std::fs::remove_file(&path);
    let child = Command::new(std::env::current_exe().unwrap())
        .args(["jsonl_events_child_fit", "--exact", "--test-threads=1"])
        .env("SMFL_TRACE_EVENTS_CHILD", &path)
        .env("SMFL_TRACE", &path)
        .output()
        .expect("failed to spawn child test process");
    assert_child_passed(&child, "one-shot SMFL_TRACE events differ from the report");
    let _ = std::fs::remove_file(&path);

    // (b) Compile without a sink, then a traced solve: the compile-time
    // events reach the sink through the solve's report.
    let mut plan = FitPlan::compile(&storm(99), &omega, &cfg).unwrap();
    assert_sanitized(&assert_solve_events_match(&mut plan, "events_split.jsonl"));

    // (c) A sanitizing rebind, then a traced solve: the rebind's event
    // is on the report and therefore in the trace.
    let clean = uniform_matrix(30, 6, 0.1, 1.0, 98);
    let mut plan = FitPlan::compile(&clean, &omega, &cfg).unwrap();
    plan.rebind(&storm(98), &omega).unwrap();
    assert_sanitized(&assert_solve_events_match(&mut plan, "events_rebind.jsonl"));

    // (d) Divergent gradient descent that uses up its restarts: the
    // terminal failure is an event, so the trace carries it too.
    let (x, omega) = problem(30, 6, 5, 15);
    let gd = SmflConfig::nmf(3)
        .with_gradient_descent(6.0)
        .with_max_iter(40)
        .with_seed(7)
        .resilient();
    let mut plan = FitPlan::compile(&x, &omega, &gd).unwrap();
    let model = assert_solve_events_match(&mut plan, "events_failed.jsonl");
    assert!(model.report.failure().is_some(), "{:?}", model.report.events);
    assert!(
        report_events(&model.report).iter().any(|(name, _)| name == "failed"),
        "no failed event: {:?}",
        model.report.events
    );
}

/// Solves `plan` into a fresh JSONL file, asserts its event lines are
/// the returned model's report events, and returns the model.
fn assert_solve_events_match(plan: &mut FitPlan, name: &str) -> FittedModel {
    let path = tmp(name);
    let mut sink = JsonlSink::create(&path).unwrap();
    let model = plan.solve_with_sink(&SolveOptions::new(), &mut sink).unwrap();
    drop(sink);
    assert_eq!(jsonl_events(&path), report_events(&model.report));
    let _ = std::fs::remove_file(&path);
    model
}

/// Under a restart ladder (divergent gradient descent with the health
/// monitor on) restart iterations are streamed but not accepted, and
/// the accepted trajectory equals the history bitwise.
#[test]
fn restart_ladder_trace_matches_history() {
    let (x, omega) = problem(24, 4, 7, 0);
    let mut verified = false;
    for lr in [1.0, 2.0, 4.0, 6.0, 8.0] {
        let cfg = SmflConfig::nmf(3)
            .with_gradient_descent(lr)
            .with_max_iter(25)
            .with_seed(7)
            .resilient();
        let mut sink = RecordingSink::new();
        let Ok(model) = FitPlan::compile_with_sink(&x, &omega, &cfg, &mut sink)
            .and_then(|mut plan| plan.solve_with_sink(&SolveOptions::new(), &mut sink))
        else {
            continue;
        };
        if model.report.restarts() > 0 {
            let trace = sink.trace();
            assert!(trace.iterations.iter().any(|e| !e.accepted), "lr={lr}");
            let accepted: Vec<f64> = trace.accepted_objectives().collect();
            assert_eq!(accepted, model.objective_history, "lr={lr}");
            verified = true;
        }
    }
    assert!(verified, "no learning rate in the sweep triggered a restart");
}

// ---------------------------------------------------------------------
// 4. JSONL output: one well-formed object per line.
// ---------------------------------------------------------------------
#[test]
fn jsonl_sink_writes_one_object_per_line() {
    let (x, omega) = problem(30, 5, 11, 40);
    let cfg = SmflConfig::smfl(3, 2).with_max_iter(10).with_seed(11).with_tol(0.0);
    let path = tmp("trace_jsonl_test.jsonl");
    let mut sink = JsonlSink::create(&path).unwrap();
    let model = fit_with(&x, &omega, &cfg, &mut sink);
    drop(sink);

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty());
    for line in &lines {
        assert!(
            line.starts_with("{\"type\":\"") && line.ends_with('}'),
            "malformed line: {line}"
        );
        assert_eq!(line.matches('"').count() % 2, 0, "unbalanced quotes: {line}");
    }
    let iters = lines.iter().filter(|l| l.contains("\"type\":\"iter\"")).count();
    assert_eq!(iters, model.iterations);
    assert_eq!(
        lines.iter().filter(|l| l.contains("\"type\":\"counters\"")).count(),
        1,
        "exactly one counters line at fit end"
    );
    assert!(lines.iter().any(|l| l.contains("\"phase\":\"update_loop\"")));
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// 5. Thread-invariance golden test via the SMFL_TRACE env toggle.
// ---------------------------------------------------------------------

/// Child-process body: runs a seeded fit large enough to cross the
/// parallel-dispatch threshold, with `SMFL_TRACE` set by the parent.
/// A no-op unless spawned by `traced_objectives_are_thread_invariant`.
#[test]
fn trace_child_fit() {
    if std::env::var_os("SMFL_TRACE_CHILD").is_none() {
        return;
    }
    // 2000x200 at ~35% observed, rank 8: 2·nnz·k ≈ 2.2M flops per
    // kernel, above PARALLEL_FLOP_THRESHOLD, so SMFL_THREADS > 1
    // actually forks the kernels.
    let (x, omega) = problem(2000, 200, 1234, 65);
    let cfg = SmflConfig::nmf(8).with_max_iter(6).with_seed(1234).with_tol(0.0);
    let model = fit(&x, &omega, &cfg).expect("child fit failed");
    assert_eq!(model.iterations, 6);
}

#[test]
fn traced_objectives_are_thread_invariant() {
    let exe = std::env::current_exe().unwrap();
    let mut sequences = Vec::new();
    for threads in ["1", "4"] {
        let path = tmp(&format!("trace_threads_{threads}.jsonl"));
        let _ = std::fs::remove_file(&path);
        let child = Command::new(&exe)
            .args(["trace_child_fit", "--exact", "--test-threads=1"])
            .env("SMFL_TRACE_CHILD", "1")
            .env("SMFL_THREADS", threads)
            .env("SMFL_TRACE", &path)
            .output()
            .expect("failed to spawn child test process");
        assert_child_passed(&child, &format!("child with SMFL_THREADS={threads} failed"));

        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("SMFL_TRACE produced no file for {threads} threads: {e}"));
        // The shortest-roundtrip decimal in the JSONL is a bijection
        // with the f64 bits, so string equality == bitwise equality.
        let objectives: Vec<String> = text
            .lines()
            .filter(|l| l.contains("\"type\":\"iter\""))
            .map(|l| {
                let start = l.find("\"objective\":").unwrap() + "\"objective\":".len();
                l[start..].split(',').next().unwrap().to_string()
            })
            .collect();
        assert_eq!(objectives.len(), 6, "expected 6 traced iterations");
        sequences.push(objectives);
        let _ = std::fs::remove_file(&path);
    }
    assert_eq!(
        sequences[0], sequences[1],
        "objective stream differs between SMFL_THREADS=1 and =4"
    );
}
