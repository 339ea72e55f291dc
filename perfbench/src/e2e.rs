//! The untraced run (`--trace 0`): every end-to-end metric, measured
//! through the public `smfl_core` API with the no-op sink.
//!
//! One closed-loop caller interleaves four activities for `--seconds`,
//! each kept near its share of the run's time and run at least a
//! minimum number of times:
//! - set-up — `FitPlan::compile` alone;
//! - cold fit — compile + solve + impute at the fixed budget;
//! - tune — `grid_search_cached` with a fresh `PlanCache`;
//! - refit — one batch of the refit stream: the steps of
//!   `FittedModel::refit` (`FitPlan::rebind`, then a warm solve) and
//!   `impute`.
//!
//! Interleaving spreads every metric's samples over the whole run, so a
//! burst of load from elsewhere on the machine shifts all of them a
//! little rather than one of them a lot.

use crate::alloc::Mark;
use crate::report::{median, ms, secs, windowed_percentile, Ledger, Metrics, MB};
use crate::workload::{
    bitwise_eq, check_fit, check_model, Data, Spec, Stream, COLD_ITERS, REFIT_ITERS, TUNE_LAMBDAS,
};
use smfl_core::SolveOptions;
use smfl_core::{grid_search_cached, FitPlan, FittedModel, GridSearchResult, ParamGrid, PlanCache};
use smfl_linalg::Result;
use std::time::{Duration, Instant};

/// Runs `body` until `budget` has passed and it ran at least `min` times.
pub fn repeat_for(budget: Duration, min: usize, mut body: impl FnMut()) {
    let t0 = Instant::now();
    let mut done = 0;
    while done < min || t0.elapsed() < budget {
        body();
        done += 1;
    }
}

/// One interleaved activity: its target share of the run, its least
/// number of runs, and what it has used so far.
struct Slot {
    share: f64,
    min: usize,
    runs: usize,
    spent: Duration,
}

impl Slot {
    fn new(share: f64, min: usize) -> Slot {
        Slot {
            share,
            min,
            runs: 0,
            spent: Duration::ZERO,
        }
    }

    /// Time used per unit of share: the slot lowest on it runs next.
    fn load(&self) -> f64 {
        self.spent.as_secs_f64() / self.share
    }
}

/// Least number of refits of each kind (value-only, mask-changing).
/// It fits inside the refit share on both workloads; `synth-sparse`
/// runs about four times as many.
const MIN_BATCHES: usize = 30;

/// Windows of the refit stream whose p90s give `*_ms_p90`: a burst of
/// load that spans one or two of them does not move the metric.
const P90_WINDOWS: usize = 5;

const SETUP: usize = 0;
const COLD: usize = 1;
const TUNE: usize = 2;
const REFIT: usize = 3;

pub fn run(spec: &Spec, data: &Data, seed: u64, seconds: f64, ledger: &mut Ledger) -> Metrics {
    let cfg = spec.config(spec.rank, COLD_ITERS);
    let eval = (&data.x, &data.omega, &data.truth, &data.psi);
    let mut slots = [
        Slot::new(0.10, 5),
        Slot::new(0.40, 3),
        Slot::new(0.20, 2),
        Slot::new(0.30, 2 * MIN_BATCHES),
    ];
    let (mut setup, mut solve, mut fit, mut peak, mut tune) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut refit, mut remask) = (vec![], vec![]);
    let mut first: Option<(FittedModel, f64)> = None;
    let mut lambda = None;
    let mut refitter: Option<Refitter> = None;
    let t0 = Instant::now();
    loop {
        // Set-up, cold fit and tune run once before anything is
        // balanced: the refit stream starts from their results.
        let pick = (0..REFIT).find(|&s| slots[s].runs == 0).or_else(|| {
            let over = t0.elapsed().as_secs_f64() >= seconds;
            (0..slots.len())
                .filter(|&s| !over || slots[s].runs < slots[s].min)
                .filter(|&s| s != REFIT || refitter.is_some())
                .min_by(|&a, &b| slots[a].load().total_cmp(&slots[b].load()))
        });
        let Some(pick) = pick else { break };
        let started = Instant::now();
        match pick {
            SETUP => {
                let t = Instant::now();
                match FitPlan::compile(&data.x, &data.omega, &cfg) {
                    Ok(_) => {
                        setup.push(secs(t.elapsed()));
                        ledger.record("compile", &[]);
                    }
                    Err(e) => ledger.error("compile", e),
                }
            }
            COLD => {
                let mark = Mark::now();
                let t = Instant::now();
                let res = FitPlan::compile(&data.x, &data.omega, &cfg).and_then(|mut plan| {
                    let t1 = Instant::now();
                    let model = plan.solve()?;
                    let t2 = Instant::now();
                    let imputed = model.impute(&data.x, &data.omega)?;
                    Ok((plan, model, imputed, [t1 - t, t2 - t1, t.elapsed()]))
                });
                match res {
                    Ok((plan, model, imputed, [compile_t, solve_t, fit_t])) => {
                        peak.push(mark.peak_bytes() as f64 / MB);
                        setup.push(secs(compile_t));
                        solve.push(secs(solve_t));
                        fit.push(secs(fit_t));
                        let (mut problems, rmse) =
                            check_fit(&model, plan.landmarks(), &imputed, eval);
                        match &first {
                            Some((m0, _))
                                if !(bitwise_eq(&m0.u, &model.u)
                                    && bitwise_eq(&m0.v, &model.v)) =>
                            {
                                problems
                                    .push("repeated cold fit differs from the first".to_string());
                            }
                            Some(_) => {}
                            None => first = Some((model, rmse)),
                        }
                        ledger.record("cold fit", &problems);
                    }
                    Err(e) => ledger.error("cold fit", e),
                }
            }
            TUNE => {
                let t = Instant::now();
                match tune_result(spec, data) {
                    Ok(result) => {
                        tune.push(secs(t.elapsed()));
                        lambda.get_or_insert(result.best().config.lambda);
                        ledger.record("tune", &tune_problems(spec, &result));
                    }
                    Err(e) => ledger.error("tune", e),
                }
            }
            _ => {
                if let Some(s) = refitter.as_mut().and_then(|r| r.step(ledger)) {
                    if s.remask { &mut remask } else { &mut refit }.push(ms(s.wall));
                }
            }
        }
        slots[pick].runs += 1;
        slots[pick].spent += started.elapsed();
        if refitter.is_none() && slots[REFIT].min > 0 && slots[TUNE].runs > 0 {
            // The stream uses the winning λ (the workload's own if the
            // tune failed) and warm-starts from the first cold fit.
            let lambda = lambda.unwrap_or(cfg.lambda);
            match first
                .as_ref()
                .map(|(m, _)| Refitter::new(spec, data, lambda, m, seed))
            {
                Some(Ok(r)) => refitter = Some(r),
                Some(Err(e)) => ledger.error("stream start", e),
                None => {}
            }
            if refitter.is_none() {
                slots[REFIT].min = 0;
            }
        }
    }

    let (objective, rmse) = first.as_ref().map_or((f64::NAN, f64::NAN), |(m, r)| {
        (m.final_objective().unwrap_or(f64::NAN), *r)
    });
    let mut out = Metrics::default();
    out.add("setup_s", median(&setup));
    out.add("solve_s", median(&solve));
    out.add("fit_s", median(&fit));
    out.add("rmse_psi", rmse);
    out.add("objective_final", objective);
    out.add("peak_heap_mb", median(&peak));
    out.add("tune_s", median(&tune));
    out.add("refit_ms_p50", median(&refit));
    out.add(
        "refit_ms_p90",
        windowed_percentile(&refit, 90.0, P90_WINDOWS),
    );
    out.add("remask_ms_p50", median(&remask));
    out.add(
        "remask_ms_p90",
        windowed_percentile(&remask, 90.0, P90_WINDOWS),
    );
    out
}

/// One grid search of the workload's grid, 2 folds holding out 10%,
/// with a fresh cache.
pub fn tune_result(spec: &Spec, data: &Data) -> Result<GridSearchResult> {
    let grid = ParamGrid {
        lambdas: TUNE_LAMBDAS.to_vec(),
        ps: vec![],
        ranks: spec.tune_ranks.to_vec(),
    };
    let base = spec.config(spec.rank, spec.tune_iters);
    grid_search_cached(
        &data.x,
        &data.omega,
        &base,
        &grid,
        2,
        0.1,
        &mut PlanCache::new(),
    )
}

/// The checks of a tune: no fold fit failed, the winner scored a finite
/// RMS, and the cache ran k-means once per distinct rank and built one
/// graph.
pub fn tune_problems(spec: &Spec, result: &GridSearchResult) -> Vec<String> {
    let stats = result.cache_stats();
    let mut problems = Vec::new();
    if result.fit_failures() > 0 {
        problems.push(format!("{} grid-search fits failed", result.fit_failures()));
    }
    if !result.best().validation_rms.is_finite() {
        problems.push("non-finite validation score".to_string());
    }
    if stats.kmeans_runs != spec.tune_ranks.len() || stats.graph_builds != 1 {
        problems.push(format!("unexpected cache work {stats:?}"));
    }
    problems
}

/// One refit of the stream.
pub struct RefitSample {
    pub remask: bool,
    /// Refit + impute.
    pub wall: Duration,
    /// `FitPlan::rebind` alone.
    pub rebind: Duration,
    /// Allocation calls of the refit + impute.
    pub allocs: usize,
}

/// The refit stream. Its plan is the workload's config at the refit
/// budget with the tune's winning `λ`; the rank stays the workload's,
/// so the refit cost does not follow the tune's choice of K. Batches
/// alternate between value-only drift and mask changes.
pub struct Refitter {
    plan: FitPlan,
    model: FittedModel,
    world: Stream,
    remask_next: bool,
}

impl Refitter {
    pub fn new(
        spec: &Spec,
        data: &Data,
        lambda: f64,
        start: &FittedModel,
        seed: u64,
    ) -> Result<Refitter> {
        let cfg = spec.config(spec.rank, REFIT_ITERS).with_lambda(lambda);
        Ok(Refitter {
            plan: FitPlan::compile(&data.x, &data.omega, &cfg)?,
            model: start.clone(),
            world: Stream::new(data, seed),
            remask_next: false,
        })
    }

    /// One batch: change the world (untimed), then refit + impute
    /// (timed) and check the result. `None` when the refit failed.
    pub fn step(&mut self, ledger: &mut Ledger) -> Option<RefitSample> {
        let remask = self.remask_next;
        self.remask_next = !remask;
        let op = if remask {
            "remask refit"
        } else {
            "value refit"
        };
        if remask {
            self.world.remask();
        } else {
            self.world.drift();
        }
        let (x, omega) = (&self.world.x, &self.world.omega);
        let mark = Mark::now();
        let t = Instant::now();
        // The steps of `FittedModel::refit`, with `rebind` timed alone.
        let mut rebind = Duration::ZERO;
        let res = self
            .plan
            .rebind(x, omega)
            .and_then(|()| {
                rebind = t.elapsed();
                self.plan.solve_with(&SolveOptions::warm_from(&self.model))
            })
            .and_then(|m| Ok((m.impute(x, omega)?, m)));
        let (wall, allocs) = (t.elapsed(), mark.allocs());
        match res {
            Ok((imputed, next)) => {
                ledger.record(op, &check_model(&next, self.plan.landmarks(), &imputed));
                self.model = next;
                Some(RefitSample {
                    remask,
                    wall,
                    rebind,
                    allocs,
                })
            }
            Err(e) => {
                ledger.error(op, e);
                None
            }
        }
    }

    /// The stream's plan and latest model.
    pub fn into_parts(self) -> (FitPlan, FittedModel) {
        (self.plan, self.model)
    }
}
