//! The two workloads: their shapes, their configs, the seeded data
//! they fit, the refit stream's batches, and the output checks every
//! operation must pass.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smfl_core::{FittedModel, Landmarks, SmflConfig};
use smfl_datasets::generate::{spatial_dataset, vehicle, GeneratorConfig};
use smfl_datasets::{inject_missing, Dataset, Scale};
use smfl_linalg::{Mask, Matrix};

/// Complete rows protected from missing-value injection (paper §IV-A1).
const RESERVED_ROWS: usize = 100;
/// Seed of the generated table. It is fixed, as the paper's real tables
/// are: `--seed` draws what the paper's protocol draws (the missing
/// cells), and the refit stream's batches.
const TABLE_SEED: u64 = 2023;
/// Spatial-information columns (lat, lon) of every workload.
pub const SI_COLS: usize = 2;
const LAMBDA: f64 = 10.0;
const P: usize = 5;
/// Relative slack of the objective monotonicity check, as in the
/// telemetry-observed suite `crates/core/tests/monotonicity.rs`.
const MONOTONE_SLACK: f64 = 1e-9;
/// Fixed iteration budget of a cold fit (`tol = 0`).
pub const COLD_ITERS: usize = 30;
/// Fixed iteration budget of one warm refit: two, so every refit's
/// objective history has a step the monotonicity check can judge.
pub const REFIT_ITERS: usize = 2;
/// The tune grid's `λ` values (the ranks are per workload), 2 folds.
pub const TUNE_LAMBDAS: [f64; 2] = [1.0, 10.0];

pub struct Spec {
    pub name: &'static str,
    /// Factorization rank `K` of the cold fits.
    pub rank: usize,
    /// Share of attribute cells made missing.
    pub missing_rate: f64,
    /// Whether the multiplicative step takes the dense `ops` path
    /// (observed density above `DENSE_PATH_THRESHOLD`) rather than the
    /// sparse kernels. The traced run checks it against the counters.
    pub dense_path: bool,
    /// Fixed iteration budget of every grid-search fit.
    pub tune_iters: usize,
    /// Ranks of the tune grid.
    pub tune_ranks: &'static [usize],
}

pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "vehicle-paper",
        rank: 8,
        missing_rate: 0.1,
        dense_path: true,
        tune_iters: 3,
        tune_ranks: &[8],
    },
    Spec {
        name: "synth-sparse",
        rank: 20,
        missing_rate: 0.8,
        dense_path: false,
        tune_iters: 10,
        tune_ranks: &[10, 20],
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// Seeded inputs of one run: ground truth, the observed matrix (zero
/// placeholders outside `omega`), and the missing cells `psi`.
pub struct Data {
    pub truth: Matrix,
    pub x: Matrix,
    pub omega: Mask,
    pub psi: Mask,
}

impl Spec {
    /// The SMFL config of this workload: multiplicative updater, λ = 10,
    /// p = 5, the given rank and budget, no early stop, and the default
    /// seed of the factor initialisation and validation folds.
    pub fn config(&self, rank: usize, iters: usize) -> SmflConfig {
        SmflConfig::smfl(rank, SI_COLS)
            .with_lambda(LAMBDA)
            .with_p(P)
            .with_max_iter(iters)
            .with_tol(0.0)
    }

    pub fn generate(&self, seed: u64) -> Data {
        let ds: Dataset = match self.name {
            "vehicle-paper" => vehicle(Scale::Paper, TABLE_SEED),
            _ => {
                let attrs = 498;
                let mut columns = vec!["lat".to_string(), "lon".to_string()];
                columns.extend((0..attrs).map(|j| format!("a{j}")));
                spatial_dataset(
                    "synth",
                    columns,
                    &GeneratorConfig::new(2_000, attrs, TABLE_SEED),
                )
            }
        };
        let attrs = ds.attribute_cols();
        let inj = inject_missing(
            &ds.data,
            &attrs,
            self.missing_rate,
            RESERVED_ROWS,
            seed ^ 0x5eed,
        );
        Data {
            truth: ds.data,
            x: inj.corrupted,
            omega: inj.omega,
            psi: inj.psi,
        }
    }
}

/// RMS of `imputed` against `truth` over `psi`.
pub fn rmse_over(imputed: &Matrix, truth: &Matrix, psi: &Mask) -> f64 {
    let (mut se, mut n) = (0.0, 0usize);
    for (i, j) in psi.iter_set() {
        let d = imputed.get(i, j) - truth.get(i, j);
        se += d * d;
        n += 1;
    }
    (se / n.max(1) as f64).sqrt()
}

/// RMS over `psi` of imputing every missing cell with its column's
/// observed mean — the floor every cold fit must beat.
pub fn column_mean_rmse(x: &Matrix, omega: &Mask, truth: &Matrix, psi: &Mask) -> f64 {
    let m = x.cols();
    let (mut sum, mut cnt) = (vec![0.0; m], vec![0usize; m]);
    for (i, j) in omega.iter_set() {
        sum[j] += x.get(i, j);
        cnt[j] += 1;
    }
    let (mut se, mut n) = (0.0, 0usize);
    for (i, j) in psi.iter_set() {
        let d = sum[j] / cnt[j].max(1) as f64 - truth.get(i, j);
        se += d * d;
        n += 1;
    }
    (se / n.max(1) as f64).sqrt()
}

/// The output checks of every fit and refit: a finite imputation, a
/// non-increasing objective and intact landmarks.
pub fn check_model(
    model: &FittedModel,
    landmarks: Option<&Landmarks>,
    imputed: &Matrix,
) -> Vec<String> {
    let mut problems = Vec::new();
    if !imputed.all_finite() {
        problems.push("imputed output is not finite".to_string());
    }
    let h = &model.objective_history;
    if let Some(t) = h
        .windows(2)
        .position(|w| w[1] > w[0] + MONOTONE_SLACK * w[0].abs().max(1.0))
    {
        problems.push(format!("objective increased at iteration {}", t + 1));
    }
    if h.is_empty() {
        problems.push("no iteration ran".to_string());
    }
    match landmarks {
        Some(lm) if !lm.verify_injected(&model.v) => {
            problems.push("landmark columns of V moved".to_string());
        }
        None => problems.push("fit has no landmarks".to_string()),
        _ => {}
    }
    problems
}

/// [`check_model`] plus the check of a cold fit: its RMS over `psi`
/// must beat the column-mean floor. Returns the failed checks and the RMS.
pub fn check_fit(
    model: &FittedModel,
    landmarks: Option<&Landmarks>,
    imputed: &Matrix,
    data: (&Matrix, &Mask, &Matrix, &Mask),
) -> (Vec<String>, f64) {
    let (x, omega, truth, psi) = data;
    let mut problems = check_model(model, landmarks, imputed);
    let rmse = rmse_over(imputed, truth, psi);
    let floor = column_mean_rmse(x, omega, truth, psi);
    if rmse.is_nan() || rmse >= floor {
        problems.push(format!("rmse {rmse} does not beat column means {floor}"));
    }
    (problems, rmse)
}

/// `true` when both matrices hold the same bits.
pub fn bitwise_eq(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(p, q)| p.to_bits() == q.to_bits())
}

/// The refit stream's world: the current truth (which drifts), the
/// observed matrix and its mask. Batches mutate it in place, outside
/// every timer.
pub struct Stream {
    pub truth: Matrix,
    pub x: Matrix,
    pub omega: Mask,
    rng: StdRng,
    /// Cells touched per batch.
    touched: usize,
}

impl Stream {
    pub fn new(data: &Data, seed: u64) -> Stream {
        Stream {
            truth: data.truth.clone(),
            x: data.x.clone(),
            omega: data.omega.clone(),
            rng: StdRng::seed_from_u64(seed ^ 0x57e4),
            touched: (data.x.rows() / 100).max(1),
        }
    }

    fn attribute_cell(&mut self) -> (usize, usize) {
        let (n, m) = self.x.shape();
        (self.rng.gen_range(0..n), self.rng.gen_range(SI_COLS..m))
    }

    /// Value-only drift: observed attribute cells move by up to ±2%
    /// (clamped to the normalized range); the mask is unchanged.
    pub fn drift(&mut self) {
        for _ in 0..self.touched {
            let (i, j) = self.attribute_cell();
            if self.omega.get(i, j) {
                let v = (self.truth.get(i, j) * self.rng.gen_range(0.98f64..1.02)).clamp(0.0, 1.0);
                self.truth.set(i, j, v);
                self.x.set(i, j, v);
            }
        }
    }

    /// Mask change: as many missing attribute cells are revealed as
    /// observed ones are hidden, so the density stays put.
    pub fn remask(&mut self) {
        let per_side = (self.touched / 2).max(1);
        let (mut revealed, mut hidden) = (0, 0);
        while revealed < per_side || hidden < per_side {
            let (i, j) = self.attribute_cell();
            if self.omega.get(i, j) {
                if hidden < per_side {
                    self.omega.set(i, j, false);
                    self.x.set(i, j, 0.0);
                    hidden += 1;
                }
            } else if revealed < per_side {
                self.omega.set(i, j, true);
                self.x.set(i, j, self.truth.get(i, j));
                revealed += 1;
            }
        }
    }
}
