//! The multiplicative step (Formulas 13/14) against the dense step it
//! replaced: three allocating `masked_product` calls, dense
//! `matmul_bt` / `matmul_at` products and the `masked_diff_norm_sq`
//! fit-term scan, written out here with no engine code at all.
//!
//! The engine serves the step from a compiled [`ObservedPattern`]:
//! SDDMM/SpMM kernels below `DENSE_PATH_THRESHOLD` density, a dense
//! path above it. The densities swept here cover both sides, and both
//! must track the reference to 1e-10 relative on the factors and on the
//! returned fit term over several iterations.

use smfl_core::updater::{multiplicative_step, UpdateContext};
use smfl_linalg::mask::{masked_diff_norm_sq, masked_product};
use smfl_linalg::ops::{matmul_at, matmul_bt};
use smfl_linalg::random::{positive_uniform_matrix, uniform_matrix};
use smfl_linalg::{Mask, Matrix, ObservedPattern, Workspace};

const EPS: f64 = 1e-12;
const TOLERANCE: f64 = 1e-10;

/// Random positive data with each cell observed with probability
/// `density`; row 0 is fully observed so no column is empty.
fn problem(n: usize, m: usize, density: f64, seed: u64) -> (Matrix, Mask) {
    let x = positive_uniform_matrix(n, m, seed);
    let sel = uniform_matrix(n, m, 0.0, 1.0, seed.wrapping_add(1));
    let mut omega = Mask::empty(n, m);
    for i in 0..n {
        for j in 0..m {
            if sel.get(i, j) < density {
                omega.set(i, j, true);
            }
        }
    }
    for j in 0..m {
        omega.set(0, j, true);
    }
    (x, omega)
}

/// One multiplicative step without graph terms or landmarks, every
/// product allocating, followed by the fit-term scan
/// `‖R_Ω(X − UV)‖_F²` on the updated factors.
fn dense_reference_step(masked_x: &Matrix, omega: &Mask, u: &mut Matrix, v: &mut Matrix) -> f64 {
    // U update (Formula 13).
    let r = masked_product(u, v, omega).unwrap(); // R_Ω(UV)
    let numer_u = matmul_bt(masked_x, v).unwrap(); // R_Ω(X)·Vᵀ
    let denom_u = matmul_bt(&r, v).unwrap(); // R_Ω(UV)·Vᵀ
    for ((uv, &n), &d) in u
        .as_mut_slice()
        .iter_mut()
        .zip(numer_u.as_slice())
        .zip(denom_u.as_slice())
    {
        *uv *= n / (d + EPS);
    }

    // V update (Formula 14), with the refreshed U.
    let r = masked_product(u, v, omega).unwrap();
    let numer_v = matmul_at(u, masked_x).unwrap(); // Uᵀ·R_Ω(X)
    let denom_v = matmul_at(u, &r).unwrap(); // Uᵀ·R_Ω(UV)
    for k in 0..v.rows() {
        for j in 0..v.cols() {
            let val = v.get(k, j) * numer_v.get(k, j) / (denom_v.get(k, j) + EPS);
            v.set(k, j, val);
        }
    }

    let r = masked_product(u, v, omega).unwrap();
    masked_diff_norm_sq(masked_x, &r, omega).unwrap()
}

/// Largest elementwise difference, relative to `max(|a|, |b|, 1)`.
fn max_rel_diff(a: &Matrix, b: &Matrix) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| (x - y).abs() / x.abs().max(y.abs()).max(1.0))
        .fold(0.0, f64::max)
}

#[test]
fn multiplicative_step_matches_dense_reference_across_densities() {
    let (n, m, k) = (300, 60, 6);
    let mut paths = [false, false];
    for density in [0.05, 0.2, 0.5, 0.9] {
        let (x, omega) = problem(n, m, density, 1);
        let masked_x = omega.apply(&x).unwrap();
        let pattern = ObservedPattern::compile(&x, &omega).unwrap();
        paths[usize::from(pattern.prefers_dense())] = true;

        let ctx = UpdateContext {
            masked_x: &masked_x,
            omega: &omega,
            pattern: &pattern,
            graph: None,
            lambda: 0.0,
            landmarks: None,
        };
        let mut ws = Workspace::new(&pattern, k);
        let u0 = positive_uniform_matrix(n, k, 3).scale(1.0 / k as f64);
        let v0 = positive_uniform_matrix(k, m, 4);
        let (mut ue, mut ve) = (u0.clone(), v0.clone());
        let (mut ud, mut vd) = (u0, v0);
        for iter in 0..3 {
            let fe = multiplicative_step(&ctx, &mut ws, &mut ue, &mut ve).unwrap();
            let fd = dense_reference_step(&masked_x, &omega, &mut ud, &mut vd);
            let fit_diff = (fe - fd).abs() / fd.abs().max(1.0);
            assert!(
                fit_diff <= TOLERANCE,
                "fit term diverged at density {density}, iteration {iter}: {fit_diff:.2e}"
            );
        }
        let factor_diff = max_rel_diff(&ue, &ud).max(max_rel_diff(&ve, &vd));
        assert!(
            factor_diff <= TOLERANCE,
            "factors diverged at density {density}: {factor_diff:.2e}"
        );
    }
    assert_eq!(
        paths,
        [true, true],
        "the sweep must exercise both kernel paths"
    );
}
