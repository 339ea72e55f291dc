//! Plan repair: the graceful-degradation ladder of the fault-tolerant
//! engine (DESIGN.md §10), applied at *compile* time.
//!
//! Every rung mutates the [`crate::plan::FitPlan`] under construction —
//! de-duplicating coordinates, re-seeding landmark
//! k-means, dropping the Laplacian or the landmarks — and records what
//! it did in the plan's [`FitReport`], so the solve loop
//! ([`crate::engine`]) only ever sees a usable plan. The in-loop
//! machinery (health sentinel, checkpoint/rollback, bounded restarts)
//! stays in the engine; the deterministic seed derivation and restart
//! perturbation it shares with this module live here.

use crate::config::SmflConfig;
use crate::health::{FitEvent, FitReport};
use crate::landmarks::Landmarks;
use crate::telemetry::{Phase, SpanEvent, TraceSink};
use smfl_linalg::{Matrix, Result};
use smfl_spatial::{dedupe_coordinates, NeighborSearch, SpatialGraph};

/// Restarts (in the update loop) and landmark retries (at compile
/// time) allowed before the engine gives up on a stage. No caller has
/// ever needed another bound: two cover the recoveries the suites
/// exercise (a GD step quartered; one dedupe + re-seed of collapsed
/// k-means centres) and keep the extra cost of a hopeless fit small.
pub(crate) const MAX_RESTARTS: usize = 2;

/// Deterministic seed derivation for retries — `salt = 0` returns the
/// base seed unchanged so the clean path is bitwise-stable.
pub(crate) fn derive_seed(seed: u64, salt: u64) -> u64 {
    seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// `true` when the landmark matrix is usable: all-finite with pairwise
/// distinct rows (duplicate centres make the frozen columns of `V`
/// linearly dependent — the "degenerate landmarks" failure).
pub(crate) fn landmarks_healthy(lm: &Landmarks) -> bool {
    if !lm.centers.all_finite() {
        return false;
    }
    let (k, l) = lm.centers.shape();
    for a in 0..k {
        for b in a + 1..k {
            if (0..l).all(|j| lm.centers.get(a, j) == lm.centers.get(b, j)) {
                return false;
            }
        }
    }
    true
}

/// Landmark generation with the bounded deterministic retry policy:
/// attempt 0 is bitwise-identical to the non-resilient path; on a
/// degenerate result the coordinates are de-duplicated (jitter-free)
/// and k-means re-seeded, up to [`MAX_RESTARTS`] times; then landmarks
/// are dropped (the last rung of the ladder before plain NMF).
pub(crate) fn landmarks_resilient(
    si: &Matrix,
    k: usize,
    config: &SmflConfig,
    report: &mut FitReport,
) -> Option<Landmarks> {
    let mut si_work: Option<Matrix> = None;
    for attempt in 0..=MAX_RESTARTS {
        let src = si_work.as_ref().unwrap_or(si);
        let seed = derive_seed(config.seed, attempt as u64);
        if let Ok(lm) = Landmarks::compute(src, k, config.kmeans_max_iter, seed) {
            if landmarks_healthy(&lm) {
                return Some(lm);
            }
        }
        if attempt == MAX_RESTARTS {
            break;
        }
        if si_work.is_none() {
            let mut copy = si.clone();
            let rows = dedupe_coordinates(&mut copy);
            if rows > 0 {
                report.events.push(FitEvent::CoordinatesDeduped { rows });
            }
            si_work = Some(copy);
        }
        report.events.push(FitEvent::LandmarksRetried { attempt: attempt + 1 });
    }
    report.events.push(FitEvent::LandmarksDropped { reason: "degenerate after bounded retries" });
    None
}

/// Graph construction with the degradation checks of the ladder's first
/// rung: a failed build, non-finite edge weights, an edgeless graph or
/// a disconnected one all drop the Laplacian term (recorded), leaving
/// landmarks intact.
pub(crate) fn graph_resilient<S: TraceSink>(
    si: &Matrix,
    n: usize,
    config: &SmflConfig,
    report: &mut FitReport,
    sink: &mut S,
) -> Option<SpatialGraph> {
    let reason = match build_graph_traced(si, config, sink) {
        Err(_) => "graph construction failed",
        Ok(g) => {
            if !g.all_finite() {
                "non-finite edge weights"
            } else if n > 1 && g.similarity.nnz() == 0 {
                "edgeless graph"
            } else if !g.is_connected() {
                "disconnected graph"
            } else {
                return Some(g);
            }
        }
    };
    report.events.push(FitEvent::LaplacianDropped { reason });
    None
}

/// `SpatialGraph::build_weighted` on the kd-tree, emitting the
/// kNN/assembly sub-spans when the sink is enabled (the disabled path
/// calls the plain builder so no clock is ever read).
pub(crate) fn build_graph_traced<S: TraceSink>(
    si: &Matrix,
    config: &SmflConfig,
    sink: &mut S,
) -> Result<SpatialGraph> {
    if S::ENABLED {
        let (g, stats) = SpatialGraph::build_instrumented(
            si,
            config.p_neighbors,
            NeighborSearch::KdTree,
            config.weighting,
            0,
        )?;
        sink.span(&SpanEvent { phase: Phase::GraphKnn, wall: stats.knn });
        sink.span(&SpanEvent { phase: Phase::GraphAssembly, wall: stats.assembly });
        Ok(g)
    } else {
        SpatialGraph::build_weighted(
            si,
            config.p_neighbors,
            NeighborSearch::KdTree,
            config.weighting,
        )
    }
}

/// `dst = (dst + fresh) / 2` elementwise — the deterministic restart
/// perturbation for the multiplicative/HALS optimizers (both operands
/// positive, so feasibility is preserved).
pub(crate) fn blend_half(dst: &mut Matrix, fresh: &Matrix) {
    for (a, &b) in dst.as_mut_slice().iter_mut().zip(fresh.as_slice()) {
        *a = 0.5 * (*a + b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SmflConfig;
    use crate::health::FitReport;
    use crate::model::fit;
    use smfl_linalg::Mask;

    /// Synthetic low-rank nonnegative data with two leading coordinate
    /// columns — a miniature of the paper's setting.
    fn spatial_data(n: usize, m: usize, seed: u64) -> Matrix {
        let u = smfl_linalg::random::positive_uniform_matrix(n, 3, seed);
        let v = smfl_linalg::random::positive_uniform_matrix(3, m, seed + 1);
        smfl_linalg::ops::matmul(&u, &v).unwrap().scale(1.0 / 3.0)
    }

    fn drop_cells(n: usize, m: usize, frac_inv: usize) -> Mask {
        let mut omega = Mask::full(n, m);
        for i in 0..n {
            if i % frac_inv == 0 {
                omega.set(i, (i * 5 + 2) % m, false);
            }
        }
        omega
    }

    #[test]
    fn resilient_matches_default_on_clean_data() {
        let x = spatial_data(30, 6, 41);
        let omega = drop_cells(30, 6, 4);
        // p = 8 keeps the kNN graph connected on this data, so no rung
        // of the degradation ladder fires and both paths see the same
        // model.
        let cfg = SmflConfig::smfl(3, 2).with_p(8).with_max_iter(40).with_seed(5);
        let plain = fit(&x, &omega, &cfg).unwrap();
        let resilient = fit(&x, &omega, &cfg.clone().resilient()).unwrap();
        assert!(plain.u.approx_eq(&resilient.u, 1e-9));
        assert!(plain.v.approx_eq(&resilient.v, 1e-9));
        assert_eq!(resilient.report.restarts(), 0);
        assert!(resilient.report.failure().is_none());
        assert!(resilient.report.events.is_empty(), "{:?}", resilient.report.events);
        // The default path carries an empty report.
        assert_eq!(plain.report, FitReport::default());
    }

    #[test]
    fn resilient_gd_restarts_and_returns_best_iterate() {
        // A learning rate this large makes projected GD diverge; the
        // resilient engine must restart (halving the rate) and hand back
        // the best recorded iterate rather than garbage.
        let x = spatial_data(25, 5, 42);
        let omega = drop_cells(25, 5, 3);
        let cfg = SmflConfig::nmf(3)
            .with_gradient_descent(5.0)
            .with_max_iter(60)
            .resilient();
        let model = fit(&x, &omega, &cfg).unwrap();
        assert!(model.u.all_finite() && model.v.all_finite());
        assert!(model.report.restarts() >= 1, "{:?}", model.report);
        assert!(model
            .report
            .events
            .iter()
            .any(|e| matches!(e, FitEvent::Restarted { .. })));
        // Returned factors evaluate to the best objective ever recorded.
        let best = model
            .objective_history
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let returned =
            crate::objective::objective(&x, &omega, &model.u, &model.v, 0.0, None).unwrap();
        assert!(
            (returned - best).abs() <= 1e-8 * best.abs().max(1.0),
            "returned {returned} vs best recorded {best}"
        );
    }

    #[test]
    fn resilient_sanitizes_non_finite_cells() {
        let mut x = spatial_data(25, 5, 43);
        x.set(2, 3, f64::NAN);
        x.set(7, 4, f64::INFINITY);
        x.set(11, 2, -4.0); // negative under multiplicative: also masked
        let omega = Mask::full(25, 5);
        // Fail-fast path rejects...
        assert!(fit(&x, &omega, &SmflConfig::smfl(3, 2)).is_err());
        // ...the resilient path repairs and fits.
        let model =
            fit(&x, &omega, &SmflConfig::smfl(3, 2).with_max_iter(30).resilient()).unwrap();
        assert!(model.u.all_finite() && model.v.all_finite());
        assert_eq!(model.report.sanitized_cells(), 3);
        assert!(model
            .report
            .events
            .iter()
            .any(|e| matches!(e, FitEvent::Sanitized { cells: 3 })));
        assert!(model.report.failure().is_none());
    }

    #[test]
    fn resilient_drops_laplacian_on_disconnected_graph() {
        // Two clusters far apart with p = 1: the kNN graph splits into
        // two components, so the resilient engine drops the spatial term
        // and records it.
        let n = 20;
        let x = Matrix::from_fn(n, 5, |i, j| {
            let base = if i < n / 2 { 0.0 } else { 1000.0 };
            match j {
                0 => base + (i % 10) as f64 * 0.01,
                1 => base,
                _ => 0.3 + 0.01 * (i as f64) / n as f64,
            }
        });
        let omega = Mask::full(n, 5);
        let cfg = SmflConfig::smf(3, 2).with_p(1).with_max_iter(20);
        // Default path fits happily (a disconnected Laplacian is still
        // PSD) — no behavior change there.
        assert!(fit(&x, &omega, &cfg).is_ok());
        let model = fit(&x, &omega, &cfg.clone().resilient()).unwrap();
        assert!(model.report.degraded());
        assert!(model
            .report
            .events
            .iter()
            .any(|e| matches!(e, FitEvent::LaplacianDropped { reason: "disconnected graph" })));
        assert!(model.u.all_finite() && model.v.all_finite());
    }

    #[test]
    fn resilient_retries_landmarks_on_duplicate_coordinates() {
        // Every coordinate identical: k-means centres collapse, which
        // the resilient engine repairs by deterministic de-duplication
        // plus a re-seeded retry — landmarks survive.
        let n = 24;
        let x = Matrix::from_fn(n, 5, |i, j| match j {
            0 | 1 => 0.5,
            _ => 0.2 + 0.02 * ((i * 7 + j) % 11) as f64,
        });
        let omega = Mask::full(n, 5);
        let cfg = SmflConfig::smfl(3, 2).with_max_iter(15).resilient();
        let model = fit(&x, &omega, &cfg).unwrap();
        assert!(
            model.landmarks.is_some(),
            "landmarks should survive via retry: {:?}",
            model.report.events
        );
        assert!(model
            .report
            .events
            .iter()
            .any(|e| matches!(e, FitEvent::CoordinatesDeduped { .. })));
        assert!(model
            .report
            .events
            .iter()
            .any(|e| matches!(e, FitEvent::LandmarksRetried { .. })));
        assert!(model.report.deduped_rows() > 0);
        // The surviving landmark rows are pairwise distinct.
        let lm = &model.landmarks.as_ref().unwrap().centers;
        for a in 0..lm.rows() {
            for b in a + 1..lm.rows() {
                assert!(
                    (0..lm.cols()).any(|j| lm.get(a, j) != lm.get(b, j)),
                    "duplicate landmark rows {a} and {b}"
                );
            }
        }
    }

    #[test]
    fn resilient_report_is_deterministic() {
        let mut x = spatial_data(25, 5, 44);
        x.set(3, 2, f64::NAN);
        let omega = drop_cells(25, 5, 3);
        let cfg = SmflConfig::smfl(3, 2).with_max_iter(25).with_seed(11).resilient();
        let a = fit(&x, &omega, &cfg).unwrap();
        let b = fit(&x, &omega, &cfg).unwrap();
        assert_eq!(a.report, b.report);
        assert!(a.u.approx_eq(&b.u, 0.0));
        assert!(a.v.approx_eq(&b.v, 0.0));
    }
}
