//! Numeric-health monitoring and the fault-tolerance vocabulary of the
//! resilient fit engine (DESIGN.md §10).
//!
//! The paper's Propositions 5/7 guarantee a non-increasing objective
//! only on clean inputs; real spatial tables carry NaN cells, duplicate
//! coordinates and degenerate neighbourhoods. This module supplies
//!
//! - [`DENOM_EPS`] — the single denominator/epsilon guard shared by the
//!   multiplicative rules, HALS and every other division-by-maybe-zero
//!   site in the optimizers (previously scattered ad-hoc `1e-12`s);
//! - [`FitFailure`] — the failure taxonomy the per-iteration sentinel
//!   classifies into (`NonFinite`, `Diverged`);
//! - [`FitEvent`] / [`FitReport`] — the audit trail of every
//!   sanitization, degradation, restart, failure and rollback step,
//!   attached to the returned `FittedModel` and deterministic for a
//!   given input and seed (no wall-clock, no thread-count dependence);
//! - [`classify`] — the sentinel itself: an `O(N·K + K·M)` scan of the
//!   factors plus checks on the already-computed objective.

use smfl_linalg::Matrix;

/// The one denominator guard of the optimizer family.
///
/// Every multiplicative ratio `n / (d + DENOM_EPS)` and HALS coordinate
/// quotient uses this constant, following standard Lee–Seung practice:
/// large enough to keep `0/0 → 0` instead of NaN, small enough
/// (`1e-12`, far below the unit-normalized data scale) not to bias any
/// update with a non-vanishing denominator.
pub const DENOM_EPS: f64 = 1e-12;

/// Relative objective-increase tolerance before an iteration is
/// classified [`FitFailure::Diverged`]. One value serves every updater:
/// it sits three orders above the `1e-9` slack at which the theorem
/// suite sees the multiplicative rules' FP noise, and far below any
/// genuine divergence.
const DIVERGENCE_TOL: f64 = 1e-6;

/// How a fit iteration failed, as classified by the health sentinel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitFailure {
    /// A factor entry or the objective became NaN/±Inf.
    NonFinite,
    /// The objective rose beyond the divergence tolerance.
    Diverged,
}

/// One recorded step of the resilient engine's recovery machinery, in
/// the order it happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FitEvent {
    /// Input sanitization masked out this many unusable observed cells
    /// (non-finite, or negative under a multiplicative updater).
    Sanitized {
        /// Number of cells removed from `Ω`.
        cells: usize,
    },
    /// Duplicate spatial coordinates were tie-broken before a landmark
    /// retry (deterministic rank-based offsets, no jitter).
    CoordinatesDeduped {
        /// Number of coordinate rows that were offset.
        rows: usize,
    },
    /// The spatial-regularization term was dropped (SMFL/SMF → the
    /// landmark-only / plain objective).
    LaplacianDropped {
        /// Why the graph was rejected.
        reason: &'static str,
    },
    /// Landmark k-means was re-run with a perturbed seed after a
    /// degenerate result.
    LandmarksRetried {
        /// 1-based retry attempt.
        attempt: usize,
    },
    /// Landmarks were abandoned after bounded retries (SMFL → NMF along
    /// the degradation ladder).
    LandmarksDropped {
        /// Why landmark generation was given up on.
        reason: &'static str,
    },
    /// The update loop hit a classified failure and restarted from the
    /// last-good checkpoint with a deterministic perturbation.
    Restarted {
        /// Iteration (0-based) at which the failure was detected.
        iteration: usize,
        /// The classification that triggered the restart.
        failure: FitFailure,
    },
    /// The update loop hit a classified failure with its restarts used
    /// up and stopped; the fit returns its best iterate instead.
    Failed {
        /// Iteration (0-based) at which the failure was detected.
        iteration: usize,
        /// The terminal classification.
        failure: FitFailure,
    },
    /// The final factors were rolled back to the best recorded iterate.
    RolledBack {
        /// Number of accepted iterations at rollback time.
        iteration: usize,
    },
}

/// Audit trail of a fit, attached to `FittedModel::report`: its events,
/// in order, with every summary computed from them.
///
/// Empty for non-resilient fits. Deterministic: the same input,
/// configuration and seed produce the identical report under any
/// `SMFL_THREADS` setting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FitReport {
    /// Every sanitization/degradation/restart/failure/rollback step, in
    /// order.
    pub events: Vec<FitEvent>,
}

impl FitReport {
    /// Number of checkpoint restarts performed.
    pub fn restarts(&self) -> usize {
        self.events.iter().filter(|e| matches!(e, FitEvent::Restarted { .. })).count()
    }

    /// Observed cells masked out by input sanitization (compile and
    /// every rebind since).
    pub fn sanitized_cells(&self) -> usize {
        self.events
            .iter()
            .map(|e| match e {
                FitEvent::Sanitized { cells } => *cells,
                _ => 0,
            })
            .sum()
    }

    /// Coordinate rows modified by de-duplication.
    pub fn deduped_rows(&self) -> usize {
        self.events
            .iter()
            .map(|e| match e {
                FitEvent::CoordinatesDeduped { rows } => *rows,
                _ => 0,
            })
            .sum()
    }

    /// Whether the returned factors are a rolled-back checkpoint rather
    /// than the last iterate.
    pub fn rolled_back(&self) -> bool {
        self.events.iter().any(|e| matches!(e, FitEvent::RolledBack { .. }))
    }

    /// Terminal classification when the engine gave up restarting and
    /// returned the best iterate instead (`None` for a clean fit).
    pub fn failure(&self) -> Option<FitFailure> {
        self.events.iter().find_map(|e| match e {
            FitEvent::Failed { failure, .. } => Some(*failure),
            _ => None,
        })
    }

    /// `true` when any degradation-ladder step fired (Laplacian or
    /// landmarks dropped).
    pub fn degraded(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e,
                FitEvent::LaplacianDropped { .. } | FitEvent::LandmarksDropped { .. }
            )
        })
    }
}

/// The per-iteration sentinel: classifies the state after one update
/// step, or returns `None` when the iteration is healthy.
///
/// Cost: one pass over `U` and `V` (`O(N·K + K·M)`) — small next to the
/// `O(|Ω|·K)` update itself — plus constant-time objective checks. The
/// objective comparison is against the *previous accepted* value
/// (`prev`), matching the paper's monotonicity statement.
pub fn classify(obj: f64, prev: Option<f64>, u: &Matrix, v: &Matrix) -> Option<FitFailure> {
    if !obj.is_finite() || !u.all_finite() || !v.all_finite() {
        return Some(FitFailure::NonFinite);
    }
    match prev {
        Some(p) if obj > p + DIVERGENCE_TOL * p.abs().max(1.0) => Some(FitFailure::Diverged),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_iteration_passes() {
        let u = Matrix::filled(3, 2, 0.5);
        let v = Matrix::filled(2, 4, 0.5);
        assert_eq!(classify(1.0, Some(2.0), &u, &v), None);
        assert_eq!(classify(1.0, None, &u, &v), None);
    }

    #[test]
    fn non_finite_factors_or_objective_detected() {
        let mut u = Matrix::filled(3, 2, 0.5);
        let v = Matrix::filled(2, 4, 0.5);
        assert_eq!(classify(f64::NAN, Some(1.0), &u, &v), Some(FitFailure::NonFinite));
        assert_eq!(classify(f64::INFINITY, None, &u, &v), Some(FitFailure::NonFinite));
        u.set(1, 1, f64::NAN);
        assert_eq!(classify(1.0, Some(2.0), &u, &v), Some(FitFailure::NonFinite));
    }

    #[test]
    fn divergence_beyond_tolerance_detected() {
        let u = Matrix::filled(2, 2, 0.5);
        let v = Matrix::filled(2, 2, 0.5);
        // Tiny FP rise within tolerance: healthy.
        assert_eq!(classify(1.0 + 1e-9, Some(1.0), &u, &v), None);
        // Clear rise: diverged.
        assert_eq!(classify(1.5, Some(1.0), &u, &v), Some(FitFailure::Diverged));
        // First iteration has no baseline.
        assert_eq!(classify(1e12, None, &u, &v), None);
    }

    #[test]
    fn non_finite_takes_precedence() {
        let u = Matrix::filled(2, 2, f64::INFINITY);
        let v = Matrix::filled(2, 2, 0.5);
        assert_eq!(classify(2.0, Some(1.0), &u, &v), Some(FitFailure::NonFinite));
    }

    #[test]
    fn report_accessors_read_the_events() {
        let mut r = FitReport::default();
        assert!(!r.degraded() && !r.rolled_back());
        assert_eq!((r.restarts(), r.sanitized_cells(), r.deduped_rows()), (0, 0, 0));
        assert_eq!(r.failure(), None);
        r.events.push(FitEvent::Sanitized { cells: 3 });
        r.events.push(FitEvent::CoordinatesDeduped { rows: 5 });
        assert!(!r.degraded());
        r.events.push(FitEvent::LaplacianDropped { reason: "disconnected" });
        assert!(r.degraded());
        // A rebind appends its own sanitization.
        r.events.push(FitEvent::Sanitized { cells: 2 });
        r.events.push(FitEvent::Restarted { iteration: 1, failure: FitFailure::Diverged });
        r.events.push(FitEvent::Restarted { iteration: 4, failure: FitFailure::NonFinite });
        r.events.push(FitEvent::Failed { iteration: 6, failure: FitFailure::Diverged });
        r.events.push(FitEvent::RolledBack { iteration: 6 });
        assert_eq!((r.restarts(), r.sanitized_cells(), r.deduped_rows()), (2, 5, 5));
        assert_eq!(r.failure(), Some(FitFailure::Diverged));
        assert!(r.rolled_back());
    }
}
