//! Arithmetic of the per-layer ledger: what the optimizer trace implies about
//! the work a fit did, and how much of the fit's wall time the measured layers
//! account for.

/// Trial steps `maximize_fobj`'s backtracking line search makes before it
/// gives up on an iteration (steps 1, 1/2, …, 1/2¹¹).
pub const LINE_SEARCH_TRIALS: u32 = 12;

/// One BFGS iteration as the optimizer trace records it.
#[derive(Clone, Copy, Debug)]
pub struct StepRecord {
    /// Accepted step length (`0` when no step was taken).
    pub step: f64,
    /// Gradient norm at the start of the iteration.
    pub grad_norm: f64,
}

/// Gradient evaluations (`2·dim θ + 1` objective evaluations each) one
/// `maximize_fobj` call spent, derived from its trace.
///
/// The optimizer evaluates one gradient at the start point, then per
/// iteration evaluates a full gradient at every line-search trial: a step
/// `2⁻ᵏ` was accepted at trial `k + 1`; a zero step is either convergence
/// (`grad_norm < grad_tol`, no trial) or an exhausted search
/// ([`LINE_SEARCH_TRIALS`] trials). Returns `None` for a step that is not a
/// power of two in `(0, 1]`, which this optimizer cannot produce.
pub fn gradients_from_steps(trace: &[StepRecord], grad_tol: f64) -> Option<u64> {
    let mut gradients = 1u64;
    for rec in trace {
        gradients += if rec.step == 0.0 {
            if rec.grad_norm < grad_tol {
                0
            } else {
                u64::from(LINE_SEARCH_TRIALS)
            }
        } else {
            let k = -rec.step.log2();
            if !(0.0..f64::from(LINE_SEARCH_TRIALS)).contains(&k) || k.fract() != 0.0 {
                return None;
            }
            k as u64 + 1
        };
    }
    Some(gradients)
}

/// Share of line-search gradient evaluations that ended in an accepted step
/// (`None` when the search never ran).
pub fn line_search_accept_ratio(trace: &[StepRecord], gradients: u64) -> Option<f64> {
    let accepted = trace.iter().filter(|r| r.step > 0.0).count();
    let trials = gradients.checked_sub(1).filter(|&t| t > 0)?;
    Some(accepted as f64 / trials as f64)
}

/// Share of a fit's wall time that the measured layers do not account for:
/// `1 − (gradients · gradient_s + hessian_s + marginals_s) / fit_s`.
/// Negative when the per-gradient estimate overstates the gradients the fit
/// actually ran.
pub fn unattributed_frac(
    gradients: u64,
    gradient_s: f64,
    hessian_s: f64,
    marginals_s: f64,
    fit_s: f64,
) -> f64 {
    1.0 - (gradients as f64 * gradient_s + hessian_s + marginals_s) / fit_s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(step: f64, grad_norm: f64) -> StepRecord {
        StepRecord { step, grad_norm }
    }

    #[test]
    fn gradients_count_the_start_point_and_every_line_search_trial() {
        // Nothing but the start gradient.
        assert_eq!(gradients_from_steps(&[], 1e-3), Some(1));
        // Step 2⁻⁹ is the tenth trial: 1 + 10.
        assert_eq!(
            gradients_from_steps(&[rec(0.001953125, 900.0)], 1e-3),
            Some(11)
        );
        // A full step is accepted at the first trial.
        assert_eq!(
            gradients_from_steps(&[rec(1.0, 5.0), rec(0.25, 2.0)], 1e-3),
            Some(1 + 1 + 3)
        );
        // Convergence costs no trial; an exhausted search costs all twelve.
        assert_eq!(
            gradients_from_steps(&[rec(0.5, 3.0), rec(0.0, 1e-4)], 1e-3),
            Some(1 + 2)
        );
        assert_eq!(gradients_from_steps(&[rec(0.0, 0.5)], 1e-3), Some(1 + 12));
    }

    #[test]
    fn gradients_reject_steps_the_optimizer_cannot_take() {
        assert_eq!(gradients_from_steps(&[rec(0.3, 1.0)], 1e-3), None);
        assert_eq!(gradients_from_steps(&[rec(2.0, 1.0)], 1e-3), None);
        assert_eq!(
            gradients_from_steps(&[rec(0.5f64.powi(12), 1.0)], 1e-3),
            None
        );
    }

    #[test]
    fn accept_ratio_is_accepted_steps_over_line_search_gradients() {
        let trace = [
            rec(0.001953125, 900.0),
            rec(0.00390625, 400.0),
            rec(0.00390625, 300.0),
        ];
        let g = gradients_from_steps(&trace, 1e-3).unwrap();
        assert_eq!(g, 1 + 10 + 9 + 9);
        assert_eq!(line_search_accept_ratio(&trace, g), Some(3.0 / 28.0));
        assert_eq!(line_search_accept_ratio(&[], 1), None);
    }

    #[test]
    fn unattributed_share_of_the_fit() {
        // 11 gradients of 0.5 s + 2 s Hessian + 0.25 s marginals = 7.75 s of
        // a 10 s fit.
        let f = unattributed_frac(11, 0.5, 2.0, 0.25, 10.0);
        assert!((f - 0.225).abs() < 1e-12);
        // Layers that over-account give a negative share rather than clamping.
        assert!(unattributed_frac(20, 0.5, 2.0, 0.0, 10.0) < 0.0);
    }
}
