"""The pinned fast velocity's scaled covariance, drawn by the exponential step."""

import numpy as np

from smallmass.ensemble import UnderdampedEnsemble
from smallmass.underdamped import UDStepperConfig, step_underdamped_exp


def scaled_second_moment(spec, x, epsilon, t, reps, stream, run_id=0):
    """eps * mean(v v^T) over reps copies of x that start at rest and take one
    exponential step of length t, and its Monte Carlo standard-error matrix.

    The copies are the measure, so the coefficients are those at x against
    the point mass at x, frozen for the step: each velocity is an exact
    draw of the time-t law of the velocity SDE pinned there, from the
    noise block (run_id, 1, reps).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    state = UnderdampedEnsemble(
        epsilon=epsilon, t=0.0,
        positions=np.tile(x, (reps, 1)), velocities=np.zeros((reps, x.size)),
    )
    cfg = UDStepperConfig("exponential", t, run_id=run_id)
    v = step_underdamped_exp(state, spec, cfg, stream).velocities
    outer = v[:, :, None] * v[:, None, :]
    second = epsilon * np.mean(outer, axis=0)
    stderr = epsilon * np.std(outer, axis=0, ddof=1) / np.sqrt(reps)
    return second, stderr
