"""Core state map of the double delta potential well.

A particle bound by two attractive Dirac wells co-located at the origin
admits an even bound state whose confinement probability over the
vicinity (-r, r) works out to a closed form in the single transcendental
quantity

    delta(r) = exp(2kr) - 5 exp(-2kr) + 4kr + 4,

where k > 0 is the well stiffness. The swarm recursion drives delta
values directly (a gated gradient nudge) and maps them back to positions
through the numerical inverse of this strictly increasing function.

This module owns what the engine calls: the forward map, its
safeguarded-Newton inverse, the linear learning-rate schedule and the
gated delta update. The quadrature check of the confinement identity
that the closed form is derived from lives in :mod:`qdds.validate`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EXP_ARG_LIMIT",
    "LAM_MAX",
    "delta_of_r",
    "solve_r_batch",
    "learning_rate",
    "delta_update_arrays",
]

# exp argument cap keeping exp(2kr) inside double range (exp(709.78) overflows)
EXP_ARG_LIMIT = 700.0


def _z_forward(z):
    # delta in terms of z = 2kr: exp(z) - 5 exp(-z) + 2z + 4
    return np.exp(z) - 5.0 * np.exp(-z) + 2.0 * z + 4.0


# solvable delta range, set by the overflow guard at z = +-EXP_ARG_LIMIT
DELTA_MIN = float(_z_forward(-EXP_ARG_LIMIT))
DELTA_MAX = float(_z_forward(EXP_ARG_LIMIT))
# largest |lam| whose gate update dp -+ theta*grad*lam (theta <= 1) stays
# finite for every pair of deltas in [DELTA_MIN, DELTA_MAX]
LAM_MAX = (float(np.finfo(float).max) - abs(DELTA_MIN)) / (DELTA_MAX - DELTA_MIN)


def delta_of_r(r, k):
    """Forward state map delta(r) = exp(2kr) - 5 exp(-2kr) + 4kr + 4.

    Strictly increasing in r for k > 0, with delta(0) = 0. Accepts
    scalars or arrays; the overflow guard |2kr| <= 700 is enforced on
    every element.
    """
    z = 2.0 * np.asarray(k, dtype=float) * np.asarray(r, dtype=float)
    # one reduction: NaN fails the comparison, so it is caught with +-inf
    if not (np.abs(z) <= EXP_ARG_LIMIT).all():
        raise ValueError(
            f"|2*k*r| exceeds the overflow guard {EXP_ARG_LIMIT} for r={r!r}, k={k!r}"
        )
    out = _z_forward(z)
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(out)
    return out


def _initial_z(delta):
    # asymptotics: exp(z) dominates for large positive delta, -5exp(-z)
    # for large negative; near zero the map linearizes to 8z
    return np.where(
        delta >= 8.0,
        np.log(np.maximum(delta, 8.0)),
        np.where(delta <= -8.0, -np.log(np.maximum(-delta, 8.0) / 5.0), delta / 8.0),
    )


def solve_r_batch(deltas, k, tol=1e-12):
    """Vectorized inverse of the state map with a bisection safeguard.

    Newton iterations on f(z) = exp(z) - 5 exp(-z) + 2z + 4 - delta in
    z = 2kr space (k-independent), bracketed by the guard interval.
    A Newton step that leaves the bracket or is not finite falls back to
    bisection; one that stays inside is kept however little it shrinks
    the bracket, so an element can still be unsolved at the 200-round
    cap. tol is relative in delta (absolute near zero).

    Each element iterates on its own and leaves the working set in the
    round its residual meets tol, so no result depends on the batch.

    k may be a scalar or an array broadcastable to deltas' shape.

    Returns
    -------
    r : ndarray
        Solutions where solvable, 0.0 placeholder elsewhere.
    solved : ndarray of bool
        False where delta lies outside [DELTA_MIN, DELTA_MAX] and where
        the residual still exceeds tol after the 200-round cap.
    fallback_count : int
        Number of elements whose solve needed at least one bisection
        substitution.
    """
    d = np.asarray(deltas, dtype=float)
    flat = d.ravel()
    # NaN fails both comparisons, and +-inf lies outside the range
    solved = (flat >= DELTA_MIN) & (flat <= DELTA_MAX)
    at = solved.nonzero()[0]
    target = flat[at]
    z = np.minimum(np.maximum(_initial_z(target), -EXP_ARG_LIMIT), EXP_ARG_LIMIT)
    lo, hi = np.full((2, at.size), [[-EXP_ARG_LIMIT], [EXP_ARG_LIMIT]])
    atol = tol * np.maximum(1.0, np.abs(target))
    z_out = np.zeros_like(flat)
    fell_back = np.zeros(flat.shape, dtype=bool)
    for _ in range(200):
        if not at.size:
            break
        ez = np.exp(z)
        emz5 = 5.0 * np.exp(-z)
        f = ez - emz5 + 2.0 * z + 4.0 - target
        conv = np.abs(f) <= atol
        # tighten the bracket around the increasing root
        pos = f > 0.0
        np.minimum(hi, z, out=hi, where=pos)
        np.maximum(lo, z, out=lo, where=~pos)
        z_newton = z - f / (ez + emz5 + 2.0)
        if np.count_nonzero(conv):
            z_out[at[conv]] = z[conv]
            keep = (~conv).nonzero()[0]
            at, target, z_newton = at[keep], target[keep], z_newton[keep]
            lo, hi, atol = lo[keep], hi[keep], atol[keep]
            if not at.size:
                break
        # the comparisons are False for NaN, so a non-finite step bisects too
        inside = (z_newton > lo) & (z_newton < hi)
        if np.count_nonzero(inside) == inside.size:
            z = z_newton
        else:
            fell_back[at[~inside]] = True
            z = np.where(inside, z_newton, 0.5 * (lo + hi))
    solved[at] = False
    r = z_out.reshape(d.shape)
    r /= 2.0 * np.asarray(k, dtype=float)
    return r, solved.reshape(d.shape), int(np.count_nonzero(fell_back))


def learning_rate(iteration, max_iter, epsilon):
    """Linear schedule theta = (1 - eps)*(max_iter - iter)/max_iter + eps.

    Decays from 1 at iteration 0 to epsilon at iteration max_iter, elementwise
    for an array of iterations.
    """
    it = np.asarray(iteration)
    if not ((0 <= it) & (it <= max_iter)).all():
        raise ValueError(
            f"iteration must be in [0, max_iter], got {iteration} with max_iter={max_iter}"
        )
    return (1.0 - epsilon) * (max_iter - iteration) / max_iter + epsilon


def delta_update_arrays(delta_prev, delta_prev2, theta, lam):
    """Gated delta update: push back toward the band, scaled by theta*lam.

    Works elementwise over matching-shape histories. The gradient
    surrogate is the discrete difference grad = delta_prev - delta_prev2.
    When delta_prev escapes the band (0.5*delta_prev2, 2*delta_prev2)
    the update nudges it by -theta*grad*lam with the sign arranged per
    escape direction; in-band (or zero-gradient) histories pass through
    unchanged. Branches are checked in fixed order, first match wins,
    which matters when delta_prev2 < 0 flips the band inequalities.

    Returns (delta_new, branch_fired) where branch_fired marks elements
    on which some escape branch applied (its complement counts the
    in-band no-ops).
    """
    dp = np.asarray(delta_prev, dtype=float)
    dp2 = np.asarray(delta_prev2, dtype=float)
    grad = dp - dp2
    step = theta * grad * lam
    above = dp > 2.0 * dp2
    below = dp < 0.5 * dp2
    rising = grad > 0.0
    falling = grad < 0.0
    minus = np.where(above, rising, below & falling)
    plus = np.where(above, falling, below & rising)
    out = np.where(plus, dp + step, dp)
    np.subtract(dp, step, out=out, where=minus)
    return out, minus | plus
