"""Generalized Mittag-Leffler functions.

    E_{a,b}(z) = sum_{k>=0} z^k / Gamma(a*k + b)

Two independent evaluation paths are provided.  mlf_series sums the
defining series with a certified truncation bound and refuses arguments it
cannot handle to the requested accuracy, rather than returning silently
inaccurate values.  mlf_solve integrates the model problem D^a x = A x,
whose solution is x(t) = E_{a,1}(A t^a), with the LDG marcher, and
recovers general b by applying Riemann-Liouville operators to the discrete
solution:

    E_{a,b}(A t^a) = t^(1-b) * D^(1-b) x(t)

with D^(1-b) read as a fractional integral when b > 1.  The march depends
on (a, A, t_max, n, k) but not on b, so mlf_solve keeps the last one and
queries that differ only in b march once; it keeps one because the usual
request is one a with several b.  Each table then takes one vectorised
evaluation pass.  The two paths share no numerical machinery, so their
agreement is an end-to-end check of the whole solver stack.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .fraccalc import frac_integral_eval, rl_derivative_eval
from .ldgsolver import SolveOptions, march
from .polybasis import MAX_DEGREE, _check_int
from .problem import build_mesh, linear_model

__all__ = ["MlfQuery", "mlf_series", "mlf_solve"]

_SERIES_RADIUS = 10.0
_SERIES_BUDGET = 400


@dataclass(frozen=True)
class MlfQuery:
    """One request for E_{alpha,beta}(A t^alpha) on [0, t_max]."""

    alpha: float
    beta: float
    a_coef: float = -1.0
    t_max: float = 2.0
    sample_count: int = 41
    n: int = 64
    k: int = 3

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not 0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        for name, low, high in (("sample_count", 1, None), ("n", 1, None), ("k", 0, MAX_DEGREE)):
            _check_int(name, getattr(self, name), low, high)


def mlf_series(alpha: float, beta: float, z: float, tol: float = 1e-12) -> float:
    """Sum of the defining series with a certified error bound.

    Terms are computed directly from log-Gamma values (no recurrence drift)
    and added with compensated summation.  The loop stops once the tail is
    provably below tol * max(1, |sum|): the term-ratio |z|*G(ak+b)/G(ak+a+b)
    decreases in k, so a geometric bound with the next ratio dominates the
    remainder.  Raises ValueError when |z| is beyond the reliable radius,
    when the budget is exhausted, or when cancellation among the computed
    terms exceeds the requested tolerance; the solver path (mlf_solve)
    covers those regimes instead.
    """
    if not alpha > 0 or not beta > 0:
        raise ValueError("alpha and beta must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not np.isfinite(z) or abs(z) > _SERIES_RADIUS:
        raise ValueError(
            f"|z| = {abs(z):.3g} is beyond the series' reliable radius "
            f"{_SERIES_RADIUS}; use the solver path"
        )
    if z == 0.0:
        return 1.0 / math.gamma(beta)

    log_az = math.log(abs(z))
    negative = z < 0.0
    total = 0.0
    comp = 0.0
    max_term = 0.0
    for k in range(_SERIES_BUDGET):
        term = math.exp(k * log_az - gammaln(alpha * k + beta))
        if negative and k % 2 == 1:
            term = -term
        max_term = max(max_term, abs(term))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t

        scale = max(1.0, abs(total))
        next_abs = math.exp((k + 1) * log_az - gammaln(alpha * (k + 1) + beta))
        ratio = abs(z) * math.exp(gammaln(alpha * (k + 1) + beta)
                                  - gammaln(alpha * (k + 2) + beta))
        if ratio < 1.0 and next_abs / (1.0 - ratio) <= tol * scale:
            if max_term * 2.3e-16 > tol * scale:
                raise ValueError(
                    "series cancellation exceeds the requested tolerance "
                    f"(largest term {max_term:.3g}); use the solver path"
                )
            return total
    raise ValueError(
        f"series did not certify tol={tol:.1e} within {_SERIES_BUDGET} terms "
        f"for alpha={alpha}, z={z}; use the solver path"
    )


def _solver_grading(alpha: float, k: int) -> float:
    # The solution behaves like t^alpha at the origin, which wants grading
    # (k+1)/alpha for optimal rates.  The cap keeps adjacent-element width
    # ratios (2^g - 1 at the first pair) and the first element's absolute
    # width inside the range where the history assembly is well conditioned;
    # past it, accuracy degrades instead of improving.
    if alpha == int(alpha):
        return 1.0
    return min((k + 1) / alpha, 4.0)


@lru_cache(maxsize=1)
def _model_march(alpha: float, a_coef: float, t_max: float, n: int, k: int):
    """LDG solution of D^alpha x = a_coef x, x(0) = 1, on the graded mesh of
    mlf_solve; its coefficients are read-only, as every caller shares them."""
    initial = (1.0,) + (0.0,) * (math.ceil(alpha) - 1)
    spec = linear_model(alpha, a_coef, 0.0, initial, t_max)
    mesh = build_mesh(n, t_max, grading=_solver_grading(alpha, k))
    sol = march(spec, mesh, SolveOptions(k=k))
    sol.coeffs.flags.writeable = False
    return sol


def mlf_solve(query: MlfQuery, times=None) -> tuple[np.ndarray, np.ndarray]:
    """Sampled curve (t_i, E_{alpha,beta}(A t_i^alpha)) via the LDG solver.

    The model problem is marched on a mesh graded toward t=0 (where the
    solution behaves like 1 + A t^alpha / Gamma(alpha+1)), then the beta
    shift is applied to all samples in one pass.  t=0 samples return the
    analytic limit 1/Gamma(beta) since the shift formula is singular there.
    Only the last march is kept, so queries of one model that differ in beta
    or in the sample times march once: one alpha with several beta is the
    common request, and a longer memo would hold solutions no query reuses.
    """
    if query.alpha > 2.0:
        raise ValueError("the solver path supports alpha in (0, 2]")
    if times is None:
        times = np.linspace(0.0, query.t_max, query.sample_count)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be one-dimensional, got shape {times.shape}")
    if not np.all((times >= 0.0) & (times <= query.t_max * (1.0 + 1e-12))):
        raise ValueError("sample times must lie in [0, t_max]")

    sol = _model_march(query.alpha, query.a_coef, query.t_max, query.n, query.k)
    beta = query.beta
    values = np.full(times.size, 1.0 / math.gamma(beta))
    shifted = times != 0.0
    t = times[shifted]
    if beta == 1.0:
        values[shifted] = sol(t)
    elif beta < 1.0:
        values[shifted] = t ** (1.0 - beta) * rl_derivative_eval(1.0 - beta, sol, t)
    else:
        values[shifted] = t ** (1.0 - beta) * frac_integral_eval(beta - 1.0, sol, t)
    return times, values

