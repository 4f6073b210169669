"""Upwinded local discontinuous Galerkin marching for fractional ODEs.

The problem D^alpha x + d(t) x^(m) = f(x, t) is rewritten as a first-order
system x_0 = x, x_{i+1} = x_i' with F = max(ceil(alpha), m) + 1 fields; the
Caputo derivative becomes the order-beta fractional integral of field
p = ceil(alpha), beta = p - alpha.  On each element the weak chain equations
with upwind (left-limit) fluxes couple to one "model row" carrying the
fractional integral, the damping term, and the forcing.  Because the flux
is upwind and the memory kernel only looks backward, the global system is
block lower triangular: elements are solved one at a time left to right,
each seeing earlier elements only through inflow traces and the closed-form
history moments from fraccalc.

Integer alpha makes beta = 0; the memory term degenerates to the element
mass matrix with no history, which is the classic DG discretization, and
the same code path handles it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import fraccalc
from .polybasis import (
    MAX_DEGREE,
    _check_degree,
    _gauss_table,
    gauss_legendre,
    legendre_table,
    mass_matrix,
    stiffness_matrix,
)
from .problem import Mesh, PiecewisePoly, ProblemSpec

__all__ = [
    "SolveOptions",
    "SolverError",
    "EnergyReport",
    "newton_solve",
    "march",
    "downwind_errors",
    "l2_error",
    "energy_diagnostic",
]


class SolverError(RuntimeError):
    """Raised when an element solve fails (Newton stall or non-finite values)."""


@dataclass(frozen=True)
class SolveOptions:
    """The one discretization choice: the polynomial degree k of every element.

    Everything else about the element solve is fixed: linear problems take
    one direct solve, nonlinear ones Newton from the inflow values held
    constant, to the tolerance and iteration cap of ``newton_solve``.
    """

    k: int = 1

    def __post_init__(self):
        _check_degree(self.k)


@dataclass(frozen=True)
class EnergyReport:
    """Discrete energy balance of the homogeneous march.

    The identity  final_sq = initial_sq - jump_sum + frac_term  holds
    exactly (to roundoff) for discrete solutions of the homogeneous linear
    model; frac_term = (2/A) * q_form with q_form >= 0, so A < 0 forces
    final_sq <= initial_sq (dissipativity).
    """

    initial_sq: float
    final_sq: float
    jump_sum: float
    frac_term: float
    q_form: float
    identity_residual: float
    dissipative: bool


_ORIGIN_LEVELS = 36

# the nonlinear builtins converge in <= 4 iterations, so 25 run out only on a stall
_NEWTON_TOL, _NEWTON_MAX_ITER = 1e-12, 25
# the scheme is linear, so any offset works; 1e-2 keeps the energies far above roundoff
_ENERGY_PERTURBATION = 1e-2
# phi_q(0) = (-1)**q: the basis values at an element's left end, where the inflow enters
_LEFT_SIGNS = (-1.0) ** np.arange(MAX_DEGREE + 1)
_LEFT_SIGNS.flags.writeable = False


def _quad_context(interval, k: int, order: int):
    """Quadrature nodes, weights, and basis table for data integrals.

    Forcing terms of fractional problems characteristically behave like
    t^gamma near the origin (every built-in example has such a term), and
    plain Gauss rules lose algebraic accuracy there, capping the observable
    convergence order.  The element touching t=0 therefore gets a composite
    rule graded dyadically toward the origin, and the few elements just
    right of it get extra points (their integrands are analytic but with a
    shrinking convergence radius).  Away from the origin a single Gauss rule
    of the requested order is used.  Polynomial data is integrated exactly
    by every branch.
    """
    a, b = interval
    h = b - a
    if a == 0.0:
        per_piece = max(order, 10)
        rule = gauss_legendre(per_piece)
        edges = h * 2.0 ** -np.arange(_ORIGIN_LEVELS - 1, -1, -1.0)
        lo = np.concatenate([[0.0], edges[:-1]])
        width = edges - lo
        t = (lo[:, None] + width[:, None] * rule.nodes).ravel()
        w = (width[:, None] * rule.weights).ravel()
        return t, w, legendre_table(k, t / h)
    else:
        r = a / h
        if r < 2.0:
            q = max(order, 14)
        elif r < 8.0:
            q = max(order, 10)
        elif r < 32.0:
            q = max(order, 7)
        else:
            q = order
        rule = gauss_legendre(q)
        return a + h * rule.nodes, h * rule.weights, _gauss_table(k, q)


def _element_parts(spec: ProblemSpec, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Width-free (chain, mass, memory) parts of the local system on the reference element.

    An element of width h has the matrix chain + h*mass + h**(1+beta)*memory:
    the chain rows' own blocks, their coupling to the next field, and the
    model row's same-element memory block at field p = ceil(alpha).
    """
    kp1, size = k + 1, spec.field_count * (k + 1)
    p, beta = math.ceil(spec.alpha), spec.frac_order
    chain, mass, memory = np.zeros((3, size, size))
    for r in range(0, size - kp1, kp1):
        chain[r:r + kp1, r:r + kp1] = stiffness_matrix(k) - 1.0
        mass[r:r + kp1, r + kp1:r + 2 * kp1] = mass_matrix(k)
    local = mass_matrix(k) if beta == 0.0 else fraccalc.local_frac_matrix(beta, k)
    memory[-kp1:, p * kp1:(p + 1) * kp1] = local
    return chain, mass, memory


def _element_system(spec: ProblemSpec, interval, k: int, history: np.ndarray,
                    inflow: np.ndarray, parts) -> Callable:
    """linearize(y) -> (Jacobian, residual) of one element's local system.

    Unknowns are the stacked modal coefficients y = (c_0, ..., c_{F-1}).
    Chain rows are affine; only the model row, the last k+1 rows, depends
    (possibly nonlinearly, through the forcing) on c_0.
    """
    kp1 = k + 1
    h = interval[1] - interval[0]
    chain, mass, memory = parts
    base = chain + h * mass
    base += h ** (1.0 + spec.frac_order) * memory
    rf = slice(-kp1, None)  # the model row
    # forcing and damping moments use k+3 Gauss points (more near t = 0)
    t, w, tab = _quad_context(interval, k, k + 3)
    if spec.m >= 1:
        wd = w * np.asarray(spec.d(t), dtype=float)
        base[rf, spec.m * kp1:(spec.m + 1) * kp1] += tab.T @ (wd[:, None] * tab)
    rhs = np.zeros(base.shape[0])
    rhs[:-kp1] = np.outer(-inflow, _LEFT_SIGNS[:kp1]).ravel()
    rhs[rf] -= history

    def linearize(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = tab @ y[:kp1]
        if spec.df_dx is not None:
            slope = np.asarray(spec.df_dx(x, t), dtype=float)
        else:
            step = 1e-7 * (1.0 + np.abs(x))
            slope = (np.asarray(spec.f(x + step, t), dtype=float)
                     - np.asarray(spec.f(x - step, t), dtype=float)) / (2.0 * step)
        jac = base.copy()
        jac[rf, :kp1] -= tab.T @ ((w * slope)[:, None] * tab)
        res = base @ y - rhs
        res[rf] -= tab.T @ (w * np.asarray(spec.f(x, t), dtype=float))
        return jac, res

    return linearize


def _equilibrate(jac: np.ndarray, res: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The system with each row divided by its largest |entry| (rows of zeros kept)."""
    scale = np.abs(jac).max(axis=1)
    scale[scale == 0.0] = 1.0
    return jac / scale[:, None], res / scale


def newton_solve(linearize: Callable, guess: np.ndarray) -> tuple[np.ndarray, int]:
    """Damped Newton iteration on a callable ``linearize(y) -> (Jacobian, residual)``.

    Returns (solution, iterations).  Convergence to ``_NEWTON_TOL`` is
    measured in the row-equilibrated residual max-norm, which makes the
    tolerance meaningful across element sizes and orders.  A step that
    increases the residual is retried once at half length, and the iterate
    with the smaller residual is kept.  Raises SolverError when an iterate
    turns non-finite or after ``_NEWTON_MAX_ITER`` iterations.
    """
    def state(y):
        a, r = _equilibrate(*linearize(y))
        return y, a, r, float(np.abs(r).max())

    y, a, r, rnorm = state(np.asarray(guess, dtype=float).copy())
    for it in range(1, _NEWTON_MAX_ITER + 1):
        if rnorm <= _NEWTON_TOL:
            return y, it - 1
        step = np.linalg.solve(a, r)
        new = state(y - step)
        if new[3] > rnorm:
            half = state(y - 0.5 * step)
            new = half if half[3] < new[3] else new
        y, a, r, rnorm = new
        if not np.isfinite(y).all():
            raise SolverError("Newton iterate became non-finite")
    if rnorm <= _NEWTON_TOL:
        return y, _NEWTON_MAX_ITER
    raise SolverError(
        f"Newton did not reach tol={_NEWTON_TOL:.1e} in "
        f"{_NEWTON_MAX_ITER} iterations (residual {rnorm:.3e})"
    )


def march(spec: ProblemSpec, mesh: Mesh, options: SolveOptions | None = None) -> PiecewisePoly:
    """Solve the problem by one sweep over the mesh.

    Returns the piecewise polynomial for all fields; info carries Newton
    statistics.  Raises SolverError if any element fails to solve.
    """
    options = options or SolveOptions()
    if mesh.horizon > spec.horizon * (1.0 + 1e-12):
        raise ValueError(f"mesh horizon {mesh.horizon} exceeds the problem horizon {spec.horizon}")
    k = options.k
    kp1 = k + 1
    nfields = spec.field_count
    p = math.ceil(spec.alpha)
    beta = spec.frac_order
    n = mesh.n

    coeffs = np.zeros((n, nfields, kp1))
    memory = np.zeros((n, kp1))  # field p, contiguous for the history sums
    history = fraccalc._History(beta, mesh.nodes) if beta != 0.0 else None
    parts = _element_parts(spec, k)
    inflow = np.array(spec.initial, dtype=float)
    prev_down = np.concatenate([inflow, [0.0]])
    signs_sum = np.ones(kp1)
    total_iters = 0
    max_iters = 0

    for j in range(n):
        interval = mesh.interval(j)
        moments = np.zeros(kp1) if history is None else history(memory, j)
        linearize = _element_system(spec, interval, k, moments, inflow, parts)
        if spec.linear:
            a, r = _equilibrate(*linearize(np.zeros(nfields * kp1)))
            y = np.linalg.solve(a, -r)
            iters = 0
        else:
            guess = np.zeros(nfields * kp1)
            guess[::kp1] = prev_down
            try:
                y, iters = newton_solve(linearize, guess)
            except SolverError as exc:
                raise SolverError(f"element {j} on [{interval[0]:.6g}, {interval[1]:.6g}]: {exc}") from exc
        if not np.isfinite(y).all():
            raise SolverError(f"element {j}: non-finite coefficients")
        coeffs[j] = y.reshape(nfields, kp1)
        memory[j] = coeffs[j, p]
        prev_down = coeffs[j] @ signs_sum
        inflow = prev_down[: nfields - 1]
        total_iters += iters
        max_iters = max(max_iters, iters)

    info = {
        "newton_total_iters": total_iters,
        "newton_max_iters": max_iters,
        "elements": n,
        "k": k,
        "fields": nfields,
        "history_pairs_near": 0 if history is None else history.pairs_near,
        "history_pairs_far": 0 if history is None else history.pairs_far,
    }
    return PiecewisePoly(mesh, k, coeffs, info)


def downwind_errors(solution: PiecewisePoly, exact: Callable) -> np.ndarray:
    """|x(t_j) - X(t_j^-)| at the right end of every element."""
    t = solution.mesh.nodes[1:]
    return np.abs(np.asarray(exact(t), dtype=float) - solution.downwind_values())


def l2_error(solution: PiecewisePoly, exact: Callable) -> float:
    """Global L2 error of field 0, by per-element Gauss quadrature (order k+5)."""
    k = solution.k
    rule = gauss_legendre(k + 5)
    tab = _gauss_table(k, k + 5)
    total = 0.0
    for j in range(solution.mesh.n):
        a, b = solution.mesh.interval(j)
        t = a + (b - a) * rule.nodes
        diff = tab @ solution.coeffs[j, 0] - np.asarray(exact(t), dtype=float)
        total += (b - a) * float(np.sum(rule.weights * diff**2))
    return math.sqrt(total)


def energy_diagnostic(spec: ProblemSpec, mesh: Mesh,
                      options: SolveOptions | None = None) -> EnergyReport:
    """Exact discrete energy balance of the homogeneous march.

    Restricted to linear one-term problems with ceil(alpha) = 1 (two
    fields) and A = df/dx constant in time.  By linearity the difference
    of two solutions whose initial values differ by 1e-2 is the march e
    of the homogeneous problem (f = A x, initial value 1e-2); testing its
    chain row with e and its model row with the derivative field gives

        e(T^-)^2 = e(0^-)^2 - sum_j [[e]]_j^2 + (2/A) * q_form,

    with q_form the (nonnegative) fractional pairing of the derivative
    field with itself.  identity_residual reports how well the computed
    pieces satisfy this; it should be at roundoff for any mesh.
    """
    options = options or SolveOptions()
    if not spec.linear or spec.m != 0 or math.ceil(spec.alpha) != 1:
        raise ValueError("energy diagnostic applies to linear one-term problems with alpha <= 1")
    slopes = np.broadcast_to(np.asarray(spec.df_dx(0.0, mesh.nodes), dtype=float), mesh.nodes.shape)
    a_coef = float(slopes[0])
    if a_coef == 0.0 or np.any(slopes != a_coef):
        raise ValueError("the linear coefficient A must be nonzero and constant in time")

    homogeneous = replace(spec, f=lambda x, t: spec.df_dx(x, t) * x, initial=(_ENERGY_PERTURBATION,),
                          exact=None, exact_monomials=None)
    e = march(homogeneous, mesh, options).coeffs
    e0 = e[:, 0, :]
    e1 = e[:, 1, :]

    down = e0.sum(axis=1)
    signs = (-1.0) ** np.arange(options.k + 1)
    up = e0 @ signs
    inflow = np.concatenate([[_ENERGY_PERTURBATION], down[:-1]])
    jump_sum = float(np.sum((up - inflow) ** 2))
    q_form = fraccalc.frac_pairing(spec.frac_order, mesh.nodes, e1, e1)
    frac_term = 2.0 * q_form / a_coef
    initial_sq = _ENERGY_PERTURBATION**2
    final_sq = float(down[-1] ** 2)
    residual = abs(final_sq - (initial_sq - jump_sum + frac_term))
    return EnergyReport(
        initial_sq=initial_sq,
        final_sq=final_sq,
        jump_sum=jump_sum,
        frac_term=frac_term,
        q_form=q_form,
        identity_residual=residual,
        dissipative=final_sq <= initial_sq * (1.0 + 1e-12) + 1e-300,
    )
