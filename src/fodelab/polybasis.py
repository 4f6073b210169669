"""Shifted Legendre modal basis on the reference element [0, 1].

The discontinuous Galerkin machinery in this package stores every local
polynomial by its coefficients in the shifted Legendre basis

    phi_p(xi) = P_p(2 xi - 1),   xi in [0, 1],   0 <= p <= k,

where ``P_p`` is the classical Legendre polynomial.  The basis is orthogonal
with ``int_0^1 phi_p phi_q = delta_pq / (2 p + 1)`` and has endpoint values
``phi_p(1) = 1`` and ``phi_p(0) = (-1)**p``, which makes upwind/downwind
traces one-line sums of the modal coefficients.

This module also provides the Gauss rules used everywhere else: plain
Gauss-Legendre on [0, 1], and Gauss-Jacobi rules for the weight
``(1 - xi)**a * xi**b`` that appear when weakly singular kernels have to be
integrated exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

__all__ = [
    "MAX_DEGREE",
    "QuadRule",
    "gauss_legendre",
    "gauss_jacobi",
    "legendre_table",
    "mass_matrix",
    "stiffness_matrix",
    "legendre_to_monomial",
    "project",
    "eval_poly",
]

#: Largest supported polynomial degree.  The closed-form Gamma arithmetic in
#: the fractional assembly stays comfortably inside double precision up to
#: this degree; beyond it the monomial conversion starts shedding digits.
MAX_DEGREE = 8


@dataclass(frozen=True)
class QuadRule:
    """Quadrature nodes/weights on the reference interval [0, 1]."""

    nodes: np.ndarray
    weights: np.ndarray


def _check_int(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an int in [low, high]; bools and floats (even 8.0) raise, naming ``name``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low or (high is not None and value > high)):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


def _check_degree(k: int) -> int:
    return _check_int("polynomial degree k", k, 0, MAX_DEGREE)


@lru_cache(maxsize=None, typed=True)  # else a cached np.int64(2) rule answers for 2.0
def gauss_legendre(n: int) -> QuadRule:
    """Gauss-Legendre rule with ``n`` points on [0, 1] (exact to degree 2n-1).

    Rules are cached per ``n``; their arrays are read-only.
    """
    x, w = leggauss(_check_int("quadrature order n", n, 1))
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadRule(nodes, weights)


def gauss_jacobi(n: int, a: float, b: float) -> QuadRule:
    """Gauss-Jacobi rule on [0, 1] for the weight ``(1 - xi)**a * xi**b``.

    Integrates ``(1-xi)**a * xi**b * f(xi)`` exactly for polynomial ``f`` of
    degree <= 2n-1; the singular weight is absorbed into the weights.

    Args:
        n: number of nodes, >= 1.
        a: exponent at the right endpoint, must satisfy a > -1.
        b: exponent at the left endpoint, must satisfy b > -1.
    """
    n = _check_int("quadrature order n", n, 1)
    if a <= -1.0 or b <= -1.0:
        raise ValueError(f"Jacobi exponents must exceed -1, got a={a}, b={b}")
    # scipy's convention: weight (1-x)^a (1+x)^b on [-1, 1].
    x, w = roots_jacobi(n, float(a), float(b))
    nodes = 0.5 * (x + 1.0)
    weights = w / 2.0 ** (a + b + 1.0)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadRule(nodes, weights)


def legendre_table(k: int, xi: np.ndarray) -> np.ndarray:
    """Values phi_p(xi) for p = 0..k; returns an array of shape (len(xi), k+1).

    The three-term recurrence is evaluated in y = 2 xi - 1 and remains valid
    for arguments outside [0, 1].
    """
    k = _check_degree(k)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    y = 2.0 * xi - 1.0
    out = np.empty((xi.size, k + 1))
    out[:, 0] = 1.0
    if k >= 1:
        out[:, 1] = y
    for p in range(1, k):
        out[:, p + 1] = ((2 * p + 1) * y * out[:, p] - p * out[:, p - 1]) / (p + 1)
    return out


@lru_cache(maxsize=None)
def _gauss_table(k: int, n: int) -> np.ndarray:
    """legendre_table(k, gauss_legendre(n).nodes), cached per (k, n); read-only."""
    tab = legendre_table(k, gauss_legendre(n).nodes)
    tab.flags.writeable = False
    return tab


@lru_cache(maxsize=None)
def mass_matrix(k: int) -> np.ndarray:
    """Reference mass matrix: diag(1, 1/3, ..., 1/(2k+1))."""
    k = _check_degree(k)
    m = np.diag(1.0 / (2.0 * np.arange(k + 1) + 1.0))
    m.flags.writeable = False
    return m


@lru_cache(maxsize=None)
def stiffness_matrix(k: int) -> np.ndarray:
    """Reference stiffness matrix S[q, p] = int_0^1 phi_p(xi) phi_q'(xi) dxi.

    Entries are exactly 2 when q > p with p+q odd and 0 otherwise.
    """
    k = _check_degree(k)
    s = np.zeros((k + 1, k + 1))
    for q in range(k + 1):
        for p in range(q):
            if (q + p) % 2 == 1:
                s[q, p] = 2.0
    s.flags.writeable = False
    return s


@lru_cache(maxsize=None)
def legendre_to_monomial(k: int) -> np.ndarray:
    """Change-of-basis matrix A with A[r, p] = coefficient of xi**r in phi_p.

    All entries are integers: A[r, p] = (-1)**(p-r) * C(p, r) * C(p+r, r).
    """
    k = _check_degree(k)
    a = np.zeros((k + 1, k + 1))
    for p in range(k + 1):
        for r in range(p + 1):
            a[r, p] = (-1.0) ** (p - r) * comb(p, r) * comb(p + r, r)
    a.flags.writeable = False
    return a


def project(f: Callable[[np.ndarray], np.ndarray], interval: Sequence[float], k: int) -> np.ndarray:
    """L2 projection of ``f`` onto polynomials of degree <= k on ``interval``.

    Returns the modal coefficient vector c with c[q] = (2q+1) <f, phi_q>,
    by k+6 Gauss points: exact for polynomial data of degree <= k and
    accurate for smooth data.
    """
    k = _check_degree(k)
    a, b = map(float, interval)
    if not b > a:
        raise ValueError(f"interval must satisfy a < b, got [{a}, {b}]")
    rule = gauss_legendre(k + 6)
    t = a + (b - a) * rule.nodes
    vals = np.asarray(f(t), dtype=float)
    if vals.shape != t.shape:
        vals = np.broadcast_to(vals, t.shape)
    if not np.all(np.isfinite(vals)):
        raise ValueError("function returned non-finite samples on the projection interval")
    tab = legendre_table(k, rule.nodes)
    moments = tab.T @ (rule.weights * vals)
    return (2.0 * np.arange(k + 1) + 1.0) * moments


def eval_poly(coeffs: np.ndarray, interval: Sequence[float], t) -> np.ndarray | float:
    """Evaluate a modal polynomial on its element at point(s) ``t``.

    Points outside the element (beyond a 1e-12 relative slack) are rejected.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    k = _check_degree(coeffs.shape[-1] - 1)
    a, b = map(float, interval)
    h = b - a
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    slack = 1e-12 * max(abs(a), abs(b), h)
    if np.any(tt < a - slack) or np.any(tt > b + slack):
        raise ValueError(f"evaluation point outside element [{a}, {b}]")
    xi = np.clip((tt - a) / h, 0.0, 1.0)
    vals = legendre_table(k, xi) @ coeffs
    return vals if np.ndim(t) else float(vals[0])

