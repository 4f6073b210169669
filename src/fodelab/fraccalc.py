"""Exact assembly of fractional-integral operators on piecewise polynomials.

Everything here revolves around the Riemann-Liouville integral of order
``beta > 0``,

    (I^beta u)(t) = 1/Gamma(beta) * int_0^t (t - tau)**(beta-1) u(tau) dtau,

applied to functions that are polynomials of degree <= k on each mesh
element.  The element-local Galerkin moments of ``I^beta u`` split into a
same-element block plus one contribution per earlier element ("history").
Both are computed in closed form:

* same element: ``h**(1+beta) * local_frac_matrix(beta, k)`` acting on the
  modal coefficients,
* history: power-rule expansions through the Gauss hypergeometric function
  for nearby source elements (the whole (k+1)x(k+1) moment matrix of a
  source endpoint in one ``hyp2f1`` array call, memoised on its arguments),
  and a binomial multipole series in element-size over center-distance for
  well separated ones (the sign of the source ratio folded into the cached
  kernel table, so only positive ratios are raised to powers).  On a uniform
  mesh (widths and center distances equal to relative roundoff 1e-13) a far
  source d widths back adds h**(1+beta) T[d] c, with T[d] the same order-40
  series read from a cached table (at most 64 MiB in all, see _UNIFORM_RTOL).

The near/far switch is ``(h_src + h_tgt) / (2 * center_distance) <= 0.35``;
there the order-40 multipole tail is below 1e-17 relative, while the near
form keeps its cancellation loss mild (farther sources get lower orders, see
MULTIPOLE_TERMS).  The switch lives here only: ``_History``, built once per
mesh by the LDG march and ``frac_pairing``, splits the history of each
element into one batched far-field sum plus near-field terms; point evaluation
(``frac_integral_eval``, ``rl_derivative_eval``) applies the same separation
with the evaluation time as a target of width 0, to all times of a call in
one pass.  Near-field accuracy
depends on k and on the width ratio rho = target width / source width
(cancellation between the two power families): against the oracle at
beta = 0.5 the worst error relative to the block is 3e-13 at k = 2, rho = 1,
but 2e-5 at k = 4, rho = 16 and 2e-1 at k = 6, rho = 16 (ROADMAP item 4).

``oracle_frac_block`` provides an independent reference block (all basis
pairs of one element pair) computed by singularity-resolving composite
quadrature, used to validate the closed forms.  It shares no code path with
the assembly routines.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import ceil, comb, factorial, inf
from typing import Sequence

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import gammaln, hyp2f1, rgamma

from .polybasis import (
    MAX_DEGREE,
    _check_degree,
    gauss_jacobi,
    gauss_legendre,
    legendre_table,
    legendre_to_monomial,
    mass_matrix,
)

__all__ = [
    "NEAR_FIELD_THRESHOLD",
    "MULTIPOLE_TERMS",
    "OracleError",
    "caputo_power",
    "frac_int_power_coeff",
    "local_frac_matrix",
    "history_contribution",
    "far_history_sum",
    "frac_pairing",
    "frac_integral_eval",
    "rl_derivative_eval",
    "oracle_frac_block",
]

#: Element pairs with (h_i + h_j) / (2 * center distance) above this value
#: use the near-field closed form; at or below it the multipole series is
#: accurate to ~1e-17 relative with MULTIPOLE_TERMS terms.
NEAR_FIELD_THRESHOLD = 0.35

#: Highest multipole order.  The tail past order L is O(theta**(L+1)), so a
#: far source gets the lowest ladder order, never under 2k, whose tail stays
#: within the full order's at the threshold (NEAR_FIELD_THRESHOLD**41 ~ 2e-19).
MULTIPOLE_TERMS = 40

#: (order L, largest theta it serves; none for the full order), lowest first.
_MULTIPOLE_LADDER = tuple(
    (order, NEAR_FIELD_THRESHOLD ** ((MULTIPOLE_TERMS + 1) / (order + 1))) for order in (6, 12)
) + ((MULTIPOLE_TERMS, np.inf),)

#: Fewest sources for which a reduced order repays its extra array pass.
_RUNG_MIN_SOURCES = 64

#: A far call is uniform when every source width is within relative roundoff
#: _UNIFORM_RTOL of the target width h and every center distance of a multiple
#: d*h; it reads _uniform_far_table, whose 32 cached tables of at most 2**18
#: floats (2 MiB: d < 65536 at k = 1, 16384 at k = 2, 3, 2048 at k = 8) hold
#: at most 64 MiB.  A call reaching past its table runs the ladder.
#: A uniform call differs from the ladder by a few _UNIFORM_RTOL at most,
#: relative to the sum of the absolute source contributions.
_UNIFORM_RTOL, _UNIFORM_TABLE_FLOATS = 1e-13, 2**18

#: Evaluation times per pass of point evaluation: its (time, source) arrays
#: hold at most this many times the element count.
_EVAL_BLOCK = 64


class OracleError(RuntimeError):
    """Raised when the reference quadrature cannot certify its own accuracy."""


def caputo_power(alpha: float, j: int) -> float:
    """Coefficient C in  d^alpha/dt^alpha [t**j] = C * t**(j - alpha) (Caputo).

    For integer exponents j below ceil(alpha) the Caputo derivative is zero.
    """
    if alpha < 0:
        raise ValueError(f"derivative order must be >= 0, got {alpha}")
    if j < 0:
        raise ValueError(f"power must be >= 0, got {j}")
    if alpha == 0:
        return 1.0
    if j < ceil(alpha):
        return 0.0
    return float(np.exp(gammaln(j + 1.0) - gammaln(j + 1.0 - alpha)))


def frac_int_power_coeff(beta: float, n) -> np.ndarray | float:
    """Coefficient n!/Gamma(n+1+beta) in  I^beta[(t-a)**n] = c * (t-a)**(n+beta)."""
    n_arr = np.asarray(n, dtype=float)
    out = np.exp(gammaln(n_arr + 1.0) - gammaln(n_arr + 1.0 + beta))
    return out if np.ndim(n) else float(out)


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 < beta <= 1.5:
        raise ValueError(f"integral order must lie in (0, 1.5], got {beta}")
    return beta


def _g_moments(k: int, gammas: np.ndarray) -> np.ndarray:
    """G[q, j] = int_0^1 phi_q(xi) xi**gammas[j] dxi, for q = 0..k.

    Closed form Gamma(g+1)**2 / (Gamma(g-q+1) Gamma(g+q+2)); the reciprocal
    Gamma absorbs the poles, giving exact zeros for integer g < q.
    """
    g = np.asarray(gammas, dtype=float)[None, :]
    q = np.arange(k + 1, dtype=float)[:, None]
    return np.exp(2.0 * gammaln(g + 1.0) - gammaln(g + q + 2.0)) * rgamma(g - q + 1.0)


#: The power-rule constants of one (beta, k): exponents gam = n + beta, their
#: frac_int_power_coeff, shift[n, m] = C(n, m) (xi**n = sum shift[n, m] (xi-1)**m),
#: the c0 = 0 moments, the same-element matrix, falling factorials
#: gamma (gamma-1) ... (gamma-q+1), q! and (2q+1)!, and hyp2f1's parameters.
_NearTable = namedtuple("_NearTable", "gam cfi mono shift g0 local q ff fact_lo fact_hi gmq f_a f_b f_c")


@lru_cache(maxsize=256)
def _near_table(beta: float, k: int) -> _NearTable:
    gam = np.arange(k + 1) + beta
    cfi = frac_int_power_coeff(beta, np.arange(k + 1))
    mono = legendre_to_monomial(k)
    shift = np.array([[comb(n, m) for m in range(k + 1)] for n in range(k + 1)], dtype=float)
    g0 = _g_moments(k, gam)
    q = np.arange(k + 1, dtype=float)[:, None]
    # falling factorial as a cumulative product, exactly 0 for integer gamma < q
    ff = np.cumprod(np.vstack([np.ones_like(gam), gam - q[:-1]]), axis=0)
    fact = np.array([factorial(i) for i in range(2 * k + 2)], dtype=float)[:, None]
    table = _NearTable(gam, cfi, mono, shift, g0, (g0 * cfi[None, :]) @ mono, q, ff, fact[: k + 1],
                       fact[1::2], gam - q, q + 1.0, q + gam + 2.0, 2.0 * q + 2.0)
    for arr in table:
        arr.flags.writeable = False
    return table


def local_frac_matrix(beta: float, k: int) -> np.ndarray:
    """Same-element moment matrix of the order-beta fractional integral.

    Entry [q, p] equals, on the unit element [0, 1],

        int_0^1 phi_q(t) * 1/Gamma(beta) int_0^t (t-s)**(beta-1) phi_p(s) ds dt.

    On a physical element of width h the block scales by h**(1+beta).
    """
    beta = _check_beta(beta)
    return _near_table(beta, _check_degree(k)).local


@lru_cache(maxsize=1024)
def _phi_power_moments(beta: float, k: int, c0: float, c1: float) -> np.ndarray:
    """T[q, n] = int_0^1 phi_q(xi) (c0 + c1*xi)**(n + beta) dxi, q, n = 0..k, for c0 >= 0, c1 > 0.

    For c0 = 0 this is c1**gamma times a Gamma-function ratio.  For c0 > 0,
    q-fold integration by parts against the Rodrigues form of phi_q plus the
    Euler integral give a single Gauss hypergeometric value; a Pfaff
    transformation moves the argument to w = c1/(c0+c1) in (0, 1), where the
    series has all-positive terms (no cancellation).  The whole matrix takes
    one hyp2f1 call; the rest comes from the cached ``_near_table``.  Memoised
    on the exact arguments (a uniform mesh repeats a few), so read-only.
    """
    t = _near_table(beta, k)
    if c0 <= 1e-14 * c1:
        # exactly zero in practice (shared mesh node); dropping a genuinely
        # tiny offset perturbs the value by <= gamma*c0/c1 relative
        out = c1**t.gam * t.g0
    else:
        w = c1 / (c0 + c1)
        f = hyp2f1(t.f_a, t.f_b, t.f_c, w)
        pref = t.ff * c1**t.q * t.fact_lo / t.fact_hi  # q!/(2q+1)! from exact factorials
        out = pref * c0**t.gmq * (1.0 - w) ** t.f_a * f
    out.flags.writeable = False
    return out


def _near_history(beta: float, coeffs: np.ndarray, s0: float, s1: float, rho: float) -> np.ndarray:
    """Reference-scale history moments for a nearby source element.

    Works in source-relative units: s0, s1 are the distances from the target
    element's left endpoint to the source's left/right endpoints, and rho is
    the width ratio, all in units of the source width.  The physical vector
    is h_tgt * h_src**beta times the returned one.
    """
    k = coeffs.size - 1
    t = _near_table(beta, k)
    b = t.mono @ coeffs
    return (_phi_power_moments(beta, k, s0, rho) @ (b * t.cfi)
            - _phi_power_moments(beta, k, s1, rho) @ ((b @ t.shift) * t.cfi))


def _separation(h_src, h_tgt, dist):
    """(h_src + h_tgt) / (2 * dist): the near/far measure of a source element
    of width h_src whose center lies dist before the target's center.  A
    point target has h_tgt = 0.  Works elementwise on arrays."""
    return (h_src + h_tgt) / (2.0 * dist)


@lru_cache(maxsize=32)
def _p_table(k: int) -> np.ndarray:
    """P[q, l] = int_0^1 phi_q(xi) (2*xi-1)**l dxi for l = 0..MULTIPOLE_TERMS."""
    rule = gauss_legendre(32)  # exact: integrand degree <= MAX_DEGREE + 40 < 64
    tab = legendre_table(k, rule.nodes)
    y = 2.0 * rule.nodes - 1.0
    ypow = y[:, None] ** np.arange(MULTIPOLE_TERMS + 1)
    p = tab.T @ (rule.weights[:, None] * ypow)
    p.flags.writeable = False
    return p


@lru_cache(maxsize=256)
def _far_kernel_table(beta: float) -> np.ndarray:
    """K[l, m] = (-1)**m * binom(beta-1, l+m) * C(l+m, l), zero past total order 40.

    The sign (-1)**m belongs to the source ratio, (-h_src / (2 dist))**m;
    folding it in here lets the callers raise a positive ratio to integer
    powers, which numpy does far faster than a negative one.  Row 0 holds
    the point-target series (-1)**m binom(beta-1, m).
    """
    nmax = MULTIPOLE_TERMS
    bnm = np.empty(nmax + 1)
    bnm[0] = 1.0
    for n in range(1, nmax + 1):
        bnm[n] = bnm[n - 1] * (beta - n) / n
    tab = np.zeros((nmax + 1, nmax + 1))
    for l in range(nmax + 1):
        for m in range(nmax + 1 - l):
            tab[l, m] = (-1) ** m * bnm[l + m] * comb(l + m, l)
    tab.flags.writeable = False
    return tab


@lru_cache(maxsize=32)
def _uniform_far_table(beta: float, k: int, rows: int) -> np.ndarray:
    """Row d >= 3 holds T[d], transposed and raveled (rows 0..2 are unused):
    far_history_sum's order-40 series for a source and target of unit width
    whose centers lie d apart, T[d] = d**(beta-1)/Gamma(beta) sum_N (2d)**-N
    Q_N, where Q_N = sum_{l+m=N} K[l, m] P[:, l] P[:, m]^T (its K and P)."""
    p, ls = _p_table(k), np.arange(MULTIPOLE_TERMS + 1)
    # pairs[(l, m), (a, b)] = K[l, m] P[a, m] P[b, l], summed over l + m = N by a 0/1 matrix
    pairs = _far_kernel_table(beta)[:, :, None, None] * p.T[None, :, :, None] * p.T[:, None, None, :]
    q = (ls[:, None, None] == ls[:, None] + ls).reshape(ls.size, -1) @ pairs.reshape(ls.size**2, -1)
    d = np.maximum(np.arange(rows), 1.0)[:, None]
    tab = d ** (beta - 1.0) / gamma_fn(beta) * (2.0 * d) ** -ls @ q
    tab.flags.writeable = False
    return tab


def far_history_sum(
    beta: float,
    target_interval: Sequence[float],
    source_intervals: np.ndarray,
    source_coeffs: np.ndarray,
) -> np.ndarray:
    """Combined history moments over many well separated source elements.

    Evaluates the multipole series of all sources of one order at once (one
    matrix product per ladder rung in use; order L keeps both ratio powers
    <= L), which is the O(n^2) hot path of a march; a uniform call reads one
    cached block per source instead (see _UNIFORM_RTOL).  The target must
    have positive finite width, and every source positive width and the
    far-field condition; a ValueError is raised otherwise.

    Args:
        beta: integral order in (0, 1.5].
        target_interval: (a, b) of the element receiving the moments.
        source_intervals: array (nsrc, 2) of earlier elements.
        source_coeffs: array (nsrc, k+1) of their modal coefficients.

    Returns:
        Vector of k+1 test moments against the target element's basis.
    """
    beta = _check_beta(beta)
    src = np.atleast_2d(np.asarray(source_intervals, dtype=float))
    c = np.atleast_2d(np.asarray(source_coeffs, dtype=float))
    if src.ndim != 2 or src.shape[1] != 2 or c.ndim != 2 or src.shape[0] != c.shape[0]:
        raise ValueError("source intervals must be (nsrc, 2) and coefficients (nsrc, k+1)")
    k = c.shape[1] - 1
    a_t, b_t = map(float, target_interval)
    h_t = b_t - a_t
    if not 0.0 < h_t < inf:
        raise ValueError("the target interval must have positive finite width")
    if not c.shape[0]:
        return np.zeros(k + 1)
    h_s = src[:, 1] - src[:, 0]
    dist = 0.5 * (a_t + b_t) - 0.5 * (src[:, 0] + src[:, 1])
    if np.abs(h_s - h_t).max() <= _UNIFORM_RTOL * h_t:
        # widths this close to h_t are positive, and distances d*h_t with d >= 3 pass the far-field guard
        x = dist / h_t
        d = np.rint(x)
        if d.min() >= 3:
            rows = max(256, 1 << int(d.max()).bit_length())  # few sizes, so few tables to cache
            if rows * (k + 1) ** 2 <= _UNIFORM_TABLE_FLOATS and (np.abs(x - d) <= _UNIFORM_RTOL * d).all():
                tab = _uniform_far_table(beta, k, rows).take(d.astype(np.intp), axis=0)
                return h_t ** (1.0 + beta) * (c.ravel() @ tab.reshape(-1, k + 1))
    theta = _separation(h_s, h_t, dist)
    if not (h_s.min() > 0 and dist.min() > 0 and theta.max() <= NEAR_FIELD_THRESHOLD * (1 + 1e-12)):
        raise ValueError("far_history_sum called with a reversed source or one outside the far field")

    a_ratio = h_t / (2.0 * dist)
    b_ratio = h_s / (2.0 * dist)
    cw = c * (dist ** (beta - 1.0) * h_s)[:, None]  # coefficients times the source weight
    p = _p_table(k)
    kern = _far_kernel_table(beta)
    s = np.zeros(MULTIPOLE_TERMS + 1)
    lo = 0.0  # theta bound of the highest reduced order in use
    for order, bound in _MULTIPOLE_LADDER:
        if order == MULTIPOLE_TERMS:
            sel = theta > lo if lo else slice(None)
        elif order < 2 * k or theta.size < _RUNG_MIN_SOURCES:
            continue
        else:
            sel = (theta > lo) & (theta <= bound)
            if np.count_nonzero(sel) < _RUNG_MIN_SOURCES:
                continue
            lo = bound
        ls = np.arange(order + 1)
        v = cw[sel] @ p[:, : order + 1]  # (nsel, L+1) source moments against (2*sigma-1)**m
        g = (a_ratio[sel] ** ls[:, None]) @ (v * b_ratio[sel, None] ** ls)  # (L+1, L+1)
        s[: order + 1] += (kern[: order + 1, : order + 1] * g).sum(axis=1)
    return (h_t / gamma_fn(beta)) * (p @ s)


def history_contribution(
    beta: float,
    source_coeffs: np.ndarray,
    source_interval: Sequence[float],
    target_interval: Sequence[float],
) -> np.ndarray:
    """Moments on the target element of I^beta applied to one earlier element.

    Component q is

        int_tgt phi_q((t-a_t)/h_t) * 1/Gamma(beta)
            int_src (t-tau)**(beta-1) u(tau) dtau dt

    with u the modal polynomial on the source element.  The source must lie
    entirely left of the target (its right endpoint at or before the
    target's left endpoint).
    """
    beta = _check_beta(beta)
    c = np.asarray(source_coeffs, dtype=float)
    if c.ndim != 1 or c.size - 1 > MAX_DEGREE:
        raise ValueError(f"source coefficients must be a vector of degree <= {MAX_DEGREE} polynomial")
    a_s, b_s = map(float, source_interval)
    a_t, b_t = map(float, target_interval)
    h_s, h_t = b_s - a_s, b_t - a_t
    if not (0.0 < h_s < inf and 0.0 < h_t < inf):
        raise ValueError("intervals must have positive finite width")
    scale = max(abs(a_s), abs(b_t), h_s, h_t)
    if b_s > a_t + 1e-12 * scale:
        raise ValueError("source element must precede the target element")

    dist = 0.5 * (a_t + b_t) - 0.5 * (a_s + b_s)
    if _separation(h_s, h_t, dist) <= NEAR_FIELD_THRESHOLD:
        return far_history_sum(beta, (a_t, b_t), [(a_s, b_s)], c[None, :])
    s0 = (a_t - a_s) / h_s
    s1 = max((a_t - b_s) / h_s, 0.0)
    rho = h_t / h_s
    return h_t * h_s**beta * _near_history(beta, c, s0, s1, rho)


class _History:
    """History moments of I^beta on the elements of one mesh, from all earlier elements.

    The mesh geometry (intervals, widths, centers) is built once; ``__call__``
    then takes element j's sources from rows 0..j-1 of ``coeffs``.  Well
    separated sources go through one batched far_history_sum call (slices
    when they are a prefix [0, i), as on every ``build_mesh`` mesh, index
    arrays otherwise), the rest through history_contribution one by one, and
    the pairs of each kind are counted.
    """

    def __init__(self, beta: float, nodes: np.ndarray):
        self.beta = beta
        self.intervals = np.column_stack([nodes[:-1], nodes[1:]])
        self.widths = np.diff(nodes)
        self.centers = 0.5 * (nodes[:-1] + nodes[1:])
        self.bounds = self.intervals.tolist()
        self.pairs_near = self.pairs_far = 0

    def __call__(self, coeffs: np.ndarray, j: int) -> np.ndarray:
        widths, centers = self.widths, self.centers
        far = _separation(widths[:j], widths[j], centers[j] - centers[:j]) <= NEAR_FIELD_THRESHOLD
        nfar = int(np.count_nonzero(far))
        if far[:nfar].all():
            src, near = slice(nfar), range(nfar, j)
        else:
            src, near = np.flatnonzero(far), np.flatnonzero(~far).tolist()
        target = self.bounds[j]
        history = np.zeros(coeffs.shape[-1])
        if nfar:
            history = history + far_history_sum(self.beta, target, self.intervals[src], coeffs[src])
        for i in near:
            history = history + history_contribution(self.beta, coeffs[i], self.bounds[i], target)
        self.pairs_far += nfar
        self.pairs_near += len(near)
        return history


def frac_pairing(beta: float, nodes: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Bilinear form  int_0^T v(t) (I^beta u)(t) dt  on piecewise polynomials.

    ``u`` and ``v`` are modal coefficient arrays of shape (n_elements, k+1)
    over the mesh given by ``nodes``.  beta = 0 degenerates to the plain L2
    pairing.  The kernel is positive definite, so the form with u = v is
    nonnegative; this is what makes upwind marching dissipative.
    """
    nodes = np.asarray(nodes, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.shape[0] != nodes.size - 1:
        raise ValueError("coefficient arrays must be (n_elements, k+1) on the given mesh")
    n, kp1 = u.shape
    h = np.diff(nodes)
    if beta == 0.0:
        mm = np.diag(mass_matrix(kp1 - 1))
        return float(np.sum(h[:, None] * v * mm[None, :] * u))
    beta = _check_beta(beta)
    mloc = local_frac_matrix(beta, kp1 - 1)
    history = _History(beta, nodes)
    total = 0.0
    for j in range(n):
        acc = h[j] ** (1.0 + beta) * (mloc @ u[j]) + history(u, j)
        total += float(v[j] @ acc)
    return total


def _conv_eval(nu: float, nodes: np.ndarray, coeffs: np.ndarray, t, differentiate: bool):
    """Order-nu fractional integral of a piecewise polynomial at the time(s)
    t > 0, or its first derivative when ``differentiate`` is set; a float for
    a scalar t, else an array of t's shape."""
    n = nodes.size - 1
    tt = np.asarray(t, dtype=float).ravel()
    bad = tt[~((nodes[0] < tt) & (tt <= nodes[-1] * (1 + 1e-12) + 1e-300))]
    if bad.size:
        raise ValueError(f"evaluation time must lie in ({nodes[0]}, {nodes[-1]}], got {bad[0]}")
    js = np.clip(np.searchsorted(nodes, tt, side="left") - 1, 0, n - 1)
    ks = coeffs.shape[1] - 1
    ls = np.arange(MULTIPOLE_TERMS + 1)
    tab = _near_table(nu, ks)
    cfi, gam = tab.cfi, tab.gam
    pw, fl = nu, 1.0
    if differentiate:
        # d/dt (t-a)**g = g (t-a)**(g-1) and d/dt dist**(nu-1-l) = (nu-1-l) dist**(nu-2-l)
        cfi, gam, pw, fl = cfi * gam, gam - 1.0, nu - 1.0, nu - 1.0 - ls
    a, b = nodes[:-1], nodes[1:]
    h, centers = b - a, 0.5 * (a + b)
    mono = coeffs @ tab.mono.T
    # per source: power-rule weights about its left and right endpoints, and
    # multipole weights (row l) of the series in the positive ratio
    left, right = mono * cfi, mono @ tab.shift * cfi
    far_w = (_far_kernel_table(nu)[0] * (coeffs @ _p_table(ks)) * fl).T
    out = np.empty(tt.size)
    for lo in range(0, tt.size, _EVAL_BLOCK):
        tb, jb = tt[lo : lo + _EVAL_BLOCK], js[lo : lo + _EVAL_BLOCK]
        ti, si = np.nonzero(np.arange(n) < jb[:, None])  # (time, earlier source) pairs
        dist = tb[ti] - centers[si]
        ratio = _separation(h[si], 0.0, dist)  # t is a target of width 0
        far = ~(ratio > NEAR_FIELD_THRESHOLD)

        # near sources, then the element containing t with its part past t
        # cut off: power rule about the left endpoint minus, for every source
        # but the containing one, the same about the right endpoint
        near_t = np.concatenate([ti[~far], np.arange(tb.size)])
        near_s = np.concatenate([si[~far], jb])
        hn, prior = h[near_s], near_t.size - tb.size
        per_src = (left[near_s] * ((tb[near_t] - a[near_s]) / hn)[:, None] ** gam).sum(axis=1)
        s1 = ((tb[near_t[:prior]] - b[near_s[:prior]]) / hn[:prior])[:, None]
        per_src[:prior] -= (right[near_s[:prior]] * s1**gam).sum(axis=1)
        total = np.bincount(near_t, hn**pw * per_src, tb.size)

        # far sources: Horner in the ratio over the multipole weights
        fs, ratio = si[far], ratio[far]
        series = far_w[-1, fs]
        for w in far_w[-2::-1]:
            series = series * ratio + w[fs]
        far_sum = np.bincount(ti[far], h[fs] * dist[far] ** (pw - 1.0) * series, tb.size)
        out[lo : lo + _EVAL_BLOCK] = total + far_sum / gamma_fn(nu)
    return out.reshape(np.shape(t)) if np.ndim(t) else float(out[0])


def _solution_field(solution) -> tuple[np.ndarray, np.ndarray]:
    nodes = np.asarray(solution.mesh.nodes, dtype=float)
    coeffs = np.asarray(solution.coeffs, dtype=float)
    if coeffs.ndim == 2:
        coeffs = coeffs[:, None, :]
    return nodes, coeffs[:, 0, :]


def frac_integral_eval(beta: float, solution, t) -> np.ndarray | float:
    """(I^beta x)(t) for field 0 of a piecewise-polynomial solution, at a time
    t in (t_0, T] (a float back) or an array of them (an array, in one pass)."""
    beta = _check_beta(beta)
    nodes, coeffs = _solution_field(solution)
    return _conv_eval(beta, nodes, coeffs, t, differentiate=False)


def rl_derivative_eval(mu: float, solution, t) -> np.ndarray | float:
    """Riemann-Liouville derivative of order mu in [0, 1):  d/dt I^(1-mu) x.

    ``t`` is a time or an array of times, as for frac_integral_eval.  mu = 0
    reduces to evaluating the field itself at t.  The far-field history terms
    then vanish identically, but the near-field sources only cancel to
    roundoff (up to a few 1e-11 relative on k = 3 data).
    """
    mu = float(mu)
    if not 0.0 <= mu < 1.0:
        raise ValueError(f"derivative order must lie in [0, 1), got {mu}")
    nodes, coeffs = _solution_field(solution)
    return _conv_eval(1.0 - mu, nodes, coeffs, t, differentiate=True)


# ---------------------------------------------------------------------------
# independent reference quadrature
# ---------------------------------------------------------------------------

def _oracle_disjoint(
    beta: float,
    k: int,
    inner: tuple[float, float],
    outer: tuple[float, float],
    m_out: int,
    l_out: int,
    n_in: int,
    l_in: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Tensor quadrature with dyadic refinement toward the touching corner.

    The tau grid is refined geometrically toward the inner element's right
    endpoint and the t grid toward the outer element's left endpoint, so on
    every (t-segment, tau-segment) pair the kernel (t-tau)**(beta-1) varies
    by a bounded factor and Gauss-Legendre converges superexponentially.
    All node positions are kept as offsets from the corner endpoints, which
    keeps t - tau > 0 exact even many dyadic levels below machine epsilon
    relative to the absolute times.  The outermost t sliver of width
    h_out * 2**-l_out is dropped; its contribution is O(2**(-l_out*(1+beta)))
    relative.  Returns the (k+1)x(k+1) block [q, p] of integrals and of sums
    of absolute terms; the latter sets the roundoff floor of the former.
    """
    a_i, b_i = inner
    a_j, b_j = outer
    h_i, h_j = b_i - a_i, b_j - a_j
    gap = a_j - b_i  # >= 0, exactly 0 for touching elements

    base = gauss_legendre(n_in)
    # tau offsets w = b_i - tau: segments [h_i*2**-(l+1), h_i*2**-l] plus the
    # closing sliver [0, h_i*2**-l_in]
    w_off = [h_i * 2.0 ** (-l_in) * base.nodes]
    w_wts = [h_i * 2.0 ** (-l_in) * base.weights]
    for l in range(l_in):
        lo = h_i * 2.0 ** (-l - 1)
        w_off.append(lo + lo * base.nodes)
        w_wts.append(lo * base.weights)
    w = np.concatenate(w_off)
    ww = np.concatenate(w_wts)

    out_rule = gauss_legendre(m_out)
    # t offsets u = t - a_j: segments [h_j*2**-(l+1), h_j*2**-l]
    u_off = []
    u_wts = []
    for l in range(l_out):
        lo = h_j * 2.0 ** (-l - 1)
        u_off.append(lo + lo * out_rule.nodes)
        u_wts.append(lo * out_rule.weights)
    u = np.concatenate(u_off)
    wu = np.concatenate(u_wts)

    kernel = (u[:, None] + gap + w[None, :]) ** (beta - 1.0)
    left = wu[:, None] * legendre_table(k, u / h_j)  # weighted test basis phi_q
    right = ww[:, None] * legendre_table(k, 1.0 - w / h_i)  # weighted source basis phi_p
    return left.T @ kernel @ right, np.abs(left).T @ kernel @ np.abs(right)


def oracle_frac_block(
    beta: float,
    k: int,
    inner_interval: Sequence[float],
    outer_interval: Sequence[float],
    tol: float = 1e-12,
) -> np.ndarray:
    """Reference block of fractional-integral Galerkin entries by quadrature.

    Entry [q, p] is int_outer phi_q(t) (I^beta_restricted-to-inner phi_p)(t) dt,
    with phi_p, phi_q the degree <= k modal basis on their own intervals, so
    a source with coefficients c gives the moments ``B @ c``.  Same-interval
    blocks use two nested Gauss-Jacobi rules that are exact for polynomial
    data.  Disjoint intervals use corner-refined composite quadrature at two
    resolutions; if the two disagree in any entry beyond ``tol`` (relative,
    with a floor at the roundoff level of that entry) an OracleError is
    raised.
    """
    beta = _check_beta(beta)
    k = _check_degree(k)
    a_i, b_i = map(float, inner_interval)
    a_j, b_j = map(float, outer_interval)
    if not (b_i > a_i and b_j > a_j):
        raise ValueError("intervals must have positive width")
    scale = max(abs(a_i), abs(b_j), b_i - a_i, b_j - a_j)

    if abs(a_i - a_j) <= 1e-14 * scale and abs(b_i - b_j) <= 1e-14 * scale:
        # same element: exact nested Jacobi quadrature
        h = b_i - a_i
        inner_rule = gauss_jacobi(MAX_DEGREE + 2, beta - 1.0, 0.0)
        outer_rule = gauss_jacobi(2 * MAX_DEGREE + 2, 0.0, beta)
        x = outer_rule.nodes  # t = a + h*x, weight x**beta built in
        # inner integral = (t-a)**beta * sum_r w_r phi_p(a + (t-a) v_r)
        sig = x[:, None] * inner_rule.nodes[None, :]
        pv = legendre_table(k, sig.ravel()).reshape(*sig.shape, k + 1)
        inner_vals = inner_rule.weights @ pv  # (outer node, p)
        qv = outer_rule.weights[:, None] * legendre_table(k, x)
        return h ** (1.0 + beta) / gamma_fn(beta) * (qv.T @ inner_vals)

    if b_i > a_j + 1e-12 * scale:
        raise ValueError("inner interval must precede the outer interval")

    i1, mag1 = _oracle_disjoint(beta, k, (a_i, b_i), (a_j, b_j), 18, 48, 20, 56)
    i2, mag2 = _oracle_disjoint(beta, k, (a_i, b_i), (a_j, b_j), 26, 54, 24, 62)
    est = np.abs(i1 - i2)
    # the sum of absolute terms bounds roundoff accumulation in the tensor
    # contraction; entries below that level are certified as numerical zeros
    floor = 1e-13 * np.maximum(mag1, mag2)
    bad = est > np.maximum(tol * np.maximum(np.abs(i1), np.abs(i2)), floor)
    if np.any(bad):
        q, p = np.argwhere(bad)[0]
        raise OracleError(f"reference quadrature uncertain at entry ({q}, {p}): "
                          f"estimate {est[q, p]:.3e} for value {i2[q, p]:.6e}")
    return i2 / gamma_fn(beta)
