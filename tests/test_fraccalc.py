"""Tests for the closed-form fractional-integral assembly.

The closed forms are checked against hand-derived values and against the
independent composite-quadrature oracle, which shares no code with them.
"""
import math

import numpy as np
import pytest

from fodelab import fraccalc as fc
from fodelab import polybasis as pb
from fodelab.problem import build_mesh


def test_caputo_power_rule():
    # [DERIVED] d^0.5/dt^0.5 t^2 = Gamma(3)/Gamma(2.5) t^1.5 = 2/(0.75*sqrt(pi)) t^1.5
    np.testing.assert_allclose(fc.caputo_power(0.5, 2), 2.0 / (0.75 * math.sqrt(math.pi)), rtol=1e-14)
    # constants are annihilated; t is annihilated for alpha in (1, 2]
    assert fc.caputo_power(0.5, 0) == 0.0
    assert fc.caputo_power(1.5, 1) == 0.0
    assert fc.caputo_power(1.5, 0) == 0.0
    # integer order reduces to the ordinary derivative coefficient
    np.testing.assert_allclose(fc.caputo_power(1.0, 3), 3.0, rtol=1e-14)
    np.testing.assert_allclose(fc.caputo_power(2.0, 5), 20.0, rtol=1e-13)


def test_frac_int_power_coeff():
    # [DERIVED] I^0.5 of 1: coefficient 1/Gamma(1.5) = 2/sqrt(pi)
    np.testing.assert_allclose(fc.frac_int_power_coeff(0.5, 0), 2.0 / math.sqrt(math.pi), rtol=1e-14)
    # I^1 of t^n has coefficient 1/(n+1)
    np.testing.assert_allclose(fc.frac_int_power_coeff(1.0, np.arange(5)), 1.0 / np.arange(1, 6), rtol=1e-14)
    # beta = 0 is the identity; a negative order is a derivative, not this integral
    assert fc.frac_int_power_coeff(0.0, 3) == pytest.approx(1.0, rel=1e-14)
    for beta in (-1.0, -0.5, math.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            fc.frac_int_power_coeff(beta, 2)


def test_local_frac_matrix_constant_mode():
    # [DERIVED] k = 0 entry: int_0^1 I^beta[1](t) dt = 1/Gamma(beta+2).
    # beta = 0.5: 1/Gamma(2.5) = 0.75225277806367504...
    m = fc.local_frac_matrix(0.5, 0)
    np.testing.assert_allclose(m[0, 0], 0.7522527780636750, rtol=1e-14)
    for beta in (0.1, 0.3, 0.9, 1.0):
        m = fc.local_frac_matrix(beta, 3)
        np.testing.assert_allclose(m[0, 0], 1.0 / math.gamma(beta + 2.0), rtol=1e-14)
    with pytest.raises(ValueError):
        fc.local_frac_matrix(0.5, 2.5)


def test_local_frac_matrix_beta_one_is_single_integral():
    # I^1 u = int_0^t u; entry [q,p] = int phi_q(t) int_0^t phi_p. Row q = 0
    # by parts: int_0^1 (1-t) phi_p(t) dt = delta_p0 - (1/3) delta_p1... check
    # against direct quadrature instead of hand values.
    k = 4
    m = fc.local_frac_matrix(1.0, k)
    rule = pb.gauss_legendre(20)
    tab = pb.legendre_table(k, rule.nodes)
    direct = np.zeros((k + 1, k + 1))
    for p in range(k + 1):
        for q in range(k + 1):
            inner = np.array([
                np.sum(rule.weights * t * (pb.legendre_table(k, rule.nodes * t)[:, p]))
                for t in rule.nodes
            ])
            direct[q, p] = np.sum(rule.weights * tab[:, q] * inner)
    np.testing.assert_allclose(m, direct, atol=1e-14)


def test_local_frac_matrix_vs_oracle():
    for beta in (0.1, 0.5, 0.9):
        for k in (0, 2, 5):
            m = fc.local_frac_matrix(beta, k)
            interval = (0.0, 1.0)
            ref = fc.oracle_frac_block(beta, k, interval, interval)
            np.testing.assert_allclose(m, ref, rtol=1e-11, atol=1e-13)


def test_phi_power_moment_hand_values():
    # [DERIVED] int_0^1 (1+xi) dxi = 3/2
    np.testing.assert_allclose(fc._phi_power_moments(1.0, 0, 1.0, 1.0)[0, 0], 1.5, rtol=1e-14)
    # [DERIVED] int_0^1 (2 xi - 1) sqrt(1+xi) dxi = (6 - 4*sqrt(2))/5
    np.testing.assert_allclose(
        fc._phi_power_moments(0.5, 1, 1.0, 1.0)[1, 0], (6.0 - 4.0 * math.sqrt(2.0)) / 5.0, rtol=1e-13
    )
    # c0 = 0 branch: int_0^1 xi^0.3 dxi = 1/1.3, scaled by c1^0.3
    np.testing.assert_allclose(fc._phi_power_moments(0.3, 0, 0.0, 2.0)[0, 0], 2.0**0.3 / 1.3, rtol=1e-14)
    # integer exponent below q: falling factorial kills it exactly
    assert fc._phi_power_moments(2.0, 3, 1.0, 1.0)[3, 0] == 0.0
    # memoised, so both branches hand out read-only arrays
    assert not fc._phi_power_moments(0.5, 1, 1.0, 1.0).flags.writeable
    assert not fc._phi_power_moments(0.3, 0, 0.0, 2.0).flags.writeable


def test_phi_power_moments_match_quadrature():
    # entrywise against composite Gauss-Legendre of the definition, graded
    # dyadically toward xi = 0 where (c0 + c1 xi)**gamma is least smooth
    rule = pb.gauss_legendre(30)
    edges = 2.0 ** -np.arange(60.0, -1.0, -1.0)
    lo = np.concatenate([[0.0], edges[:-1]])
    xi = (lo[:, None] + (edges - lo)[:, None] * rule.nodes).ravel()
    wts = ((edges - lo)[:, None] * rule.weights).ravel()
    for k in (0, 3, 6):
        tab = pb.legendre_table(k, xi)
        for beta in (0.3, 1.0):
            gammas = np.arange(k + 1) + beta
            for c0 in (0.0, 1e-3, 0.5, 3.0):
                for c1 in (0.5, 2.0):
                    got = fc._phi_power_moments(beta, k, c0, c1)
                    powers = (c0 + c1 * xi)[:, None] ** gammas
                    ref = tab.T @ (wts[:, None] * powers)
                    mag = np.abs(tab).T @ (wts[:, None] * powers)
                    assert got.shape == (k + 1, k + 1)
                    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14 * mag.max())
                    if beta == 1.0 and k >= 3:
                        # gammas[1] = 2: phi_3 is orthogonal to quadratics
                        assert np.all(got[3:, 1] == 0.0)


def test_history_adjacent_constants():
    # [DERIVED] unit intervals [0,1] -> [1,2], p = q = 1:
    # beta=1: plain double integral = 1.
    h = fc.history_contribution(1.0, np.array([1.0]), (0.0, 1.0), (1.0, 2.0))
    np.testing.assert_allclose(h[0], 1.0, rtol=1e-13)
    # beta=1/2: (4/(3 sqrt(pi))) (2 sqrt(2) - 2), by direct integration of
    # (1/Gamma(1/2)) int_1^2 int_0^1 (t-tau)^(-1/2) dtau dt.
    h = fc.history_contribution(0.5, np.array([1.0]), (0.0, 1.0), (1.0, 2.0))
    expected = (4.0 / (3.0 * math.sqrt(math.pi))) * (2.0 * math.sqrt(2.0) - 2.0)
    np.testing.assert_allclose(h[0], expected, rtol=1e-13)


def test_history_near_vs_oracle():
    rng = np.random.default_rng(7)
    for beta in (0.2, 0.6, 0.95):
        for k in (0, 1, 3, 5):
            c = rng.standard_normal(k + 1)
            src, tgt = (0.3, 0.7), (0.7, 1.1)  # adjacent, equal width
            h = fc.history_contribution(beta, c, src, tgt)
            ref = fc.oracle_frac_block(beta, k, src, tgt) @ c
            np.testing.assert_allclose(h, ref, rtol=0, atol=1e-11 * np.max(np.abs(ref)))


def test_history_near_unequal_widths_vs_oracle():
    rng = np.random.default_rng(11)
    k = 3
    c = rng.standard_normal(k + 1)
    for beta in (0.4, 1.0):
        for src, tgt in [((0.0, 0.1), (0.1, 0.5)), ((0.0, 0.4), (0.4, 0.5)), ((0.2, 0.5), (0.6, 1.4))]:
            h = fc.history_contribution(beta, c, src, tgt)
            ref = fc.oracle_frac_block(beta, k, src, tgt) @ c
            np.testing.assert_allclose(h, ref, rtol=0, atol=2e-11 * np.max(np.abs(ref)))


def test_history_far_vs_oracle():
    rng = np.random.default_rng(13)
    for beta in (0.2, 0.6, 0.95):
        for k in (0, 2, 5):
            c = rng.standard_normal(k + 1)
            src, tgt = (0.0, 0.5), (2.5, 3.0)  # theta = 1/5, far branch
            h = fc.history_contribution(beta, c, src, tgt)
            ref = fc.oracle_frac_block(beta, k, src, tgt) @ c
            np.testing.assert_allclose(h, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


def test_history_regimes_agree_at_threshold():
    # just-inside vs just-outside the near-field threshold must agree since
    # both forms are exact; theta = 0.349 and 0.351 around distance ~2.86h
    rng = np.random.default_rng(17)
    k = 4
    c = rng.standard_normal(k + 1)
    for beta in (0.3, 0.8):
        for dist in (2.75, 2.90):
            src = (0.0, 1.0)
            tgt = (dist, dist + 1.0)
            h = fc.history_contribution(beta, c, src, tgt)
            ref = fc.oracle_frac_block(beta, k, src, tgt) @ c
            # the near form's two power families cancel to ~1e4x the entry
            # size this close to the switch, so allow a few lost digits
            np.testing.assert_allclose(h, ref, rtol=0, atol=3e-10 * np.max(np.abs(ref)))


def test_far_history_sum_matches_pairwise():
    rng = np.random.default_rng(19)
    k = 3
    nodes = np.linspace(0.0, 4.0, 9)
    coeffs = rng.standard_normal((5, k + 1))
    tgt = (nodes[7], nodes[8])
    srcs = np.column_stack([nodes[:5], nodes[1:6]])
    batched = fc.far_history_sum(0.6, tgt, srcs, coeffs)
    single = sum(
        fc.history_contribution(0.6, coeffs[i], (nodes[i], nodes[i + 1]), tgt) for i in range(5)
    )
    np.testing.assert_allclose(batched, single, rtol=1e-13)
    # unit sources 3 to 2000 widths away, enough of them for every rung of
    # the order ladder to be used in one call; each source alone gets the
    # full order
    dists = np.geomspace(3.0, 2000.0, 400)
    tgt = (2000.0, 2001.0)
    srcs = np.column_stack([2000.0 - dists, 2001.0 - dists])
    theta = 1.0 / dists
    lower = [0.0] + [bound for _, bound in fc._MULTIPOLE_LADDER[:-1]]
    for (_, bound), lo in zip(fc._MULTIPOLE_LADDER, lower):
        assert np.count_nonzero((theta <= bound) & (theta > lo)) >= fc._RUNG_MIN_SOURCES
    coeffs = rng.standard_normal((400, k + 1))
    batched = fc.far_history_sum(0.6, tgt, srcs, coeffs)
    single = sum(fc.far_history_sum(0.6, tgt, srcs[i : i + 1], coeffs[i : i + 1]) for i in range(400))
    np.testing.assert_allclose(batched, single, rtol=1e-13)


def test_far_history_truncation_at_each_rung():
    # sources just inside each reduced order's theta bound must still match
    # the oracle as the full order does at the near/far threshold; the one
    # source is split into enough equal copies for its rung to be used
    rng = np.random.default_rng(29)
    k = 3
    copies = fc._RUNG_MIN_SOURCES
    for order, bound in fc._MULTIPOLE_LADDER[:-1]:
        assert order >= 2 * k
        dist = 1.0 / (0.999 * bound)  # unit source and target: theta = 1/dist
        src, tgt = (0.0, 1.0), (dist, dist + 1.0)
        for beta in (0.2, 0.95, 1.5):
            c = rng.standard_normal(k + 1)
            got = fc.far_history_sum(beta, tgt, [src] * copies, np.tile(c / copies, (copies, 1)))
            ref = fc.oracle_frac_block(beta, k, src, tgt) @ c
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


def _table_calls():
    info = fc._uniform_far_table.cache_info()
    return info.hits + info.misses


def test_uniform_far_table_matches_oracle():
    # a unit source and target d widths apart read block T[d] of the table,
    # at the nearest far distance and a distant one
    rng = np.random.default_rng(37)
    k = 3
    for d in (3, 40):
        src, tgt = (0.0, 1.0), (float(d), d + 1.0)
        for beta in (0.2, 0.95, 1.5):
            c = rng.standard_normal(k + 1)
            calls = _table_calls()
            got = fc.far_history_sum(beta, tgt, [src], c[None, :])
            assert _table_calls() == calls + 1
            block = fc._uniform_far_table(beta, k, 256)[d].reshape(k + 1, k + 1).T
            np.testing.assert_array_equal(got, block @ c)
            ref = fc.oracle_frac_block(beta, k, src, tgt) @ c
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


def test_uniform_far_table_matches_ladder(monkeypatch):
    # build_mesh(1000, 0.7) is uniform only to roundoff: calls whose widths
    # and distances pass _UNIFORM_RTOL read the table, the rest run the
    # ladder; either way the result stays within a few _UNIFORM_RTOL of the
    # ladder's, relative to the sum of absolute source contributions
    rng = np.random.default_rng(41)
    nodes = build_mesh(1000, 0.7).nodes
    rtol = fc._UNIFORM_RTOL
    table_calls = 0
    for beta, k in ((0.1, 3), (0.5, 2), (1.3, 1)):
        coeffs = rng.standard_normal((1000, k + 1))
        for j in (20, 150, 400, 999):
            src, c = np.column_stack([nodes[: j - 2], nodes[1 : j - 1]]), coeffs[: j - 2]
            tgt = nodes[j : j + 2]
            calls = _table_calls()
            got = fc.far_history_sum(beta, tgt, src, c)
            table_calls += _table_calls() - calls
            with monkeypatch.context() as m:
                m.setattr(fc, "_UNIFORM_RTOL", -1.0)  # no call is uniform: the ladder
                ladder = fc.far_history_sum(beta, tgt, src, c)
                parts = [fc.far_history_sum(beta, tgt, src[i : i + 1], c[i : i + 1]) for i in range(j - 2)]
            assert np.all(np.abs(got - ladder) <= 3 * rtol * np.sum(np.abs(parts), axis=0))
    assert table_calls > 0
    # widths that differ by 1e-11 relative are beyond roundoff: no table
    jittered = nodes + 1e-11 * 7e-4 * rng.standard_normal(nodes.size)
    calls = _table_calls()
    src = np.column_stack([jittered[:98], jittered[1:99]])
    fc.far_history_sum(0.5, jittered[100:102], src, np.ones((98, 2)))
    assert _table_calls() == calls


def test_far_history_sum_without_sources_is_zero():
    empty = fc.far_history_sum(0.5, (1, 2), np.empty((0, 2)), np.empty((0, 3)))
    np.testing.assert_array_equal(empty, np.zeros(3))


def test_far_history_sum_rejects_near_sources():
    with pytest.raises(ValueError):
        fc.far_history_sum(0.5, (1.0, 2.0), [(0.0, 1.0)], np.array([[1.0, 0.0]]))


@pytest.mark.parametrize("target, sources, coeffs", [
    ((5.0, 4.0), [(0.0, 1.0)], [[1.0, 0.5]]),  # reversed target
    ((4.0, 5.0), [(1.0, 0.0)], [[1.0, 0.5]]),  # reversed source
    ((4.0, 5.0), [(0.5, 0.5)], [[1.0, 0.5]]),  # zero-width source
    ((4.0, 5.0), [(0.0, 0.5, 1.0)], [[1.0, 0.5]]),  # three endpoints per source
    ((4.0, 5.0), [(0.0, 1.0)], [[[1.0], [0.5]]]),  # (nsrc, k+1, 1) coefficients
], ids=["reversed-target", "reversed-source", "zero-width-source", "three-columns", "3d-coeffs"])
def test_far_history_sum_rejects_malformed_input(target, sources, coeffs):
    with pytest.raises(ValueError):
        fc.far_history_sum(0.5, target, sources, np.array(coeffs))


@pytest.mark.parametrize("source, target", [
    ((math.nan, 1.0), (4.0, 5.0)),
    ((0.0, 1.0), (4.0, math.inf)),
    ((-math.inf, 1.0), (1.0, 2.0)),
], ids=["nan-source", "inf-target", "inf-source"])
def test_history_contribution_rejects_non_finite_endpoints(source, target):
    with pytest.raises(ValueError):
        fc.history_contribution(0.5, np.array([1.0, 0.5]), source, target)


def test_history_rejects_overlap():
    with pytest.raises(ValueError):
        fc.history_contribution(0.5, np.array([1.0]), (0.0, 1.0), (0.5, 1.5))


def test_beta_continuity_at_one():
    c = np.array([0.3, -1.2, 0.8])
    a = fc.history_contribution(1.0 - 1e-9, c, (0.0, 1.0), (1.0, 2.0))
    b = fc.history_contribution(1.0, c, (0.0, 1.0), (1.0, 2.0))
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-7)


class _FakeSolution:
    """Minimal stand-in for a solver result: mesh nodes + modal coefficients."""

    class _M:
        def __init__(self, nodes):
            self.nodes = nodes

    def __init__(self, nodes, coeffs):
        self.mesh = self._M(np.asarray(nodes, dtype=float))
        self.coeffs = np.asarray(coeffs, dtype=float)


def _project_global(f, nodes, k):
    return np.array([pb.project(f, (nodes[i], nodes[i + 1]), k) for i in range(len(nodes) - 1)])


def test_frac_integral_eval_power_exactness():
    # I^beta t^j = j!/Gamma(j+1+beta) t^(j+beta) holds globally; a piecewise
    # representation of t^j must reproduce it through every element regime.
    nodes = np.array([0.0, 0.07, 0.22, 0.51, 0.8, 1.13, 1.6, 2.0])
    k = 3
    for j in (0, 2, 3):
        sol = _FakeSolution(nodes, _project_global(lambda t: t**j, nodes, k))
        for beta in (0.3, 0.7, 1.0):
            coeff = fc.frac_int_power_coeff(beta, j)
            for t in (0.05, 0.5, 0.81, 1.9, 2.0):
                val = fc.frac_integral_eval(beta, sol, t)
                np.testing.assert_allclose(val, coeff * t ** (j + beta), rtol=5e-13, atol=1e-14)


def test_rl_derivative_eval_power_exactness():
    # D^mu t^j = Gamma(j+1)/Gamma(j+1-mu) t^(j-mu) for j >= 0
    nodes = np.array([0.0, 0.13, 0.4, 0.78, 1.31, 2.0])
    k = 4
    for j in (1, 2, 4):
        sol = _FakeSolution(nodes, _project_global(lambda t: t**j, nodes, k))
        for mu in (0.3, 0.7):
            coeff = math.gamma(j + 1.0) / math.gamma(j + 1.0 - mu)
            for t in (0.1, 0.55, 1.0, 1.99):
                val = fc.rl_derivative_eval(mu, sol, t)
                np.testing.assert_allclose(val, coeff * t ** (j - mu), rtol=1e-11)


def test_point_evaluation_power_exactness_on_graded_mesh():
    # 64 elements graded toward t = 0: the near and the far sources of each
    # evaluation time are both many, so both batched branches carry weight
    nodes = 2.0 * (np.arange(65) / 64.0) ** 3
    k = 3
    times = (0.004, 0.3, 1.1, 1.77, 2.0)
    for j in (0, 2, 3):
        sol = _FakeSolution(nodes, _project_global(lambda t: t**j, nodes, k))
        for beta in (0.3, 0.7, 1.3):
            coeff = fc.frac_int_power_coeff(beta, j)
            for t in times:
                np.testing.assert_allclose(fc.frac_integral_eval(beta, sol, t), coeff * t ** (j + beta), rtol=1e-12)
        if j >= 2:
            for mu in (0.3, 0.7):
                coeff = math.gamma(j + 1.0) / math.gamma(j + 1.0 - mu)
                for t in times:
                    np.testing.assert_allclose(fc.rl_derivative_eval(mu, sol, t), coeff * t ** (j - mu), rtol=1e-12)


def test_point_evaluation_of_many_times_in_one_call():
    # graded meshes, 200 times in one call: power exactness as above, and
    # every value equal to its own scalar call, across the block edges
    times = np.linspace(0.0, 2.0, 201)[1:]
    assert times.size > 2 * fc._EVAL_BLOCK
    k = 3
    for grading in (1, 2, 4):
        nodes = 2.0 * (np.arange(33) / 32.0) ** grading
        for j in (0, 2, 3):
            sol = _FakeSolution(nodes, _project_global(lambda t: t**j, nodes, k))
            for beta in (0.3, 1.3):
                vals = fc.frac_integral_eval(beta, sol, times)
                np.testing.assert_allclose(vals, fc.frac_int_power_coeff(beta, j) * times ** (j + beta), rtol=1e-12)
                np.testing.assert_array_equal(vals, [fc.frac_integral_eval(beta, sol, t) for t in times])
            mu = 0.7
            vals = fc.rl_derivative_eval(mu, sol, times)
            if j >= 2:
                coeff = math.gamma(j + 1.0) / math.gamma(j + 1.0 - mu)
                np.testing.assert_allclose(vals, coeff * times ** (j - mu), rtol=1e-12)
            np.testing.assert_array_equal(vals, [fc.rl_derivative_eval(mu, sol, t) for t in times])
    assert isinstance(fc.frac_integral_eval(0.5, sol, 1.0), float)
    assert fc.frac_integral_eval(0.5, sol, times.reshape(20, 10)).shape == (20, 10)
    assert fc.rl_derivative_eval(0.5, sol, np.array([])).shape == (0,)
    for bad in (0.0, -0.5, 2.5, math.nan, math.inf):  # one bad time spoils the call
        with pytest.raises(ValueError, match="evaluation time"):
            fc.frac_integral_eval(0.5, sol, np.append(times, bad))


def test_rl_derivative_order_zero_is_identity():
    rng = np.random.default_rng(23)
    nodes = np.linspace(0.0, 1.0, 17)
    coeffs = rng.standard_normal((16, 4))
    sol = _FakeSolution(nodes, coeffs)
    for t in (0.03, 0.31, 0.625, 1.0):
        direct = None
        j = min(int(np.searchsorted(nodes, t, side="left")) - 1, 15)
        direct = pb.eval_poly(coeffs[j], (nodes[j], nodes[j + 1]), t)
        np.testing.assert_allclose(fc.rl_derivative_eval(0.0, sol, t), direct, rtol=1e-12, atol=1e-14)


def test_frac_pairing_positive():
    rng = np.random.default_rng(29)
    nodes = np.linspace(0.0, 1.0, 9)
    u = rng.standard_normal((8, 3))
    for beta in (0.25, 0.5, 0.9):
        q = fc.frac_pairing(beta, nodes, u, u)
        assert q > 0.0
    # beta = 0 degenerates to the (positive) L2 norm squared
    assert fc.frac_pairing(0.0, nodes, u, u) > 0.0


def test_frac_pairing_time_reflection_adjoint():
    # the kernel (t-tau)^(beta-1) 1_{tau<t} turns into its transpose under
    # t -> T - t, so pairing(u, v) = pairing(reflect v, reflect u)
    rng = np.random.default_rng(31)
    nodes = np.array([0.0, 0.2, 0.45, 0.8, 1.0])
    u = rng.standard_normal((4, 3))
    v = rng.standard_normal((4, 3))

    def reflect(w):
        signs = (-1.0) ** np.arange(w.shape[1])
        return (w * signs[None, :])[::-1]

    refl_nodes = (nodes[-1] - nodes)[::-1]
    for beta in (0.3, 0.75):
        lhs = fc.frac_pairing(beta, nodes, u, v)
        rhs = fc.frac_pairing(beta, refl_nodes, reflect(v), reflect(u))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-11)


def _pairing_against_pairwise(nodes, rng, k=3):
    """frac_pairing against a sum of per-pair history_contribution calls;
    returns each element's far mask over the elements before it."""
    n = nodes.size - 1
    u = rng.standard_normal((n, k + 1))
    v = rng.standard_normal((n, k + 1))
    h = np.diff(nodes)
    centers = 0.5 * (nodes[:-1] + nodes[1:])
    far = [[(h[i] + h[j]) / (2.0 * (centers[j] - centers[i])) <= fc.NEAR_FIELD_THRESHOLD
            for i in range(j)] for j in range(n)]
    assert 0 < sum(map(sum, far)) < n * (n - 1) // 2
    for beta in (0.3, 0.75):
        mloc = fc.local_frac_matrix(beta, k)
        ref = 0.0
        for j in range(n):
            acc = h[j] ** (1.0 + beta) * (mloc @ u[j])
            for i in range(j):
                acc = acc + fc.history_contribution(
                    beta, u[i], (nodes[i], nodes[i + 1]), (nodes[j], nodes[j + 1]))
            ref += float(v[j] @ acc)
        np.testing.assert_allclose(fc.frac_pairing(beta, nodes, u, v), ref, rtol=1e-13)
    return far


def test_frac_pairing_matches_pairwise_history():
    # graded nodes (j/24)^2 give far-field pairs of unequal widths next to
    # near-field ones, so the batched far sum is checked in both regimes
    _pairing_against_pairwise((np.arange(25) / 24) ** 2, np.random.default_rng(37))


def test_frac_pairing_matches_pairwise_history_on_random_widths():
    # widths log-uniform in [0.01, 1]: some elements have a near source before
    # a far one, so their far sources are not a prefix of the earlier elements
    rng = np.random.default_rng(43)
    nodes = np.concatenate([[0.0], np.cumsum(np.exp(rng.uniform(math.log(0.01), 0.0, 24)))])
    far = _pairing_against_pairwise(nodes, rng)
    assert any(not all(row[: sum(row)]) for row in far)


def test_oracle_same_interval_hand_value():
    # [DERIVED] beta=0.5, p=q=1 on [0,1]:
    # int_0^1 I^0.5[1](t) dt = int_0^1 t^0.5/Gamma(1.5) dt = 2/(3*Gamma(1.5))
    val = fc.oracle_frac_block(0.5, 0, (0.0, 1.0), (0.0, 1.0))
    np.testing.assert_allclose(val, [[2.0 / (3.0 * math.gamma(1.5))]], rtol=1e-13)


def test_oracle_rejects_overlapping():
    with pytest.raises(ValueError):
        fc.oracle_frac_block(0.5, 0, (0.0, 1.0), (0.8, 1.8))


def test_oracle_refuses_uncertifiable_block():
    # at beta = 0.1 the two resolutions of the adjacent k = 5 block differ
    # by 7.6e-15 in an entry of size 7.1e-3, past the default relative 1e-12
    with pytest.raises(fc.OracleError):
        fc.oracle_frac_block(0.1, 5, (0.3, 0.7), (0.7, 1.1))
