"""Tests for the shifted Legendre basis and quadrature rules."""
import numpy as np
import pytest

from fodelab import polybasis as pb


def test_gauss_legendre_weights_sum_to_one():
    for n in (1, 2, 5, 16, 64):
        rule = pb.gauss_legendre(n)
        assert rule.nodes.shape == (n,)
        np.testing.assert_allclose(rule.weights.sum(), 1.0, rtol=1e-14)
        assert np.all(rule.nodes > 0) and np.all(rule.nodes < 1)
        assert pb.gauss_legendre(n) is rule and not rule.weights.flags.writeable


def test_quadrature_order_must_be_integer():
    pb.gauss_legendre(np.int64(2))  # a cached rule must not answer for 2.0
    for bad in (2.5, 2.0, True, 0):
        with pytest.raises(ValueError, match="quadrature order"):
            pb.gauss_legendre(bad)
        with pytest.raises(ValueError, match="quadrature order"):
            pb.gauss_jacobi(bad, 0.5, 0.0)


def test_gauss_legendre_polynomial_exactness():
    rule = pb.gauss_legendre(6)
    for d in range(12):  # exact through degree 2*6-1
        approx = np.sum(rule.weights * rule.nodes**d)
        np.testing.assert_allclose(approx, 1.0 / (d + 1), rtol=1e-13)


def test_gauss_jacobi_moments():
    # int_0^1 (1-x)^a x^b x^d dx = B(a+1, b+d+1)
    # [DERIVED] a=0.7, b=0.0, d=4: B(1.7, 5) = 4!/(1.7*2.7*3.7*4.7*5.7)
    #         = 2400000/45497457 = 0.052750201099... (exact integer products).
    rule = pb.gauss_jacobi(8, 0.7, 0.0)
    approx = np.sum(rule.weights * rule.nodes**4)
    np.testing.assert_allclose(approx, 2400000.0 / 45497457.0, rtol=1e-13)

    # weight on the other side: int_0^1 x^0.3 x^2 dx = 1/3.3
    rule = pb.gauss_jacobi(8, 0.0, 0.3)
    approx = np.sum(rule.weights * rule.nodes**2)
    np.testing.assert_allclose(approx, 1.0 / 3.3, rtol=1e-13)


def test_gauss_jacobi_rejects_bad_exponents():
    with pytest.raises(ValueError):
        pb.gauss_jacobi(4, -1.0, 0.0)
    with pytest.raises(ValueError):
        pb.gauss_jacobi(4, 0.0, -1.2)


def test_legendre_orthogonality():
    k = pb.MAX_DEGREE
    rule = pb.gauss_legendre(k + 2)
    tab = pb.legendre_table(k, rule.nodes)
    gram = tab.T @ (rule.weights[:, None] * tab)
    expected = np.diag(1.0 / (2.0 * np.arange(k + 1) + 1.0))
    np.testing.assert_allclose(gram, expected, atol=1e-14)


def test_legendre_endpoint_values():
    k = 6
    tab = pb.legendre_table(k, np.array([0.0, 1.0]))
    np.testing.assert_allclose(tab[1], np.ones(k + 1), rtol=1e-15)
    np.testing.assert_allclose(tab[0], (-1.0) ** np.arange(k + 1), rtol=1e-15)


def test_stiffness_entries():
    s = pb.stiffness_matrix(4)
    # [DERIVED] S[q,p] = int_0^1 phi_p phi_q' = 2 iff q > p and p+q odd.
    assert s[1, 0] == 2.0
    assert s[2, 1] == 2.0
    assert s[3, 0] == 2.0
    assert s[0, 1] == 0.0
    assert s[2, 0] == 0.0
    assert s[3, 3] == 0.0


def test_stiffness_integration_by_parts():
    # S + S^T should equal the boundary term phi(1)phi(1)^T - phi(0)phi(0)^T.
    k = pb.MAX_DEGREE
    s = pb.stiffness_matrix(k)
    one = np.ones(k + 1)
    alt = (-1.0) ** np.arange(k + 1)
    np.testing.assert_allclose(s + s.T, np.outer(one, one) - np.outer(alt, alt), atol=1e-14)


def test_legendre_to_monomial_low_order():
    # [DERIVED] phi_0 = 1, phi_1 = 2 xi - 1.
    a = pb.legendre_to_monomial(1)
    np.testing.assert_array_equal(a, [[1.0, -1.0], [0.0, 2.0]])
    # [DERIVED] phi_2 = 6 xi^2 - 6 xi + 1.
    a2 = pb.legendre_to_monomial(2)
    np.testing.assert_array_equal(a2[:, 2], [1.0, -6.0, 6.0])


def test_legendre_to_monomial_consistency():
    k = pb.MAX_DEGREE
    a = pb.legendre_to_monomial(k)
    xi = np.linspace(0, 1, 11)
    powers = xi[:, None] ** np.arange(k + 1)
    # entries of A reach ~3.5e4 at degree 8, so allow for roundoff amplification
    np.testing.assert_allclose(powers @ a, pb.legendre_table(k, xi), rtol=1e-10, atol=1e-10)


def test_project_reproduces_polynomials():
    rng = np.random.default_rng(42)
    for k in range(pb.MAX_DEGREE + 1):
        mono = rng.standard_normal(k + 1)
        f = lambda t: sum(c * t**j for j, c in enumerate(mono))
        coeffs = pb.project(f, (0.25, 1.75), k)
        t = np.linspace(0.25, 1.75, 13)
        np.testing.assert_allclose(pb.eval_poly(coeffs, (0.25, 1.75), t), f(t), rtol=1e-12, atol=1e-12)


def test_project_known_value():
    # [DERIVED] projecting f(t)=t onto degree 1 on [0,1]: c = (1/2, 1/2)
    # since t = 0.5*phi_0 + 0.5*phi_1.
    coeffs = pb.project(lambda t: t, (0.0, 1.0), 1)
    np.testing.assert_allclose(coeffs, [0.5, 0.5], rtol=1e-14)


def test_eval_poly_rejects_outside_points():
    with pytest.raises(ValueError):
        pb.eval_poly(np.array([1.0, 0.5]), (0.0, 1.0), 1.5)


def test_traces():
    c = np.array([1.0, 2.0, 3.0])
    # endpoint traces: the coefficient sum (right) and alternating sum (left)
    np.testing.assert_allclose(pb.eval_poly(c, (2.0, 3.0), 3.0), 6.0)
    np.testing.assert_allclose(pb.eval_poly(c, (2.0, 3.0), 2.0), 2.0)


def test_degree_bounds_enforced():
    with pytest.raises(ValueError):
        pb.mass_matrix(pb.MAX_DEGREE + 1)
    with pytest.raises(ValueError):
        pb.legendre_table(-1, np.array([0.5]))
