"""Tests for the Mittag-Leffler series and the solver-based evaluator."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import rgamma

from fodelab import mittag
from fodelab.ldgsolver import SolverError
from fodelab.mittag import MlfQuery, mlf_series, mlf_solve


def test_series_exponential_identity():
    # E_{1,1}(z) = e^z
    assert mlf_series(1.0, 1.0, -1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert mlf_series(1.0, 1.0, 0.3) == pytest.approx(math.exp(0.3), abs=1e-12)


def test_series_at_zero_is_reciprocal_gamma():
    assert mlf_series(0.5, 0.5, 0.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
    assert mlf_series(0.7, 1.0, 0.0) == 1.0
    assert mlf_series(0.3, 1.5, 0.0) == pytest.approx(1.0 / math.gamma(1.5), rel=1e-14)


def test_series_cosine_identity():
    # E_{2,1}(-z^2) = cos z at z = 1
    assert mlf_series(2.0, 1.0, -1.0) == pytest.approx(math.cos(1.0), abs=1e-12)


def test_series_refuses_unreliable_arguments():
    with pytest.raises(ValueError):
        mlf_series(1.0, 1.0, -10.5)  # beyond the radius
    with pytest.raises(ValueError):
        mlf_series(0.3, 1.0, -9.0)  # term budget exhausted (peak near k ~ 5000)
    with pytest.raises(ValueError):
        mlf_series(1.0, 1.0, -10.0, tol=1e-14)  # cancellation beyond tol
    with pytest.raises(ValueError):
        mlf_series(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        mlf_series(1.0, 1.0, 0.5, tol=0.0)


def test_series_certificate_is_honest():
    loose = mlf_series(0.7, 1.0, -1.5, tol=1e-6)
    tight = mlf_series(0.7, 1.0, -1.5, tol=1e-13)
    assert abs(loose - tight) <= 1e-6 * max(1.0, abs(tight))


def test_query_validation():
    with pytest.raises(ValueError):
        MlfQuery(alpha=0.0, beta=1.0)
    with pytest.raises(ValueError):
        MlfQuery(alpha=0.5, beta=0.0)
    with pytest.raises(ValueError):
        MlfQuery(alpha=0.5, beta=1.0, t_max=-1.0)
    with pytest.raises(ValueError):
        mlf_solve(MlfQuery(alpha=2.5, beta=1.0))
    with pytest.raises(ValueError):
        mlf_solve(MlfQuery(alpha=0.5, beta=1.0, t_max=1.0), times=[0.5, 2.0])
    with pytest.raises(ValueError, match="times"):
        mlf_solve(MlfQuery(alpha=0.5, beta=1.0, n=8, k=1), times=[[0.5, 1.0]])
    for beta in (0.5, 1.0, 1.5):  # every shift branch refuses a NaN time
        with pytest.raises(ValueError):
            mlf_solve(MlfQuery(alpha=0.5, beta=beta, n=8, k=1), times=[0.5, math.nan])
    # counts must be integers in range, rejected at construction with the argument named
    for name, value in (("sample_count", 3.5), ("n", 16.5), ("k", 2.5), ("n", 0), ("k", -1),
                        ("n", True), ("sample_count", True), ("k", 9)):
        with pytest.raises(ValueError, match=name):
            MlfQuery(alpha=0.5, beta=1.0, **{name: value})
    # the orders and the horizon must be positive and finite, also checked at construction
    for name in ("alpha", "beta", "t_max"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                MlfQuery(**{"alpha": 0.5, "beta": 1.0, name: value})


@pytest.fixture
def march_calls(monkeypatch):
    """Count the marches mlf_solve runs, starting from an empty memo."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = mittag.march
    monkeypatch.setattr(mittag, "march", counting)
    mittag._model_march.cache_clear()
    yield calls
    mittag._model_march.cache_clear()


def test_solve_marches_each_model_once(march_calls):
    base = MlfQuery(alpha=0.6, beta=0.5, t_max=1.0, sample_count=9, n=8, k=2)
    tables = [mlf_solve(replace(base, beta=beta))[1] for beta in (0.5, 1.0, 1.5)]
    assert len(march_calls) == 1
    # the values equal those of a cold memo bit for bit
    for beta, table in zip((0.5, 1.0, 1.5), tables):
        mittag._model_march.cache_clear()
        assert mlf_solve(replace(base, beta=beta))[1].tobytes() == table.tobytes()
    # any change to the model marches again
    march_calls.clear()
    changes = dict(alpha=0.7, a_coef=-2.0, t_max=1.5, n=9, k=1)
    for name, value in changes.items():
        mlf_solve(replace(base, **{name: value}))
    assert len(march_calls) == len(changes)
    # the memo holds one model: another model in between evicts it
    march_calls.clear()
    for query in (base, replace(base, alpha=0.7), base):
        mlf_solve(query)
    assert len(march_calls) == 3
    sol = mittag._model_march(base.alpha, base.a_coef, base.t_max, base.n, base.k)
    assert not sol.coeffs.flags.writeable


def test_solve_does_not_keep_a_failed_march(march_calls, monkeypatch):
    counting = mittag.march

    def failing(*args, **kwargs):
        counting(*args, **kwargs)
        raise SolverError("no convergence")

    monkeypatch.setattr(mittag, "march", failing)
    query = MlfQuery(alpha=0.6, beta=1.0, t_max=1.0, sample_count=5, n=8, k=1)
    with pytest.raises(SolverError):
        mlf_solve(query)
    monkeypatch.setattr(mittag, "march", counting)
    mlf_solve(query)
    assert len(march_calls) == 2


def test_solve_exponential_case():
    query = MlfQuery(alpha=1.0, beta=1.0, a_coef=-1.0, t_max=5.0, n=64, k=3)
    times, values = mlf_solve(query, times=np.linspace(0.0, 5.0, 26))
    assert np.max(np.abs(values - np.exp(-times))) <= 1e-6


def test_solve_matches_series_beta_one():
    query = MlfQuery(alpha=0.5, beta=1.0, a_coef=-1.0, t_max=1.0, n=64, k=3)
    _, values = mlf_solve(query, times=[1.0])
    assert values[0] == pytest.approx(mlf_series(0.5, 1.0, -1.0, tol=1e-13), abs=1e-6)
    # on a coarse sample grid: E_{1/2}(-t^(1/2)) starts at 1 and decays monotonically
    query = MlfQuery(alpha=0.5, beta=1.0, a_coef=-1.0, t_max=2.0, n=32, k=2)
    _, values = mlf_solve(query, times=np.linspace(0.0, 2.0, 9))
    assert values[0] == pytest.approx(1.0, rel=1e-13)
    assert np.all(np.diff(values) <= 1e-8)


def test_solve_matches_series_beta_below_one():
    times = np.linspace(0.1, 2.0, 20)
    query = MlfQuery(alpha=0.8, beta=0.6, a_coef=-1.0, t_max=2.0, n=64, k=3)
    _, values = mlf_solve(query, times=times)
    ref = np.array([mlf_series(0.8, 0.6, -t**0.8, tol=1e-13) for t in times])
    assert np.max(np.abs(values - ref)) <= 1e-5


def test_solve_matches_series_beta_above_one():
    times = np.array([0.25, 0.9, 1.7])
    query = MlfQuery(alpha=0.5, beta=1.5, a_coef=-1.0, t_max=2.0, n=64, k=3)
    _, values = mlf_solve(query, times=times)
    ref = np.array([mlf_series(0.5, 1.5, -math.sqrt(t), tol=1e-13) for t in times])
    assert np.max(np.abs(values - ref)) <= 1e-5


def test_solve_at_zero_returns_limit():
    for beta, expected in ((1.0, 1.0), (0.5, 1.0 / math.gamma(0.5)), (1.5, 1.0 / math.gamma(1.5))):
        query = MlfQuery(alpha=0.5, beta=beta, t_max=1.0, n=8, k=1)
        _, values = mlf_solve(query, times=[0.0])
        assert values[0] == pytest.approx(expected, rel=1e-14)


def _large_argument_reference(alpha, beta, z, terms=12):
    """E_{alpha,beta}(z) = -sum_{k=1}^{terms} z^(-k) / Gamma(beta - alpha k) for alpha < 1, z << 0.

    For alpha < 1 and real negative z the expansion has no exponential
    term.  Returns None unless the last nonzero term is below 1e-12 of the
    sum (a term vanishes where beta - alpha k is a pole of Gamma).
    """
    k = np.arange(1, terms + 1)
    series = -(z ** -k.astype(float)) * rgamma(beta - alpha * k)
    total = float(series.sum())
    last = series[np.nonzero(series)[0][-1]]
    return total if abs(last) < 1e-12 * abs(total) else None


# worst relative error at A = -50, t_max = 2, n = 256, k = 3 (11 samples; 7-8 of them at z <= -40)
_FAR_MEASURED = {
    (0.3, 0.5): 1.3e-8, (0.3, 1.0): 1.4e-10, (0.3, 1.5): 1.1e-9,
    (0.5, 0.5): 1.1e-6, (0.5, 1.0): 2.0e-10, (0.5, 1.5): 3.6e-10,
    (0.8, 0.5): 1.4e-8, (0.8, 1.0): 7.5e-10, (0.8, 1.5): 1.8e-11,
}


@pytest.mark.parametrize("alpha,beta", sorted(_FAR_MEASURED))
def test_solve_beyond_series_radius(alpha, beta):
    a_coef = -50.0
    query = MlfQuery(alpha=alpha, beta=beta, a_coef=a_coef, t_max=2.0, sample_count=11, n=256, k=3)
    times, values = mlf_solve(query)
    errors = []
    for t, value in zip(times, values):
        z = a_coef * t**alpha
        ref = _large_argument_reference(alpha, beta, z) if z <= -40.0 else None
        if ref is not None:
            errors.append(abs(value - ref) / abs(ref))
    assert len(errors) >= 6
    assert max(errors) <= 10.0 * _FAR_MEASURED[alpha, beta]
