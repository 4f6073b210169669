"""Tests for problem definitions, meshes, and solution storage."""
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from fodelab.polybasis import eval_poly, project
from fodelab.problem import (
    BUILTIN_NAMES,
    Mesh,
    PiecewisePoly,
    ProblemSpec,
    build_mesh,
    builtin_problem,
    linear_model,
    load_problem_config,
    verify_forcing,
)


def _projected(f, mesh, k):
    """Element-by-element L2 projection of f as a one-field solution."""
    return PiecewisePoly(mesh, k, np.array([project(f, mesh.interval(j), k) for j in range(mesh.n)]))


def test_build_mesh_uniform():
    mesh = build_mesh(4, 2.0)
    np.testing.assert_allclose(mesh.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert mesh.n == 4
    assert mesh.horizon == 2.0
    np.testing.assert_allclose(np.diff(mesh.nodes), 0.5)


def test_build_mesh_graded():
    mesh = build_mesh(4, 1.0, grading=2.0)
    np.testing.assert_allclose(mesh.nodes, np.array([0, 1, 2, 3, 4.0]) ** 2 / 16.0)


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh(np.array([0.1, 0.5, 1.0]))  # must start at 0
    with pytest.raises(ValueError):
        Mesh(np.array([0.0, 0.5, 0.5]))  # strictly increasing
    with pytest.raises(ValueError):
        build_mesh(8, 1.0, grading=0.5)
    # a fractional element count would give a mesh ending past the horizon
    for bad in (2.5, 8.0, "8", 0, True):
        with pytest.raises(ValueError, match="n must be"):
            build_mesh(bad, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="horizon"):
            build_mesh(8, bad)
        with pytest.raises(ValueError, match="grading"):
            build_mesh(8, 1.0, grading=bad)
    assert build_mesh(np.int64(3), 1.0).nodes[-1] == 1.0


def test_field_count_and_initial_validation():
    spec = linear_model(0.5, -1.0, 0.0, (1.0,), 1.0)
    assert spec.field_count == 2
    assert spec.frac_order == 0.5
    spec = linear_model(1.5, -1.0, 0.0, (1.0, 0.0), 1.0)
    assert spec.field_count == 3
    np.testing.assert_allclose(spec.frac_order, 0.5)
    spec = linear_model(1.0, -1.0, 0.0, (1.0,), 1.0)
    assert spec.frac_order == 0.0
    with pytest.raises(ValueError):
        linear_model(1.5, -1.0, 0.0, (1.0,), 1.0)  # needs two initial values
    with pytest.raises(ValueError):
        linear_model(2.5, -1.0, 0.0, (1.0, 0.0, 0.0), 1.0)  # order out of range


def test_damping_requires_coefficient():
    with pytest.raises(ValueError):
        ProblemSpec(
            name="bad", alpha=0.5, f=lambda x, t: x, df_dx=None,
            initial=(1.0,), horizon=1.0, m=1, d=None,
        )


def test_linear_problem_requires_jacobian():
    # a linear problem is solved once with no residual check, so a
    # differenced Jacobian would leave its error in the solution
    with pytest.raises(ValueError, match="df_dx"):
        replace(builtin_problem("L2", 1.5), df_dx=None)
    replace(builtin_problem("L2", 1.5), df_dx=None, linear=False)


def test_builtin_problems_verify_forcing():
    # the central transcription guard: every builtin must satisfy its own
    # equation to roundoff on a 9-point interior grid of fractional orders
    ranges = {
        "L1": (0.0, 1.0), "N1": (0.0, 1.0), "L1Prime": (0.0, 1.0),
        "N5": (1.0, 2.0), "N4": (1.0, 2.0), "L2": (1.0, 2.0),
    }
    for name in BUILTIN_NAMES:
        lo, hi = ranges[name]
        for i in range(1, 10):
            alpha = lo + (hi - lo) * i / 10.0
            spec = builtin_problem(name, alpha)
            res = verify_forcing(spec)
            assert res <= 1e-10, f"{name} at alpha={alpha}: residual {res:.3e}"


def test_builtin_integer_alpha_cases():
    # L1 stays consistent at alpha = 1 (classic first-order equation)
    assert verify_forcing(builtin_problem("L1", 1.0)) <= 1e-10
    # N5 is consistent at alpha = 2 as well
    assert verify_forcing(builtin_problem("N5", 2.0)) <= 1e-10


def test_builtin_initial_values():
    assert builtin_problem("L1", 0.5).initial == (1.0,)
    assert builtin_problem("N5", 1.5).initial == (1.0, 1.0, 1.0)
    assert builtin_problem("N4", 1.5).initial == (1.0, 1.0)
    assert builtin_problem("L2", 1.5).initial == (1.0, 1.0)
    # at alpha = 1 exactly, L2 needs only x(0)
    assert builtin_problem("L2", 1.0).initial == (1.0,)


def test_builtin_range_enforced():
    with pytest.raises(ValueError):
        builtin_problem("L1", 1.5)
    with pytest.raises(ValueError):
        builtin_problem("N5", 0.5)
    with pytest.raises(ValueError):
        builtin_problem("nope", 0.5)


def test_perturbed_forcing_detected():
    base = builtin_problem("L1", 0.5)
    bad = ProblemSpec(
        name="L1-perturbed", alpha=base.alpha,
        f=lambda x, t: base.f(x, t) + 1e-3,
        df_dx=base.df_dx, initial=base.initial, horizon=base.horizon,
        linear=True, exact=base.exact, exact_monomials=base.exact_monomials,
    )
    res = verify_forcing(bad)
    assert 0.5e-3 <= res <= 2e-3


def test_piecewise_poly_roundtrip():
    mesh = build_mesh(5, 1.0)
    for k in (1, 2, 3):
        # project a polynomial of degree <= k and evaluate it back
        f = lambda t: (2.0 * t - 0.3) ** k
        sol = _projected(f, mesh, k)
        t = np.linspace(0.0, 1.0, 41)
        np.testing.assert_allclose(sol(t), f(t), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sol(t), [sol(ti) for ti in t], rtol=1e-15, atol=1e-15)
        for bad in (np.nan, 1.5, [0.5, np.nan]):
            with pytest.raises(ValueError):
                sol(bad)


def test_piecewise_poly_traces():
    mesh = build_mesh(4, 1.0)
    sol = _projected(lambda t: t**2, mesh, 2)
    np.testing.assert_allclose(sol.downwind_values(), mesh.nodes[1:] ** 2, rtol=1e-13)
    # left traces X(t_j^+), each element's polynomial at its own left end
    left = [eval_poly(sol.coeffs[j, 0], mesh.interval(j), mesh.nodes[j]) for j in range(mesh.n)]
    np.testing.assert_allclose(left, mesh.nodes[:-1] ** 2, rtol=1e-13, atol=1e-15)


def test_piecewise_poly_shape_validation():
    mesh = build_mesh(3, 1.0)
    with pytest.raises(ValueError):
        PiecewisePoly(mesh, 1, np.zeros((4, 1, 2)))  # wrong element count
    with pytest.raises(ValueError):
        PiecewisePoly(mesh, 2, np.zeros((3, 1, 2)))  # wrong degree


def test_load_problem_config(tmp_path):
    cfg = {"alpha": 0.5, "m": 0, "T": 1.0, "initial": [1.0], "forcing": "L1", "n": 16, "k": 2}
    out = load_problem_config(cfg)
    assert out["n"] == 16 and out["k"] == 2
    assert out["spec"].name == "L1"
    assert out["spec"].alpha == 0.5

    # file-object form
    out2 = load_problem_config(io.StringIO(json.dumps(cfg)))
    assert out2["spec"].initial == (1.0,)

    with pytest.raises(ValueError):
        load_problem_config({"alpha": 0.5, "forcing": "L1", "m": 1})
    with pytest.raises(ValueError):
        load_problem_config({"alpha": 0.5, "forcing": "L1", "bogus": 1})
    with pytest.raises(ValueError):
        load_problem_config({"forcing": "L1"})
    # integer settings are checked, not truncated
    base = {"alpha": 0.5, "forcing": "L1Prime"}
    for key, value in (("n", 16.7), ("k", 2.9), ("m", 1.5), ("n", True), ("k", 9)):
        with pytest.raises(ValueError, match=f"{key} must be"):
            load_problem_config({**base, key: value})
    # a file holding anything but a JSON object is bad input
    array = tmp_path / "array.json"
    array.write_text(json.dumps([cfg]))
    with pytest.raises(ValueError, match="JSON object"):
        load_problem_config(str(array))


def test_config_overrides_horizon_drops_exact():
    out = load_problem_config({"alpha": 0.5, "forcing": "N1", "T": 2.0})
    assert out["spec"].horizon == 2.0
    assert out["spec"].exact is None  # stated solution only covers (0, 0.5]


def test_verify_forcing_requires_polynomial_exact():
    spec = linear_model(0.5, -1.0, 0.0, (1.0,), 1.0)
    with pytest.raises(ValueError):
        verify_forcing(spec)
