"""Tests for the element assembler, the march, and the energy identity."""

import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fodelab import fraccalc, ldgsolver
from fodelab.fraccalc import history_contribution
from fodelab.ldgsolver import (
    EnergyReport,
    SolveOptions,
    SolverError,
    _element_parts,
    _linearize,
    _prepass,
    downwind_errors,
    energy_diagnostic,
    l2_error,
    march,
    newton_solve,
)
from fodelab.polybasis import MAX_DEGREE, project
from fodelab.problem import (
    Mesh,
    PiecewisePoly,
    ProblemSpec,
    build_mesh,
    builtin_problem,
    linear_model,
)


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(k=9)
    with pytest.raises(ValueError):
        SolveOptions(k=2.5)
    with pytest.raises(ValueError, match="degree k"):
        SolveOptions(k=True)


def _poly_problem_alpha1() -> ProblemSpec:
    # x(t) = t^2 + t + 1 solves x' = f with f = -x + (2t + 1) + (t^2 + t + 1)
    def f(x, t):
        t = np.asarray(t, dtype=float)
        return -x + (2.0 * t + 1.0) + (t * t + t + 1.0)

    def df(x, t):
        return -np.ones_like(np.asarray(t, dtype=float))

    return ProblemSpec(
        name="poly-alpha1", alpha=1.0, f=f, df_dx=df, initial=(1.0,),
        horizon=1.0, linear=True, exact=lambda t: t * t + t + 1.0,
    )


def _poly_problem_alpha2() -> ProblemSpec:
    # x(t) = t^2 + t/2 + 1 solves x'' = f with f = -x + 2 + (t^2 + t/2 + 1)
    def f(x, t):
        t = np.asarray(t, dtype=float)
        return -x + 2.0 + (t * t + 0.5 * t + 1.0)

    def df(x, t):
        return -np.ones_like(np.asarray(t, dtype=float))

    return ProblemSpec(
        name="poly-alpha2", alpha=2.0, f=f, df_dx=df, initial=(1.0, 0.5),
        horizon=1.0, linear=True, exact=lambda t: t * t + 0.5 * t + 1.0,
    )


def test_integer_order_march_reproduces_polynomials():
    # with beta = 0 the scheme is classic upwind DG and solves problems with
    # element-wise representable solutions to roundoff
    for spec in (_poly_problem_alpha1(), _poly_problem_alpha2()):
        mesh = build_mesh(5, spec.horizon)
        sol = march(spec, mesh, SolveOptions(k=2))
        assert np.max(downwind_errors(sol, spec.exact)) < 1e-11
        assert l2_error(sol, spec.exact) < 1e-11


def test_march_degree_zero_runs():
    spec = builtin_problem("L1", 0.5)
    sol = march(spec, build_mesh(16, spec.horizon), SolveOptions(k=0))
    assert np.all(np.isfinite(sol.coeffs))
    assert np.max(downwind_errors(sol, spec.exact)) < 0.3


def _projected_fields(spec, mesh, k):
    """Element-wise L2 projection of the exact solution and its derivative."""
    derivative = {
        "L1": lambda t: 5.0 * t**4,
    }[spec.name]
    fields = np.zeros((mesh.n, 2, k + 1))
    for j in range(mesh.n):
        fields[j, 0] = project(spec.exact, mesh.interval(j), k)
        fields[j, 1] = project(derivative, mesh.interval(j), k)
    return fields


def _element_residuals(spec, mesh, k, fields, inflow_of):
    """Row-equilibrated residual of every element's assembled system at the
    given fields, with the history summed pair by pair from field p."""
    p, kp1 = math.ceil(spec.alpha), k + 1
    # marked nonlinear, the pre-pass keeps each element's base and quadrature
    nonlinear = replace(spec, linear=False)
    base, quad, _, _ = _prepass(nonlinear, mesh.nodes[:-1], np.diff(mesh.nodes), k, _element_parts(spec, k))
    residuals = []
    for j in range(mesh.n):
        history = np.zeros(kp1)
        for i in range(j):
            history = history + history_contribution(
                spec.frac_order, fields[i, p], mesh.interval(i), mesh.interval(j)
            )
        rhs = np.concatenate([np.outer(-inflow_of(j), (-1.0) ** np.arange(kp1)).ravel(), -history])
        jac, res = _linearize(spec, base[j], quad[j], rhs)(fields[j].ravel())
        residuals.append(ldgsolver._equilibrate(jac, res)[1])
    return np.array(residuals)


def test_assembled_residual_consistency():
    # plugging the projected exact solution into the assembled local systems
    # must give residuals that shrink with the mesh; an assembly bug (sign,
    # scale, history) shows up as an O(1) or growing residual
    spec = builtin_problem("L1", 0.5)
    k = 2
    worst = {}
    for n in (4, 8):
        mesh = build_mesh(n, spec.horizon)
        fields = _projected_fields(spec, mesh, k)
        inflow = lambda j: np.array([spec.exact(mesh.nodes[j])])
        worst[n] = np.max(np.abs(_element_residuals(spec, mesh, k, fields, inflow)))
    assert worst[8] < worst[4]
    assert worst[4] / worst[8] > 2.0 ** k
    # the march's own solution, from the stacked inverses or from Newton,
    # satisfies every assembled system to roundoff
    for name, alpha in (("L1", 0.5), ("L1Prime", 0.4), ("N4", 1.3)):
        spec = builtin_problem(name, alpha)
        mesh = build_mesh(12, spec.horizon, grading=2.0)
        sol = march(spec, mesh, SolveOptions(k=k))
        nfields = sol.coeffs.shape[1]
        down = sol.coeffs.sum(axis=2)
        inflow = lambda j: np.array(spec.initial) if j == 0 else down[j - 1, : nfields - 1]
        assert np.max(np.abs(_element_residuals(spec, mesh, k, sol.coeffs, inflow))) < 1e-12


def test_newton_half_step_rescues_an_overshoot():
    # Newton on arctan(y) = 0 diverges from y = 2: the full step lands at
    # y = 2 - 5 atan(2) = -3.54, where the residual is larger, and only the
    # half step at -0.77 enters the region of convergence
    tried = []

    def linearize(y):
        tried.append(float(y[0]))
        return np.array([[1.0 / (1.0 + y[0] ** 2)]]), np.arctan(y)

    y, iters = newton_solve(linearize, np.array([2.0]))
    assert abs(y[0]) <= 1e-12
    full, half = 2.0 - 5.0 * math.atan(2.0), 2.0 - 2.5 * math.atan(2.0)
    assert tried[1:3] == [pytest.approx(full), pytest.approx(half)]
    assert len(tried) == 1 + iters + 1  # the guess, one per accepted step, one half step


def test_newton_raises_on_non_finite_iterate():
    # the residual is finite at the guess only, so the second step is NaN
    def linearize(y):
        return np.eye(1), np.array([1.0 if y[0] == 0.0 else math.nan])

    with pytest.raises(SolverError, match="non-finite"):
        newton_solve(linearize, np.zeros(1))


def test_l1_error_decay():
    spec = builtin_problem("L1", 0.5)
    options = SolveOptions(k=1)
    errs_dw = {}
    errs_l2 = {}
    for n in (16, 32):
        sol = march(spec, build_mesh(n, spec.horizon), options)
        errs_dw[n] = float(np.max(downwind_errors(sol, spec.exact)))
        errs_l2[n] = l2_error(sol, spec.exact)
    # downwind superconvergence k+1+min(k, alpha) = 2.5, L2 rate k+1 = 2
    assert math.log2(errs_dw[16] / errs_dw[32]) == pytest.approx(2.5, abs=0.4)
    assert math.log2(errs_l2[16] / errs_l2[32]) == pytest.approx(2.0, abs=0.35)


def test_nonlinear_march_newton_behaviour():
    spec = builtin_problem("N1", 0.5)
    sol = march(spec, build_mesh(16, spec.horizon), SolveOptions(k=2))
    assert sol.info["newton_max_iters"] <= 8
    assert sol.info["newton_total_iters"] >= sol.info["elements"]
    assert np.max(downwind_errors(sol, spec.exact)) < 1e-4


def test_multi_term_high_order_field_layout():
    # N5 has m = 3 > ceil(alpha) = 2: four fields, damping on the top one
    spec = builtin_problem("N5", 1.5)
    options = SolveOptions(k=2)
    errs = {}
    for n in (8, 16):
        sol = march(spec, build_mesh(n, spec.horizon), options)
        assert sol.coeffs.shape == (n, 4, 3)
        errs[n] = l2_error(sol, spec.exact)
    assert errs[8] / errs[16] > 2.0 ** 2.5


def test_multi_term_damping_on_intermediate_field():
    # N4 has m = 1 < ceil(alpha) = 2: damping couples an interior field
    spec = builtin_problem("N4", 1.3)
    options = SolveOptions(k=2)
    errs = {}
    for n in (8, 16):
        sol = march(spec, build_mesh(n, spec.horizon), options)
        assert sol.coeffs.shape == (n, 3, 3)
        errs[n] = float(np.max(downwind_errors(sol, spec.exact)))
    assert errs[8] / errs[16] > 2.0 ** 2.8


def test_march_rejects_mesh_beyond_horizon():
    spec = builtin_problem("L1", 0.5)
    with pytest.raises(ValueError):
        march(spec, build_mesh(8, 2.0), SolveOptions(k=1))


def test_newton_stall_raises_solver_error(monkeypatch):
    spec = builtin_problem("N1", 0.5)
    monkeypatch.setattr(ldgsolver, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(SolverError):
        march(spec, build_mesh(8, spec.horizon), SolveOptions(k=2))


def test_differenced_jacobian_matches_analytic_march():
    # without df_dx, Newton differences f; it still converges to the same
    # element solutions, so only the iteration path may differ
    spec = builtin_problem("N1", 0.5)
    mesh = build_mesh(16, spec.horizon)
    analytic = march(spec, mesh, SolveOptions(k=2))
    differenced = march(replace(spec, df_dx=None), mesh, SolveOptions(k=2))
    assert np.max(np.abs(differenced.coeffs - analytic.coeffs)) < 1e-12


def test_stacked_inverse_matches_newton_path():
    # a linear spec is solved with the pre-pass's inverse Jacobians; marked
    # nonlinear, the same problem goes through Newton and np.linalg.solve;
    # k = 8 is the largest degree, where the element systems are largest
    for name, alpha in (("L1", 0.5), ("L2", 1.5)):
        spec = builtin_problem(name, alpha)
        for grading in (1.0, 2.0):
            mesh = build_mesh(40, spec.horizon, grading=grading)
            for k in (1, 3, MAX_DEGREE):
                stacked = march(spec, mesh, SolveOptions(k=k)).coeffs[:, 0]
                newton = march(replace(spec, linear=False), mesh, SolveOptions(k=k)).coeffs[:, 0]
                assert np.max(np.abs(newton - stacked)) <= 1e-12 * np.max(np.abs(stacked))


def test_prepass_chunks_do_not_change_the_march(monkeypatch):
    # chunk boundaries fall inside every quadrature class of a graded mesh
    cases = [(builtin_problem(name, alpha), SolveOptions(k=2)) for name, alpha in
             (("L1Prime", 0.5), ("N4", 1.3), ("L2", 1.5))]
    meshes = [build_mesh(40, spec.horizon, grading=2.0) for spec, _ in cases]
    whole = [march(spec, mesh, options) for (spec, options), mesh in zip(cases, meshes)]
    monkeypatch.setattr(ldgsolver, "_PREPASS_CHUNK", 7)
    for ((spec, options), mesh, ref) in zip(cases, meshes, whole):
        sol = march(spec, mesh, options)
        assert np.max(np.abs(sol.coeffs - ref.coeffs)) <= 1e-14 * np.max(np.abs(ref.coeffs))
        assert sol.info["newton_total_iters"] == ref.info["newton_total_iters"]


def test_memory_form_is_the_fractional_pairing():
    # info["memory_form"] sums the march's own history moments into the
    # pairing of field p = ceil(alpha) with itself
    l1 = builtin_problem("L1", 0.4)
    cases = [(l1, build_mesh(48, l1.horizon)), (l1, build_mesh(48, l1.horizon, grading=2.0)),
             (l1, _random_mesh(48, l1.horizon, 5)),
             (builtin_problem("N4", 1.3), build_mesh(24, 1.0, grading=2.0)),
             (builtin_problem("L1", 1.0), build_mesh(16, 1.0)),  # beta = 0: sum_j h_j c.M.c
             (_poly_problem_alpha2(), build_mesh(5, 1.0))]
    for spec, mesh in cases:
        sol = march(spec, mesh, SolveOptions(k=2))
        c = sol.coeffs[:, math.ceil(spec.alpha)]
        reference = fraccalc.frac_pairing(spec.frac_order, mesh.nodes, c, c)
        assert sol.info["memory_form"] == pytest.approx(reference, rel=1e-13, abs=0.0)


def test_import_leaves_scipy_linalg_out():
    # the element inverses use numpy alone: scipy.linalg would add 40-60 ms
    # to every process that imports fodelab
    src = str(Path(ldgsolver.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import fodelab; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_error_helpers_reject_non_finite_exact_values():
    spec = builtin_problem("L1", 0.5)
    sol = march(spec, build_mesh(8, spec.horizon), SolveOptions(k=1))
    for bad in (math.nan, math.inf):
        def exact(t, bad=bad):
            return np.where(t > 0.6, bad, spec.exact(t))

        for helper in (l2_error, downwind_errors):
            with pytest.raises(ValueError, match="not finite at t = 0.6"):
                helper(sol, exact)


def test_l2_error_evaluates_exact_once():
    # one call on every element's k+5 quadrature times, as a flat array
    shapes = []

    def exact(t):
        shapes.append(np.shape(t))
        return t * t

    mesh = build_mesh(6, 1.5)
    coeffs = np.array([project(lambda t: t * t, mesh.interval(j), 2) for j in range(mesh.n)])
    assert l2_error(PiecewisePoly(mesh, 2, coeffs), exact) < 1e-13
    assert shapes == [(6 * 7,)]


def test_error_helpers_on_projected_data():
    mesh = build_mesh(6, 1.5)
    coeffs = np.array([project(lambda t: t * t, mesh.interval(j), 3) for j in range(mesh.n)])
    sol = PiecewisePoly(mesh, 3, coeffs)
    assert np.max(downwind_errors(sol, lambda t: t * t)) < 1e-13
    assert l2_error(sol, lambda t: t * t) < 1e-13
    shifted = downwind_errors(sol, lambda t: t * t + 0.25)
    np.testing.assert_allclose(shifted, 0.25, rtol=1e-12)
    assert l2_error(sol, lambda t: t * t + 0.25) == pytest.approx(
        0.25 * math.sqrt(1.5), rel=1e-12
    )


def _count_history_pairs(monkeypatch) -> dict:
    """Counts history_contribution calls and far_history_sum sources from now on."""
    pairs = {"near": 0, "far": 0}
    near, far = fraccalc.history_contribution, fraccalc.far_history_sum

    def count_near(*args, **kwargs):
        pairs["near"] += 1
        return near(*args, **kwargs)

    def count_far(beta, target, sources, coeffs):
        pairs["far"] += len(coeffs)
        return far(beta, target, sources, coeffs)

    monkeypatch.setattr(fraccalc, "history_contribution", count_near)
    monkeypatch.setattr(fraccalc, "far_history_sum", count_far)
    return pairs


def _random_mesh(n: int, horizon: float, seed: int) -> Mesh:
    """Widths drawn log-uniform in [0.01, 1], scaled to the horizon."""
    widths = np.exp(np.random.default_rng(seed).uniform(math.log(0.01), 0.0, n))
    return Mesh(np.concatenate([[0.0], np.cumsum(widths)]) * (horizon / widths.sum()))


def _non_prefix_targets(nodes: np.ndarray) -> int:
    """Elements whose far sources are not a prefix of the elements before them."""
    h = np.diff(nodes)
    centers = 0.5 * (nodes[:-1] + nodes[1:])
    count = 0
    for j in range(h.size):
        far = (h[:j] + h[j]) / (2.0 * (centers[j] - centers[:j])) <= fraccalc.NEAR_FIELD_THRESHOLD
        count += not far[: np.count_nonzero(far)].all()
    return count


def test_march_accounts_for_every_history_pair(monkeypatch):
    # the bench's trace check: under one march, the history_contribution
    # calls plus the sources of the far_history_sum calls cover each of the
    # n(n-1)/2 (source, target) element pairs once, on any mesh, including
    # one whose far sources are not always a prefix; frac_pairing too
    pairs = _count_history_pairs(monkeypatch)
    spec = builtin_problem("L1", 0.5)
    n = 64
    random = _random_mesh(n, spec.horizon, 7)
    assert _non_prefix_targets(random.nodes) > 0
    for mesh in (build_mesh(n, spec.horizon), build_mesh(n, spec.horizon, grading=2.0), random):
        pairs.update(near=0, far=0)
        march(spec, mesh, SolveOptions(k=2))
        assert pairs["near"] > 0 and pairs["far"] > 0
        assert pairs["near"] + pairs["far"] == n * (n - 1) // 2
    pairs.update(near=0, far=0)
    u = np.random.default_rng(3).standard_normal((n, 3))
    fraccalc.frac_pairing(0.5, random.nodes, u, u)
    assert pairs["near"] > 0 and pairs["far"] > 0
    assert pairs["near"] + pairs["far"] == n * (n - 1) // 2


def test_march_info_reports_history_pairs(monkeypatch):
    # info counts the same pairs as the calls the bench's tracer sees
    pairs = _count_history_pairs(monkeypatch)
    n = 48
    for name, alpha in (("N1", 0.4), ("N4", 1.6)):
        spec = builtin_problem(name, alpha)
        for mesh in (build_mesh(n, spec.horizon, grading=2.0), _random_mesh(n, spec.horizon, 11)):
            pairs.update(near=0, far=0)
            info = march(spec, mesh, SolveOptions(k=1)).info
            assert info["history_pairs_near"] == pairs["near"] > 0
            assert info["history_pairs_far"] == pairs["far"] > 0
            assert info["history_pairs_near"] + info["history_pairs_far"] == n * (n - 1) // 2
    # integer order: no memory, no pairs
    info = march(_poly_problem_alpha1(), build_mesh(5, 1.0), SolveOptions(k=2)).info
    assert info["history_pairs_near"] == info["history_pairs_far"] == 0


def test_energy_identity_is_exact():
    spec = linear_model(0.6, -1.0, 0.0, (1.0,), 2.0)
    for mesh in (build_mesh(12, 2.0), build_mesh(10, 2.0, grading=2.0)):
        report = energy_diagnostic(spec, mesh, SolveOptions(k=2))
        assert isinstance(report, EnergyReport)
        assert report.identity_residual < 1e-13
        assert report.identity_residual <= 1e-14 * report.initial_sq
        assert report.q_form >= 0.0
        assert report.dissipative
        assert report.final_sq < report.initial_sq


def test_energy_identity_integer_order():
    spec = linear_model(1.0, -1.5, 0.0, (1.0,), 1.0)
    report = energy_diagnostic(spec, build_mesh(9, 1.0), SolveOptions(k=1))
    assert report.identity_residual < 1e-13
    assert report.identity_residual <= 1e-14 * report.initial_sq
    assert report.dissipative


def test_energy_identity_on_fine_graded_mesh():
    spec = builtin_problem("L1", 0.601)
    mesh = build_mesh(128, spec.horizon, grading=2.0)
    for k in (1, 2):
        report = energy_diagnostic(spec, mesh, SolveOptions(k=k))
        assert report.identity_residual <= 1e-14 * report.initial_sq
        assert report.dissipative


def test_energy_diagnostic_marches_once(monkeypatch):
    specs = []

    def counting_march(spec, mesh, options=None):
        specs.append(spec)
        return march(spec, mesh, options)

    monkeypatch.setattr(ldgsolver, "march", counting_march)
    energy_diagnostic(builtin_problem("L1", 0.5), build_mesh(8, 1.0), SolveOptions(k=2))
    assert len(specs) == 1
    # the homogeneous problem: f = A x, starting from the perturbation
    assert specs[0].f(np.array([3.0]), np.array([0.5]))[0] == -6.0
    assert specs[0].initial == (ldgsolver._ENERGY_PERTURBATION,)


def test_energy_diagnostic_requires_linear_scalar_problem():
    with pytest.raises(ValueError):
        energy_diagnostic(builtin_problem("N1", 0.5), build_mesh(4, 0.5))
    with pytest.raises(ValueError):
        energy_diagnostic(linear_model(1.5, -1.0, 0.0, (1.0, 0.0), 1.0), build_mesh(4, 1.0))


def test_energy_diagnostic_rejects_time_varying_coefficient():
    spec = ProblemSpec(
        name="varying", alpha=0.5, f=lambda x, t: -(1.0 + 3.0 * t) * x,
        df_dx=lambda x, t: -(1.0 + 3.0 * np.asarray(t, dtype=float)),
        initial=(1.0,), horizon=1.0, linear=True,
    )
    with pytest.raises(ValueError, match="constant in time"):
        energy_diagnostic(spec, build_mesh(32, 1.0), SolveOptions(k=2))

