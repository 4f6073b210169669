"""The input contract of the public surface, checked by properties.

Every public scalar real goes through one checker.  A value in its range
gives finite results (or an honest ValueError, SolverError or OracleError);
anything else (NaN, infinities, out-of-range or huge values, bools, strings,
None, containers) raises ValueError naming the argument, and the CLI exits 2.
No call raises another exception type or emits a warning.
"""
import io
import json
import math
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fodelab import fraccalc as fc
from fodelab.cli import EXIT_BAD_INPUT, EXIT_OK, EXIT_SOLVER, main, run_convergence_study
from fodelab.fraccalc import OracleError
from fodelab.ldgsolver import SolveOptions, SolverError, march
from fodelab.mittag import MlfQuery, mlf_series, mlf_solve
from fodelab.polybasis import gauss_jacobi
from fodelab.problem import build_mesh, builtin_problem, linear_model, load_problem_config

CONTRACT = settings(derandomize=True, max_examples=15, deadline=None, database=None)
INF = math.inf

# anything a caller might pass for a real: every float (NaN, +-inf, huge,
# subnormal), numpy and Python numbers, and things that are no number at all
VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, INF, -INF, 1e308, -1e308, 10**400, 0, 1, -1, 0.5, 1.5, 2.0]),
    st.floats(-3.0, 3.0).map(np.float64),
    st.integers(-3, 3).map(np.int64),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.floats(0.1, 1.0), max_size=2),
)
# tried on every scalar whatever the draws
EDGES = (math.nan, INF, -INF, 1.7976931348623157e308, -1e308, 5e-324, 10**400, True, "0.5", None, [0.5], 0, 1)
# what a JSON config can hold in place of a real
CONFIG_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 3), st.booleans(),
    st.text(max_size=3), st.none(), st.lists(st.floats(0.1, 1.0), max_size=2),
)
# what a command line can hold in place of a real
FLAG_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1", "0", "", "abc", "True", "0x10"]),
)


def _in_range(value, low, high, ends="()"):
    """Reference for the checker: is ``value`` a finite real in the interval?"""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return False
    x = float(value)
    return (math.isfinite(x) and (low < x or (ends[0] == "[" and x == low))
            and (x < high or (ends[1] == "]" and x == high)))


def _finite(result) -> bool:
    if isinstance(result, tuple):
        return all(map(_finite, result))
    return bool(np.all(np.isfinite(np.asarray(result, dtype=float))))


def _holds(call, valid: bool, name: str):
    """call() keeps the contract: a finite result or an allowed error when the
    input is valid, a ValueError naming ``name`` when it is not; never another
    exception and never a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call()
        except ValueError as exc:
            assert valid or name in str(exc), f"{exc} does not name {name}"
            return
        except (SolverError, OracleError):
            assert valid
            return
    assert valid, f"{name}: accepted an invalid value"
    assert _finite(result)


_SOLUTION = march(builtin_problem("L1", 0.5), build_mesh(6, 1.0, 2.0), SolveOptions(k=2))
_SPEC = builtin_problem("L1", 0.5)

# (argument named in the error, its range (low, high, ends), call with the value)
SCALARS = {
    "gauss_jacobi.a": ("Jacobi exponent a", (-1.0, 500.0, "(]"), lambda v: gauss_jacobi(3, v, 0.0).weights),
    "gauss_jacobi.b": ("Jacobi exponent b", (-1.0, 500.0, "(]"), lambda v: gauss_jacobi(3, 0.0, v).weights),
    "caputo_power.alpha": ("alpha", (0.0, INF, "[)"), lambda v: fc.caputo_power(v, 2)),
    "caputo_power.j": ("j", (0.0, 2.0**53, "[]"), lambda v: fc.caputo_power(0.5, v)),
    "frac_int_power_coeff.beta": ("beta", (0.0, INF, "[)"), lambda v: fc.frac_int_power_coeff(v, 2)),
    "local_frac_matrix.beta": ("beta", (0.0, 1.5, "(]"), lambda v: fc.local_frac_matrix(v, 2)),
    "frac_integral_eval.beta": ("beta", (0.0, 1.5, "(]"), lambda v: fc.frac_integral_eval(v, _SOLUTION, 0.3)),
    "rl_derivative_eval.mu": ("mu", (0.0, 1.0, "[)"), lambda v: fc.rl_derivative_eval(v, _SOLUTION, 0.3)),
    # the same-element block is cheap and checks tol as the disjoint one does (see PROBES)
    "oracle_frac_block.tol": ("tol", (0.0, 1.0, "(]"),
                              lambda v: fc.oracle_frac_block(0.5, 1, (0.0, 1.0), (0.0, 1.0), tol=v)),
    "build_mesh.horizon": ("horizon", (0.0, INF, "()"), lambda v: build_mesh(4, v).nodes),
    "build_mesh.grading": ("grading", (1.0, INF, "[)"), lambda v: build_mesh(4, 1.0, v).nodes),
    "linear_model.alpha": ("alpha", (0.0, 2.0, "(]"),
                           lambda v: linear_model(v, -1.0, 0.0, (1.0, 0.0), 1.0).alpha),
    "linear_model.a": ("a", (-INF, INF, "()"), lambda v: linear_model(0.5, v, 0.0, (1.0,), 1.0).initial),
    "linear_model.b": ("b", (-INF, INF, "()"), lambda v: linear_model(0.5, -1.0, v, (1.0,), 1.0).initial),
    "linear_model.initial": ("initial[0]", (-INF, INF, "()"),
                             lambda v: linear_model(0.5, -1.0, 0.0, [v], 1.0).initial),
    "linear_model.horizon": ("horizon", (0.0, INF, "()"),
                             lambda v: linear_model(0.5, -1.0, 0.0, (1.0,), v).horizon),
    "builtin_problem.alpha": ("alpha", (0.0, 1.0, "(]"), lambda v: builtin_problem("N1", v).alpha),
    "MlfQuery.alpha": ("alpha", (0.0, INF, "()"), lambda v: MlfQuery(alpha=v, beta=1.0).alpha),
    "MlfQuery.beta": ("beta", (0.0, INF, "()"), lambda v: MlfQuery(alpha=0.5, beta=v).beta),
    "MlfQuery.a_coef": ("a_coef", (-INF, INF, "()"), lambda v: MlfQuery(alpha=0.5, beta=1.0, a_coef=v).a_coef),
    "MlfQuery.t_max": ("t_max", (0.0, INF, "()"), lambda v: MlfQuery(alpha=0.5, beta=1.0, t_max=v).t_max),
    "mlf_series.alpha": ("alpha", (0.0, INF, "()"), lambda v: mlf_series(v, 1.0, -1.0)),
    "mlf_series.beta": ("beta", (0.0, INF, "()"), lambda v: mlf_series(0.5, v, -1.0)),
    "mlf_series.z": ("z", (-INF, INF, "()"), lambda v: mlf_series(0.8, 1.0, v)),
    "mlf_series.tol": ("tol", (0.0, INF, "()"), lambda v: mlf_series(0.8, 1.0, -1.0, tol=v)),
    "run_convergence_study.rate_tol": ("rate_tol", (0.0, INF, "[)"),
                                       lambda v: run_convergence_study(_SPEC, 1, [2, 4], rate_tol=v).rate_l2_ls),
}


def _with_edges(test):
    """Run ``test`` also on each edge value, whatever the draws."""
    for value in EDGES:
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("target", sorted(SCALARS))
@CONTRACT
@given(value=VALUES)
@_with_edges
def test_scalar_reals_keep_the_contract(target, value):
    name, (low, high, ends), call = SCALARS[target]
    valid = _in_range(value, low, high, ends) and (not target.endswith(".j") or isinstance(value, (int, np.integer)))
    _holds(lambda: call(value), valid, name)


@CONTRACT
@given(value=VALUES)
def test_mlf_solve_caps_alpha(value):
    if _in_range(value, 0.0, INF):  # a valid query; the solver path takes alpha <= 2
        query = MlfQuery(alpha=value, beta=1.0, n=4, k=1, sample_count=5)
        _holds(lambda: mlf_solve(query), _in_range(value, 0.0, 2.0, "(]"), "alpha")


@CONTRACT
@given(value=st.floats(allow_nan=True, allow_infinity=True))
def test_history_widths_are_checked(value):
    coeffs = np.array([1.0, 0.5])
    _holds(lambda: fc.far_history_sum(0.5, (4.0, 4.0 + value), [(0.0, 1.0)], coeffs[None]),
           _in_range(value, 0.0, INF), "width")
    _holds(lambda: fc.history_contribution(0.5, coeffs, (1.0 - value, 1.0), (3.0, 4.0)),
           _in_range(value, 0.0, INF), "width")


# what each config key of an L1 problem accepts
CONFIG_VALID = {
    "alpha": lambda v: _in_range(v, 0.0, 1.0, "(]"),
    "T": lambda v: _in_range(v, 0.0, INF),
    "initial": lambda v: isinstance(v, list) and len(v) == 1 and _in_range(v[0], -INF, INF),
    "n": lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1,
    "k": lambda v: isinstance(v, int) and not isinstance(v, bool) and 0 <= v <= 8,
}


@CONTRACT
@given(key=st.sampled_from(sorted(CONFIG_VALID)), value=CONFIG_VALUES)
def test_config_values_keep_the_contract(key, value):
    cfg = {"alpha": 0.5, "forcing": "L1", key: value}
    _holds(lambda: load_problem_config(cfg)["spec"].initial, CONFIG_VALID[key](value), key)


def _run(argv) -> tuple[int, str]:
    """main(argv) under warnings-as-errors: (exit code, what it wrote to stderr)."""
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(io.StringIO()), redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses what its type cannot parse
            code = exc.code
    return code, err.getvalue()


def _flag_valid(text: str, low: float, high: float, ends: str) -> bool:
    try:
        return _in_range(float(text), low, high, ends)
    except ValueError:
        return False


# (argv before the value, the range the value must lie in), each small enough to run quickly
FLAGS = {
    "solve --alpha": (["solve", "--problem", "N1", "--n", "2", "--k", "1", "--alpha"], (0.0, 1.0, "(]")),
    "solve --T": (["solve", "--problem", "L1", "--alpha", "0.5", "--n", "2", "--k", "1", "--T"],
                  (0.0, INF, "()")),
    "converge --rate-tol": (["converge", "--problem", "L1", "--alphas", "0.5", "--ks", "1", "--ns", "2,4",
                             "--rate-tol"], (0.0, INF, "[)")),
    "mlf --alpha": (["mlf", "--n", "4", "--k", "1", "--samples", "3", "--alpha"], (0.0, 2.0, "(]")),
    "mlf --beta": (["mlf", "--alpha", "0.5", "--n", "4", "--k", "1", "--samples", "3", "--beta"],
                   (0.0, 2.5, "(]")),
    "mlf --A": (["mlf", "--alpha", "0.5", "--n", "4", "--k", "1", "--samples", "3", "--A"], (-INF, INF, "()")),
    "mlf --tmax": (["mlf", "--alpha", "0.5", "--n", "4", "--k", "1", "--samples", "3", "--tmax"],
                   (0.0, INF, "()")),
}


@pytest.mark.parametrize("flag", sorted(FLAGS))
@CONTRACT
@given(text=FLAG_VALUES)
def test_cli_flags_exit_two_on_bad_values(flag, text, tmp_path_factory):
    argv, (low, high, ends) = FLAGS[flag]
    out = tmp_path_factory.mktemp("out")
    # one token, so argparse cannot read a value such as -1e300 as an option
    argv = argv[:-1] + [f"{argv[-1]}={text}"] + (["--out-dir", str(out)] if flag.startswith("converge") else [])
    code, _ = _run(argv)
    if _flag_valid(text, low, high, ends):
        assert code in (EXIT_OK, EXIT_SOLVER), (argv, code)
    else:
        assert code == EXIT_BAD_INPUT, (argv, code)


@CONTRACT
@given(key=st.sampled_from(sorted(CONFIG_VALID)), value=CONFIG_VALUES)
def test_cli_config_values_exit_two(key, value, tmp_path_factory):
    cfg = {"alpha": 0.5, "forcing": "L1", "n": 2, "k": 1, key: value}
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, err = _run(["solve", "--config", str(path)])
    if CONFIG_VALID[key](value):
        assert code in (EXIT_OK, EXIT_SOLVER), (cfg, code, err)
    else:
        assert code == EXIT_BAD_INPUT and err.startswith("error:") and key in err, (cfg, code, err)


# inputs that were accepted, misread or failed under the wrong exception
PROBES = [
    ("horizon", lambda: build_mesh(4, "1")),
    ("a", lambda: linear_model(0.5, "1", 0, (1,), 1)),
    ("alpha", lambda: MlfQuery(alpha="0.5", beta=1)),
    ("beta", lambda: fc.local_frac_matrix("0.5", 1)),
    ("beta", lambda: fc.frac_int_power_coeff(INF, 2)),
    ("j", lambda: fc.caputo_power(0.5, 1.5)),
    ("alpha", lambda: mlf_series(INF, 1, -1)),
    ("tol", lambda: fc.oracle_frac_block(0.5, 1, (0.0, 1.0), (2.0, 3.0), tol=math.nan)),
    ("rate_tol", lambda: run_convergence_study(_SPEC, 1, [2, 4], rate_tol=math.nan)),
    ("rate_tol", lambda: run_convergence_study(_SPEC, 1, [2, 4], rate_tol=-1)),
    ("T", lambda: load_problem_config({"alpha": 0.5, "forcing": "L1", "T": None})),
    ("alpha", lambda: load_problem_config({"alpha": [0.5], "forcing": "L1"})),
    ("alpha", lambda: load_problem_config({"alpha": "0.5", "forcing": "L1"})),
    ("initial", lambda: load_problem_config({"alpha": 0.5, "forcing": "L1", "initial": "2"})),
]


@pytest.mark.parametrize("name, call", PROBES, ids=[f"{i}-{p[0]}" for i, p in enumerate(PROBES)])
def test_probe_raises_value_error_naming_the_argument(name, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=name):
            call()


@pytest.mark.parametrize("key, value", [("T", None), ("alpha", [0.5]), ("alpha", "0.5"), ("initial", "2")])
def test_cli_config_probe_exits_two(key, value, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha": 0.5, "forcing": "L1", key: value}))
    assert main(["solve", "--config", str(path)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err, err


def test_cli_rate_tol_probe_exits_two(tmp_path, capsys):
    for text in ("nan", "-1"):
        argv = ["converge", "--problem", "L1", "--alphas", "0.5", "--ks", "1", "--ns", "2,4",
                "--out-dir", str(tmp_path), "--rate-tol", text]
        assert main(argv) == EXIT_BAD_INPUT
        assert "rate_tol" in capsys.readouterr().err
