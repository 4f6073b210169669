"""Seeded workloads of the benchmark, their warm-ups and their output checks.

A workload is a fixed list of operations that run back to back with one
caller (a closed loop).  The seed draws every problem's non-integer order
inside its stated range and picks the Mittag-Leffler order grid; fodelab
only ever sees the generated inputs.

Every operation's result is checked against a reference that does not come
from the code under test: the builtins' exact solutions are written out
below, Mittag-Leffler tables are compared with the independent series
path, and the energy report must satisfy its own discrete identity.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

import fodelab
from fodelab import cli

# Exact solutions of the builtins, restated here so the checks do not lean
# on the program's own ``spec.exact``.
_ONE_T5 = lambda t: 1.0 + t**5  # noqa: E731
_ONE_T_T5 = lambda t: 1.0 + t + t**5  # noqa: E731
EXACT = {
    "L1": _ONE_T5,
    "N1": _ONE_T5,
    "L1Prime": _ONE_T5,
    "N4": _ONE_T_T5,
    "L2": _ONE_T_T5,
    "N5": lambda t: 1.0 + t + 0.5 * t**2 + t**5,
}

# Draw ranges inside each builtin's stated order range.  They stay clear of
# the integer orders, where the memory term vanishes and the march takes a
# different, much cheaper path.
ALPHA_RANGE = {
    "L1": (0.1, 0.9),
    "N1": (0.1, 0.9),
    "L1Prime": (0.1, 0.9),
    "N4": (1.1, 1.9),
    "N5": (1.1, 1.9),
    "L2": (1.1, 1.9),
}

MARCH_PROBLEMS = ("L1", "N1", "N4")
MARCH_NS = (256, 1024)
MARCH_K = 2
# Largest max downwind error accepted at n=256 (k=2); it scales as n^-(k+1).
# Measured worst over the draw ranges: 2e-8.
MARCH_TOL_256 = 1e-6

STUDY_NS = (8, 16, 32, 64)
STUDY_KS = (1, 2, 3)
# L1Prime at alpha=0.3 always runs: its downwind target is wrong in
# cli.expected_rates, so it raises a known spurious flag at k=2 and k=3
# that must stay visible.  Flags are reported, never counted as failures.
STUDY_FIXED = (("L1Prime", 0.3),)
# err * n^(k+1) bounds; measured worst over the draw ranges: 0.54 (L2) and
# 1.47 (downwind max).
STUDY_L2_CONST = 2.0
STUDY_DW_CONST = 5.0
STUDY_RATE_TOL = 0.3

MLF_ALPHA_BANDS = ((0.2, 0.4), (0.5, 0.7), (0.8, 0.95), (1.3, 1.7))
MLF_BETAS = (0.5, 1.0, 1.5)
MLF_QUERY = dict(a_coef=-1.0, t_max=2.0, sample_count=101, n=128, k=3)
# Solver against certified series; measured worst: 8e-8.
MLF_TOL = 1e-6
MLF_SERIES_TOL = 1e-9

ENERGY_N = 128
ENERGY_GRADING = 2.0
ENERGY_KS = (1, 2)
# identity_residual relative to the initial energy; measured worst: 1.3e-13.
ENERGY_RESIDUAL_TOL = 1e-11


@dataclass
class Op:
    """One timed operation and how to judge its result.

    ``check`` returns a list of problems (empty when the result is right);
    ``perturb`` returns deliberately wrong copies of a right result, each of
    which ``check`` must reject; ``fingerprint`` identifies a result so a
    repeat that reproduces an already checked one is not checked again.
    """

    name: str
    part: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    perturb: Callable[[Any], list]
    fingerprint: Callable[[Any], Any]
    tags: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    inputs: dict
    ops: list
    warm_up: Callable[[], None]


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


def _draw_alpha(rng: random.Random, name: str) -> float:
    return _draw(rng, *ALPHA_RANGE[name])


# ---------------------------------------------------------------------------
# uniform-march


def _check_march(name: str, n: int):
    tol = MARCH_TOL_256 * (MARCH_NS[0] / n) ** (MARCH_K + 1)

    def check(sol) -> list:
        t = sol.mesh.nodes[1:]
        down = sol.coeffs[:, 0, :].sum(axis=1)
        err = float(np.max(np.abs(down - EXACT[name](t))))
        if not err <= tol:
            return [f"max downwind error {err:.3e} exceeds {tol:.1e}"]
        return []

    return check


def _perturb_march(sol) -> list:
    coeffs = sol.coeffs.copy()
    coeffs[-1, 0, 0] += 1e-4
    return [fodelab.PiecewisePoly(sol.mesh, sol.k, coeffs, dict(sol.info))]


def _uniform_march(rng: random.Random) -> Workload:
    alphas = {name: _draw_alpha(rng, name) for name in MARCH_PROBLEMS}
    specs = {name: fodelab.builtin_problem(name, a) for name, a in alphas.items()}
    options = fodelab.SolveOptions(k=MARCH_K)
    ops = []
    for name in MARCH_PROBLEMS:
        spec = specs[name]
        for n in MARCH_NS:
            mesh = fodelab.build_mesh(n, spec.horizon)
            ops.append(Op(
                name=f"march {name} a={alphas[name]:g} n={n}",
                part="march",
                run=lambda spec=spec, mesh=mesh: fodelab.march(spec, mesh, options),
                check=_check_march(name, n),
                perturb=_perturb_march,
                fingerprint=lambda sol: sol.coeffs.tobytes(),
                tags={"problem": name, "n": n},
            ))

    def warm_up():
        for spec in specs.values():
            fodelab.march(spec, fodelab.build_mesh(8, spec.horizon), options)

    inputs = {"k": MARCH_K, "ns": list(MARCH_NS), "alphas": alphas}
    return Workload("uniform-march", inputs, ops, warm_up)


# ---------------------------------------------------------------------------
# study


def _check_study(spec, k: int):
    name = spec.name
    probe = np.linspace(0.0, spec.horizon, 7)

    def check(report) -> list:
        problems = []
        if not np.allclose(spec.exact(probe), EXACT[name](probe), rtol=1e-14, atol=0.0):
            problems.append("the problem's exact solution differs from the stated one")
        for row in report.rows:
            if row.failed:
                problems.append(f"n={row.n}: solver failure")
                continue
            bound = row.n ** -(k + 1.0)
            if not row.err_l2 <= STUDY_L2_CONST * bound:
                problems.append(f"n={row.n}: L2 error {row.err_l2:.3e} above "
                                f"{STUDY_L2_CONST:g} n^-{k + 1}")
            if not row.err_dw_max <= STUDY_DW_CONST * bound:
                problems.append(f"n={row.n}: downwind error {row.err_dw_max:.3e} above "
                                f"{STUDY_DW_CONST:g} n^-{k + 1}")
        rate = report.rate_l2_ls
        if rate is None or not abs(rate - (k + 1)) <= STUDY_RATE_TOL:
            problems.append(f"L2 rate {rate} is not within {STUDY_RATE_TOL} of {k + 1}")
        return problems

    return check


def _perturb_study(report) -> list:
    rows = list(report.rows)
    last = rows[-1]
    rows[-1] = replace(last, err_l2=last.err_l2 * 1e3, err_dw_max=last.err_dw_max * 1e3)
    wrong_rate = replace(report, rate_l2_ls=(report.rate_l2_ls or 0.0) + 1.0)
    return [replace(report, rows=rows), wrong_rate]


def _study(rng: random.Random) -> Workload:
    drawn = [(name, _draw_alpha(rng, name)) for name in fodelab.BUILTIN_NAMES]
    cases = [(name, a, "") for name, a in drawn] + [(name, a, " fixed") for name, a in STUDY_FIXED]
    specs = [(fodelab.builtin_problem(name, a), label) for name, a, label in cases]
    ops = []
    for spec, label in specs:
        for k in STUDY_KS:
            ops.append(Op(
                name=f"study {spec.name} a={spec.alpha:g}{label} k={k}",
                part="study",
                run=lambda spec=spec, k=k: cli.run_convergence_study(spec, k, STUDY_NS, threads=1),
                check=_check_study(spec, k),
                perturb=_perturb_study,
                fingerprint=lambda report: (report.to_csv(), tuple(report.flags)),
            ))

    def warm_up():
        for spec, _ in specs:
            for k in STUDY_KS:
                cli.run_convergence_study(spec, k, [4], threads=1)

    inputs = {"ns": list(STUDY_NS), "ks": list(STUDY_KS),
              "cases": [[name, a] for name, a, _ in cases]}
    return Workload("study", inputs, ops, warm_up)


# ---------------------------------------------------------------------------
# graded-post


def _check_mlf(query):
    def check(table) -> list:
        times, values = table
        certified = 0
        worst = 0.0
        for t, v in zip(times, values):
            try:
                ref = fodelab.mlf_series(query.alpha, query.beta,
                                         query.a_coef * t**query.alpha, tol=MLF_SERIES_TOL)
            except ValueError:
                continue  # the series does not certify here
            certified += 1
            worst = max(worst, abs(v - ref)) if np.isfinite(v) else math.inf
        if certified == 0:
            return ["the series certified no sample"]
        if not worst <= MLF_TOL:
            return [f"max |solver - series| {worst:.3e} exceeds {MLF_TOL:g}"]
        return []

    return check


def _perturb_mlf(table) -> list:
    times, values = table
    wrong = values.copy()
    wrong[len(wrong) // 2] += 1e-4
    return [(times, wrong)]


def _check_energy(report) -> list:
    problems = []
    if not report.identity_residual <= ENERGY_RESIDUAL_TOL * report.initial_sq:
        problems.append(f"energy identity residual {report.identity_residual:.3e} above "
                        f"{ENERGY_RESIDUAL_TOL:g} x initial energy")
    if not (report.dissipative and report.final_sq <= report.initial_sq):
        problems.append("perturbation energy grew")
    return problems


def _perturb_energy(report) -> list:
    return [replace(report, identity_residual=report.initial_sq * 1e-6),
            replace(report, dissipative=False)]


def _graded_post(rng: random.Random) -> Workload:
    mlf_alphas = [_draw(rng, lo, hi) for lo, hi in MLF_ALPHA_BANDS]
    energy_alpha = _draw_alpha(rng, "L1")
    queries = [fodelab.MlfQuery(alpha=a, beta=b, **MLF_QUERY)
               for a in mlf_alphas for b in MLF_BETAS]
    energy_spec = fodelab.builtin_problem("L1", energy_alpha)
    energy_mesh = fodelab.build_mesh(ENERGY_N, energy_spec.horizon, grading=ENERGY_GRADING)
    ops = [
        Op(
            name=f"mlf a={q.alpha:g} b={q.beta:g}",
            part="mlf",
            run=lambda q=q: fodelab.mlf_solve(q),
            check=_check_mlf(q),
            perturb=_perturb_mlf,
            fingerprint=lambda table: table[1].tobytes(),
        )
        for q in queries
    ]
    for k in ENERGY_KS:
        options = fodelab.SolveOptions(k=k)
        ops.append(Op(
            name=f"energy L1 a={energy_alpha:g} k={k}",
            part="energy",
            run=lambda options=options: fodelab.energy_diagnostic(energy_spec, energy_mesh, options),
            check=_check_energy,
            perturb=_perturb_energy,
            fingerprint=repr,
        ))

    def warm_up():
        for q in queries:
            fodelab.mlf_solve(replace(q, n=8, sample_count=5))
        small = fodelab.build_mesh(8, energy_spec.horizon, grading=ENERGY_GRADING)
        for k in ENERGY_KS:
            fodelab.energy_diagnostic(energy_spec, small, fodelab.SolveOptions(k=k))

    inputs = {"mlf_alphas": mlf_alphas, "mlf_betas": list(MLF_BETAS), "mlf_query": MLF_QUERY,
              "energy": {"alpha": energy_alpha, "n": ENERGY_N, "grading": ENERGY_GRADING,
                         "ks": list(ENERGY_KS)}}
    return Workload("graded-post", inputs, ops, warm_up)


_BUILDERS = {"uniform-march": _uniform_march, "study": _study, "graded-post": _graded_post}


def build(name: str, seed: int) -> Workload:
    """The workload's operations, with every input drawn from ``seed``."""
    return _BUILDERS[name](random.Random(seed))
