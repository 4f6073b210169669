"""Command line front end: solves, convergence studies, Mittag-Leffler tables.

Subcommands:
    solve      march one problem and dump the solution trace as CSV
    converge   run a mesh-refinement study per (alpha, k) and write CSV/JSON
    mlf        tabulate E_{alpha,beta}(A t^alpha), optionally series-checked
    validate   self-check the basis, the fractional assembly, and the
               built-in problem forcings

Exit codes: 0 success, 1 validation-suite failure, 2 bad input, 3 solver
failure.

Convergence CSVs are deterministic byte for byte (fixed column set, '%.17g'
formatting, LF line endings, ordered row assembly); wall time and other
run metadata go to the JSON mirror only.  ``converge --threads`` sets how
many study rows run concurrently (default 1).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import fraccalc, polybasis
from .ldgsolver import SolveOptions, SolverError, downwind_errors, l2_error, march
from .mittag import MlfQuery, mlf_series, mlf_solve
from .polybasis import _check_int
from .problem import (
    BUILTIN_NAMES,
    _read_config,
    build_mesh,
    builtin_problem,
    load_problem_config,
    verify_forcing,
)

__all__ = [
    "EXIT_OK",
    "EXIT_VALIDATION",
    "EXIT_BAD_INPUT",
    "EXIT_SOLVER",
    "StudyRow",
    "ConvergenceReport",
    "fit_rate",
    "expected_rates",
    "run_convergence_study",
    "run_validation",
    "main",
]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BAD_INPUT = 2
EXIT_SOLVER = 3

CSV_HEADER = "n,h,err_dw_final,err_dw_max,rate_dw,err_l2,rate_l2"

_FIT_POINTS = 3  # coarser levels are pre-asymptotic; two would repeat the pairwise rate


def _fmt(value: float) -> str:
    return "%.17g" % value


@dataclass(frozen=True)
class StudyRow:
    """One mesh level of a convergence study (rates vs the previous level)."""

    n: int
    h: float
    err_dw_final: float
    err_dw_max: float
    err_l2: float
    rate_dw: float | None = None
    rate_l2: float | None = None
    failed: bool = False


@dataclass
class ConvergenceReport:
    problem: str
    alpha: float
    m: int
    k: int
    rows: list[StudyRow]
    rate_dw_ls: float | None
    rate_l2_ls: float | None
    expected_dw: float | None
    expected_l2: float
    flags: list[str] = field(default_factory=list)
    wall_time: float = 0.0

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            cells = [
                "%d" % r.n,
                _fmt(r.h),
                _fmt(r.err_dw_final),
                _fmt(r.err_dw_max),
                "" if r.rate_dw is None else _fmt(r.rate_dw),
                _fmt(r.err_l2),
                "" if r.rate_l2 is None else _fmt(r.rate_l2),
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["wall_time_s"] = out.pop("wall_time")  # the last field stays last
        return out


def fit_rate(ns, errs) -> float | None:
    """Least-squares slope of log(err) against log(h) over the last three levels.

    Levels with vanishing or non-finite errors are skipped.  Returns None
    when fewer than two usable levels remain.
    """
    usable = [(n, e) for n, e in zip(ns, errs) if np.isfinite(e) and e > 0.0]
    usable = usable[-_FIT_POINTS:]
    if len(usable) < 2:
        return None
    x = np.log([1.0 / n for n, _ in usable])
    y = np.log([e for _, e in usable])
    design = np.vstack([x, np.ones_like(x)]).T
    slope = np.linalg.lstsq(design, y, rcond=None)[0][0]
    return float(slope)


def expected_rates(alpha: float, m: int, k: int) -> tuple[float, float | None]:
    """(L2 rate, downwind rate) the method is expected to deliver.

    L2 is always k+1.  The downwind target is 2k+1 in the classic
    integer-order one-term case, and k+1+min{k, max(alpha, m)} otherwise.
    In the zone floor(alpha) >= max(k, m) with non-integer alpha the
    downwind order degrades in a way the source material leaves open, so
    no target is returned there.
    """
    l2 = float(k + 1)
    integer = alpha == int(alpha)
    if m == 0 and integer:
        return l2, float(2 * k + 1)
    if not integer and math.floor(alpha) >= max(k, m):
        return l2, None
    return l2, k + 1.0 + min(float(k), max(float(alpha), float(m)))


def run_convergence_study(
    spec,
    k: int,
    n_list,
    rate_tol: float = 0.4,
    threads: int = 1,
) -> ConvergenceReport:
    """Mesh-refinement study for one (problem, k): errors, rates, flags.

    Each level marches ``SolveOptions(k=k)`` on n uniform elements (the n
    strictly increasing integers >= 1).  Rows run on up to ``threads``
    threads (an integer >= 1) but are assembled in input order, so the
    report is deterministic.  A solver failure marks its row and the study
    continues with the remaining levels.  The L2 rate is flagged when it
    lies more than ``rate_tol`` from k+1 either way; the downwind rate only
    when it falls more than ``rate_tol`` short of its expected order, since
    that order is a lower bound.
    """
    if spec.exact is None:
        raise ValueError("a convergence study needs a problem with an exact solution")
    n_list = [_check_int("n", n, 1) for n in n_list]
    if not n_list:
        raise ValueError("a convergence study needs at least one n")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n values must be strictly increasing, got {n_list}")
    threads = _check_int("threads", threads, 1)
    options = SolveOptions(k=k)

    start = time.perf_counter()

    def attempt(n):
        try:
            sol = march(spec, build_mesh(n, spec.horizon), options)
        except SolverError as exc:
            return exc
        errs = downwind_errors(sol, spec.exact)
        return float(errs[-1]), float(np.max(errs)), l2_error(sol, spec.exact)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        outcomes = list(pool.map(attempt, n_list))

    rows: list[StudyRow] = []
    flags: list[str] = []
    prev: tuple[int, float, float] | None = None  # (n, err_dw_final, err_l2)
    for n, outcome in zip(n_list, outcomes):
        h = spec.horizon / n
        if isinstance(outcome, SolverError):
            flags.append(f"n={n}: solver failure: {outcome}")
            rows.append(StudyRow(n=n, h=h, err_dw_final=math.nan, err_dw_max=math.nan,
                                 err_l2=math.nan, failed=True))
            continue
        dw_final, dw_max, l2 = outcome
        rate_dw = rate_l2 = None
        if prev is not None:
            n0, dw0, l20 = prev
            scale = math.log(n / n0)
            if dw0 > 0 and dw_final > 0:
                rate_dw = math.log(dw0 / dw_final) / scale
            if l20 > 0 and l2 > 0:
                rate_l2 = math.log(l20 / l2) / scale
        rows.append(StudyRow(n=n, h=h, err_dw_final=dw_final, err_dw_max=dw_max,
                             err_l2=l2, rate_dw=rate_dw, rate_l2=rate_l2))
        prev = (n, dw_final, l2)

    good = [r for r in rows if not r.failed]
    rate_dw_ls = fit_rate([r.n for r in good], [r.err_dw_final for r in good])
    rate_l2_ls = fit_rate([r.n for r in good], [r.err_l2 for r in good])
    expected_l2, expected_dw = expected_rates(spec.alpha, spec.m, k)

    if rate_l2_ls is not None and abs(rate_l2_ls - expected_l2) > rate_tol:
        flags.append(f"L2 rate {rate_l2_ls:.3f} deviates from expected {expected_l2:g} "
                     f"by more than {rate_tol:g}")
    # the downwind order is a floor: superconvergence beyond it is no fault
    if expected_dw is not None and rate_dw_ls is not None \
            and rate_dw_ls < expected_dw - rate_tol:
        flags.append(f"downwind rate {rate_dw_ls:.3f} falls short of expected "
                     f"{expected_dw:g} by more than {rate_tol:g}")

    return ConvergenceReport(
        problem=spec.name, alpha=spec.alpha, m=spec.m, k=k, rows=rows,
        rate_dw_ls=rate_dw_ls, rate_l2_ls=rate_l2_ls,
        expected_dw=expected_dw, expected_l2=expected_l2,
        flags=flags, wall_time=time.perf_counter() - start,
    )


def run_validation() -> list[tuple[str, float, float, bool]]:
    """Self-checks: (name, max error, tolerance, passed) per check."""
    checks: list[tuple[str, float, float, bool]] = []

    def record(name, err, tol):
        checks.append((name, float(err), tol, bool(err <= tol)))

    # basis: orthonormality scaled by 1/(2p+1)
    rule = polybasis.gauss_legendre(polybasis.MAX_DEGREE + 1)
    tab = polybasis.legendre_table(polybasis.MAX_DEGREE, rule.nodes)
    gram = tab.T @ (rule.weights[:, None] * tab)
    expected = np.diag(1.0 / (2.0 * np.arange(polybasis.MAX_DEGREE + 1) + 1.0))
    record("basis-orthogonality", np.max(np.abs(gram - expected)), 1e-12)

    # quadrature: Gauss-Legendre monomial exactness at its stated degree
    err = 0.0
    for order in (2, 5, 9):
        q = polybasis.gauss_legendre(order)
        for p in range(2 * order):
            err = max(err, abs(float(q.weights @ q.nodes**p) - 1.0 / (p + 1)))
    record("quadrature-exactness", err, 1e-12)

    # stiffness: integration-by-parts identity S + S^T = 11^T - zz^T
    err = 0.0
    for k in range(polybasis.MAX_DEGREE + 1):
        s = polybasis.stiffness_matrix(k)
        ones = np.ones((k + 1, k + 1))
        z = (-1.0) ** np.arange(k + 1)
        err = max(err, np.max(np.abs(s + s.T - ones + np.outer(z, z))))
    record("stiffness-parts-identity", err, 1e-12)

    betas = (0.1, 0.3, 0.5, 0.7, 0.9)

    def rel_err(block, ref):
        k = block.shape[0] - 1
        return np.max(np.abs(block - ref[: k + 1, : k + 1])) / np.max(np.abs(block))

    # fractional assembly against the quadrature oracle, for k = 0..5: the
    # local matrix, and the history blocks (one column per source basis
    # function) of one touching pair (near-field closed form) and one well
    # separated pair (batched far-field form).  The basis is nested, so the
    # oracle block of degree 5 holds the one of every lower degree.
    local_err = hist_err = 0.0
    pairs = (((0.0, 1.0), (1.0, 1.5)), ((0.0, 0.5), (2.5, 3.0)))
    for beta in betas:
        local_ref = fraccalc.oracle_frac_block(beta, 5, (0.0, 1.0), (0.0, 1.0))
        hist_refs = [fraccalc.oracle_frac_block(beta, 5, src, tgt, tol=1e-11) for src, tgt in pairs]
        for k in range(6):
            local_err = max(local_err, rel_err(fraccalc.local_frac_matrix(beta, k), local_ref))
            for (src, tgt), ref in zip(pairs, hist_refs):
                hist = np.column_stack([fraccalc.history_contribution(beta, e, src, tgt)
                                        for e in np.eye(k + 1)])
                hist_err = max(hist_err, rel_err(hist, ref))
    record("frac-local-matrix", local_err, 1e-10)
    record("frac-history", hist_err, 1e-10)

    # built-in problems: forcing consistency with the stated exact solutions
    err = 0.0
    ranges = {"L1": (0.0, 1.0), "N1": (0.0, 1.0), "L1Prime": (0.0, 1.0),
              "N5": (1.0, 2.0), "N4": (1.0, 2.0), "L2": (1.0, 2.0)}
    for name in BUILTIN_NAMES:
        lo, hi = ranges[name]
        for i in range(1, 10):
            alpha = lo + (hi - lo) * i / 10.0
            err = max(err, verify_forcing(builtin_problem(name, alpha)))
    record("problem-forcings", err, 1e-10)

    return checks


def _parse_list(text: str, kind) -> list:
    return [kind(v) for v in text.split(",") if v.strip()]


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _solve_csv(spec, sol, samples: int | None) -> str:
    has_exact = spec.exact is not None
    header = "t,value" + (",exact,abs_err" if has_exact else "")
    lines = [header]
    if samples is None:
        times = sol.mesh.nodes[1:]
        values = sol.downwind_values()
    else:
        if samples < 2:
            raise ValueError("--samples must be at least 2")
        times = np.linspace(0.0, sol.mesh.horizon, samples)
        values = np.array([sol(t) for t in times])
    for t, v in zip(times, values):
        cells = [_fmt(t), _fmt(v)]
        if has_exact:
            exact = float(spec.exact(t))
            cells += [_fmt(exact), _fmt(abs(exact - v))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    if args.config is not None:
        if args.problem is not None or args.alpha is not None:
            raise ValueError("--config and --problem/--alpha are mutually exclusive")
        raw = _read_config(args.config)
    else:
        if args.problem is None or args.alpha is None:
            raise ValueError("either --config or both --problem and --alpha are required")
        raw = {"alpha": args.alpha, "forcing": args.problem}
    for key, val in (("T", args.T), ("n", args.n), ("k", args.k)):
        if val is not None:
            raw[key] = val
    cfg = load_problem_config(raw)
    spec, n, k = cfg["spec"], cfg["n"], cfg["k"]

    sol = march(spec, build_mesh(n, spec.horizon), SolveOptions(k=k))
    _write_text(args.out, _solve_csv(spec, sol, args.samples))
    return EXIT_OK


def cmd_converge(args) -> int:
    alphas = _parse_list(args.alphas, float)
    ks = _parse_list(args.ks, int)
    ns = _parse_list(args.ns, int)
    if not alphas or not ks or not ns:
        raise ValueError("need at least one alpha, one k, and one n")
    os.makedirs(args.out_dir, exist_ok=True)
    any_row = False
    for alpha in alphas:
        for k in ks:
            spec = builtin_problem(args.problem, alpha)
            report = run_convergence_study(spec, k, ns, rate_tol=args.rate_tol,
                                           threads=args.threads)
            stem = os.path.join(args.out_dir, f"{args.problem}_a{alpha:g}_k{k}")
            _write_text(stem + ".csv", report.to_csv())
            with open(stem + ".json", "w", encoding="utf-8", newline="") as fh:
                json.dump(report.to_json_dict(), fh, indent=2)
                fh.write("\n")
            any_row = any_row or any(not r.failed for r in report.rows)
            dw = "none" if report.rate_dw_ls is None else f"{report.rate_dw_ls:.3f}"
            l2 = "none" if report.rate_l2_ls is None else f"{report.rate_l2_ls:.3f}"
            exp_dw = "none" if report.expected_dw is None else f"{report.expected_dw:g}"
            print(f"{args.problem} alpha={alpha:g} k={k}: rate_dw={dw} "
                  f"(expected {exp_dw}) rate_l2={l2} (expected {report.expected_l2:g})"
                  + ("" if not report.flags else "  [" + "; ".join(report.flags) + "]"))
    return EXIT_OK if any_row else EXIT_SOLVER


def cmd_mlf(args) -> int:
    query = MlfQuery(alpha=args.alpha, beta=args.beta, a_coef=args.A,
                     t_max=args.tmax, sample_count=args.samples, n=args.n, k=args.k)
    times, values = mlf_solve(query)
    header = "t,value" + (",series,delta" if args.check else "")
    lines = [header]
    worst = 0.0
    for t, v in zip(times, values):
        cells = [_fmt(t), _fmt(v)]
        if args.check:
            try:
                ref = mlf_series(query.alpha, query.beta,
                                 query.a_coef * t**query.alpha, tol=1e-9)
                delta = abs(v - ref)
                worst = max(worst, delta)
                cells += [_fmt(ref), _fmt(delta)]
            except ValueError:
                cells += ["", ""]
        lines.append(",".join(cells))
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.check:
        print(f"max |solver - series| = {worst:.3e}", file=sys.stderr)
    return EXIT_OK


def cmd_validate(args) -> int:
    checks = run_validation()
    failed = False
    for name, err, tol, ok in checks:
        failed = failed or not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:28s} max error {err:.3e} (tol {tol:g})")
    return EXIT_VALIDATION if failed else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fodelab",
        description="LDG solver toolkit for Caputo fractional ODEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="march one problem and dump its trace")
    p.add_argument("--config", help="JSON problem file")
    p.add_argument("--problem", choices=list(BUILTIN_NAMES), help="builtin name")
    p.add_argument("--alpha", type=float, help="fractional order")
    p.add_argument("--n", type=int, help="element count")
    p.add_argument("--k", type=int, help="polynomial degree")
    p.add_argument("--T", type=float, help="horizon override")
    p.add_argument("--samples", type=int, default=None,
                   help="emit this many uniform samples instead of downwind rows")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("converge", help="mesh-refinement study")
    p.add_argument("--problem", required=True, choices=list(BUILTIN_NAMES))
    p.add_argument("--alphas", required=True, help="comma list, e.g. 0.3,0.5")
    p.add_argument("--ks", required=True, help="comma list, e.g. 1,2")
    p.add_argument("--ns", required=True, help="comma list, e.g. 8,16,32,64")
    p.add_argument("--out-dir", default=".", help="directory for CSV/JSON reports")
    p.add_argument("--rate-tol", type=float, default=0.4,
                   help="deviation from the expected L2 rate, or shortfall below the "
                        "expected downwind rate, that raises a flag")
    p.add_argument("--threads", type=int, default=1,
                   help="row parallelism (default: 1)")
    p.set_defaults(handler=cmd_converge)

    p = sub.add_parser("mlf", help="tabulate a Mittag-Leffler curve")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--A", type=float, default=-1.0)
    p.add_argument("--tmax", type=float, default=2.0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--check", action="store_true",
                   help="add series-oracle columns where the series converges")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(handler=cmd_mlf)

    p = sub.add_parser("validate", help="run the self-check suite")
    p.set_defaults(handler=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
