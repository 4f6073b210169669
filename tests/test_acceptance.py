"""End-to-end acceptance gate.

Ten numbered checks, each printing one PASS/FAIL line with the measured
quantities.  Rate checks use the least-squares slope over the last three
mesh levels of n in {8, 16, 32, 64} and the final-time downwind error,
matching what the converge subcommand reports.
"""
import math

import numpy as np
import pytest

from fodelab import cli
from fodelab.fraccalc import history_contribution, local_frac_matrix, oracle_frac_block
from fodelab.ldgsolver import SolveOptions, energy_diagnostic, march
from fodelab.mittag import MlfQuery, mlf_series, mlf_solve
from fodelab.problem import build_mesh, builtin_problem, linear_model

NS = [8, 16, 32, 64]


def _line(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def _rates(name, alpha, k):
    report = cli.run_convergence_study(builtin_problem(name, alpha), k, NS)
    assert not any(r.failed for r in report.rows)
    return report


def test_01_operator_assembly_matches_oracle():
    rng = np.random.default_rng(31415926)
    worst = 0.0
    # one adjacent pair and one separated pair per (beta, k)
    pairs = (((0.3, 0.7), (0.7, 1.1)), ((0.0, 0.5), (2.5, 3.0)))
    for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
        # the basis is nested: the degree-5 oracle blocks hold every lower
        # degree's as their leading corner; the oracle self-certifies the
        # history blocks an order tighter than the check
        local_ref = oracle_frac_block(beta, 5, (0.0, 1.0), (0.0, 1.0))
        hist_refs = [oracle_frac_block(beta, 5, src, tgt, tol=1e-11) for src, tgt in pairs]
        for k in range(6):
            local = local_frac_matrix(beta, k)
            worst = max(worst, np.max(np.abs(local - local_ref[: k + 1, : k + 1])) / np.max(np.abs(local)))
            for (src, tgt), ref in zip(pairs, hist_refs):
                coeffs = rng.standard_normal(k + 1)
                hist = history_contribution(beta, coeffs, src, tgt)
                scale = max(np.max(np.abs(hist)), 1e-300)
                worst = max(worst, np.max(np.abs(hist - ref[: k + 1, : k + 1] @ coeffs)) / scale)
    ok = worst <= 1e-10
    _line(1, ok, f"fractional assembly vs oracle, worst relative error {worst:.3e} "
                 f"(tol 1e-10)")
    assert ok


def test_02_one_term_rates():
    failures = []
    cells = []
    for alpha in (0.3, 0.5, 0.8):
        for k in (1, 2, 3):
            rep = _rates("L1", alpha, k)
            dw_target = k + 1.0 + min(k, alpha)
            cells.append(f"a={alpha:g},k={k}: dw {rep.rate_dw_ls:.2f}/{dw_target:g} "
                         f"l2 {rep.rate_l2_ls:.2f}/{k + 1}")
            if abs(rep.rate_dw_ls - dw_target) > 0.3:
                failures.append(f"dw a={alpha} k={k}: {rep.rate_dw_ls:.3f}")
            if abs(rep.rate_l2_ls - (k + 1.0)) > 0.25:
                failures.append(f"l2 a={alpha} k={k}: {rep.rate_l2_ls:.3f}")
    ok = not failures
    _line(2, ok, "one-term downwind k+1+alpha (+-0.3), L2 k+1 (+-0.25); "
                 + "; ".join(cells if ok else failures))
    assert ok, failures


def test_03_integer_order_limit():
    failures = []
    cells = []
    for k in (1, 2):
        rep = _rates("L1", 1.0, k)
        target = 2.0 * k + 1.0
        cells.append(f"k={k}: dw {rep.rate_dw_ls:.3f}/{target:g}")
        if abs(rep.rate_dw_ls - target) > 0.3:
            failures.append(cells[-1])
    ok = not failures
    _line(3, ok, "classic limit alpha=1 downwind 2k+1 (+-0.3); " + "; ".join(cells))
    assert ok, failures


def test_04_nonlinear_rates_and_newton():
    failures = []
    cells = []
    worst_newton = 0
    for k in (1, 2):
        spec = builtin_problem("N1", 0.5)
        rep = _rates("N1", 0.5, k)
        dw_target = k + 1.5
        if abs(rep.rate_dw_ls - dw_target) > 0.3:
            failures.append(f"dw k={k}: {rep.rate_dw_ls:.3f}")
        if abs(rep.rate_l2_ls - (k + 1.0)) > 0.25:
            failures.append(f"l2 k={k}: {rep.rate_l2_ls:.3f}")
        for n in NS:
            sol = march(spec, build_mesh(n, spec.horizon), SolveOptions(k=k))
            worst_newton = max(worst_newton, sol.info["newton_max_iters"])
        cells.append(f"k={k}: dw {rep.rate_dw_ls:.2f}/{dw_target:g} "
                     f"l2 {rep.rate_l2_ls:.2f}/{k + 1}")
    if worst_newton > 25:
        failures.append(f"newton iterations {worst_newton} > 25")
    ok = not failures
    _line(4, ok, "nonlinear rates as one-term targets, newton max "
                 f"{worst_newton} iters (cap 25); " + "; ".join(cells))
    assert ok, failures


def test_05_two_term_superconvergence():
    # L1Prime solves D^alpha x + x' = f, a FODE with a classic term of order
    # m = 1.  The paper's downwind order for that family is
    # k+1+min{k, max{alpha, m}} = k+2 here, so it is the floor (less 0.3).
    # The min{k, .} caps every stated downwind order at 2k+1, so that is the
    # ceiling (plus 0.3).  The former band 2k+1 +- 0.3 coincides with this at
    # k=1 but at k=2 asked for order 5 where the paper promises 4.
    m = 1
    failures = []
    cells = []
    for alpha in (0.3, 0.7):
        for k in (1, 2):
            rep = _rates("L1Prime", alpha, k)
            floor = k + 1.0 + min(k, max(alpha, m)) - 0.3
            ceiling = 2.0 * k + 1.0 + 0.3
            cells.append(f"a={alpha:g},k={k}: dw {rep.rate_dw_ls:.3f} "
                         f"in [{floor:g}, {ceiling:g}]")
            if not floor <= rep.rate_dw_ls <= ceiling:
                failures.append(cells[-1])
    ok = not failures
    _line(5, ok, "two-term downwind k+1+min{k, max{alpha, m}} to 2k+1 "
                 "(+-0.3); " + "; ".join(cells))
    assert ok, failures


def test_06_higher_order_rates():
    failures = []
    cells = []
    for k in (1, 2):
        rep = _rates("N5", 1.5, k)
        target = 2.0 * k + 1.0
        cells.append(f"N5 k={k}: dw {rep.rate_dw_ls:.2f}/{target:g}")
        if abs(rep.rate_dw_ls - target) > 0.35:
            failures.append(cells[-1])
    for alpha in (1.3, 1.7):
        for k in (2, 3):
            rep = _rates("N4", alpha, k)
            target = k + 1.0 + alpha
            cells.append(f"N4 a={alpha:g},k={k}: dw {rep.rate_dw_ls:.2f}/{target:g}")
            if abs(rep.rate_dw_ls - target) > 0.35:
                failures.append(cells[-1])
    ok = not failures
    _line(6, ok, "multi-term downwind targets (+-0.35); " + "; ".join(cells))
    assert ok, failures


def test_07_dissipativity():
    failures = []
    logged = []
    for alpha in (0.3, 0.5, 0.9):
        spec = linear_model(alpha, -1.0, 0.0, (1.0,), 1.0)
        meshes = [build_mesh(8, 1.0), build_mesh(32, 1.0), build_mesh(16, 1.0, grading=2.0)]
        for mesh in meshes:
            rep = energy_diagnostic(spec, mesh, SolveOptions(k=1))
            logged.append(f"a={alpha:g},n={mesh.n}: e0^2={rep.initial_sq:.3e} "
                          f"eT^2={rep.final_sq:.3e} jumps={rep.jump_sum:.3e} "
                          f"frac={rep.frac_term:.3e} resid={rep.identity_residual:.1e}")
            if not (rep.final_sq <= rep.initial_sq and rep.dissipative
                    and rep.identity_residual <= 1e-14 * rep.initial_sq):
                failures.append(logged[-1])
    ok = not failures
    _line(7, ok, "perturbation energy never grows (A=-1); "
                 + (f"worst resid {max(float(l.split('resid=')[1]) for l in logged):.1e}"
                    if ok else "; ".join(failures)))
    for entry in logged:
        print("  " + entry)
    assert ok, failures


def test_08_mittag_leffler_agreement():
    failures = []
    worst = 0.0
    times = np.linspace(0.1, 2.0, 20)
    for alpha in (0.3, 0.5, 0.8, 1.0):
        for beta in (0.5, 1.0, 1.5):
            query = MlfQuery(alpha=alpha, beta=beta, a_coef=-1.0, t_max=2.0,
                             n=128, k=3)
            _, values = mlf_solve(query, times=times)
            refs = [mlf_series(alpha, beta, -t**alpha, tol=1e-9) for t in times]
            err = float(np.max(np.abs(values - np.array(refs))))
            worst = max(worst, err)
            if err > 1e-5:
                failures.append(f"a={alpha:g},b={beta:g}: {err:.2e}")
    # exact identities
    ts = np.linspace(0.0, 2.0, 9)
    _, vals = mlf_solve(MlfQuery(alpha=1.0, beta=1.0, t_max=2.0, n=128, k=3), times=ts)
    exp_err = float(np.max(np.abs(vals - np.exp(-ts))))
    if exp_err > 1e-6:
        failures.append(f"exp identity: {exp_err:.2e}")
    zero_err = max(abs(mlf_series(a, b, 0.0) - 1.0 / math.gamma(b))
                   for a in (0.3, 0.5, 0.8, 1.0) for b in (0.5, 1.0, 1.5))
    if zero_err > 1e-6:
        failures.append(f"value at zero: {zero_err:.2e}")
    ok = not failures
    _line(8, ok, f"solver vs series on the 12-point grid, worst {worst:.2e} "
                 f"(tol 1e-5); exp identity {exp_err:.1e}, at-zero {zero_err:.1e} "
                 f"(tol 1e-6)" + ("" if ok else "; " + "; ".join(failures)))
    assert ok, failures


def test_09_order_drop_between_one_and_two():
    low = _rates("L2", 1.05, 1).rate_dw_ls
    high = _rates("L2", 1.9, 1).rate_dw_ls
    ok = low < high
    _line(9, ok, f"downwind rate at alpha=1.05 ({low:.3f}) below alpha=1.9 "
                 f"({high:.3f}), no numeric target")
    assert ok, (low, high)


def test_10_byte_identical_reports(tmp_path):
    args = ["converge", "--problem", "L1", "--alphas", "0.5", "--ks", "1",
            "--ns", "8,16,32"]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out-dir", str(dir_a)]) == 0
    assert cli.main(args + ["--out-dir", str(dir_b)]) == 0
    bytes_a = (dir_a / "L1_a0.5_k1.csv").read_bytes()
    bytes_b = (dir_b / "L1_a0.5_k1.csv").read_bytes()
    ok = bytes_a == bytes_b and len(bytes_a) > 0
    _line(10, ok, f"repeated study CSVs byte-identical ({len(bytes_a)} bytes)")
    assert ok
