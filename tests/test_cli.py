"""Tests for the command line layer: rate fitting, reports, subcommands."""
import json
import math
import threading

import numpy as np
import pytest

from fodelab import cli, ldgsolver
from fodelab.cli import (
    EXIT_BAD_INPUT,
    EXIT_OK,
    EXIT_VALIDATION,
    CSV_HEADER,
    expected_rates,
    fit_rate,
    run_convergence_study,
    run_validation,
)
from fodelab.ldgsolver import march
from fodelab.problem import builtin_problem, load_problem_config


def test_fit_rate_recovers_synthetic_decay():
    # err = C * n^(-r) must give back r essentially exactly
    r = 2.3456789012345
    ns = [8, 16, 32, 64]
    errs = [3.7 * n**-r for n in ns]
    assert abs(fit_rate(ns, errs) - r) < 1e-10


def test_fit_rate_uses_last_points_and_skips_bad_levels():
    ns = [4, 8, 16, 32, 64]
    errs = [99.0] + [2.0 * n**-3.0 for n in ns[1:]]
    # last three levels are clean decay at rate 3
    assert abs(fit_rate(ns, errs) - 3.0) < 1e-10
    assert fit_rate([8, 16], [1e-3, float("nan")]) is None
    assert fit_rate([8], [1e-3]) is None
    assert fit_rate([8, 16], [0.0, 0.0]) is None


def test_expected_rates_table():
    assert expected_rates(0.5, 0, 1) == (2.0, 2.5)
    assert expected_rates(0.3, 0, 2) == (3.0, 3.3)
    assert expected_rates(1.0, 0, 2) == (3.0, 5.0)
    assert expected_rates(2.0, 0, 1) == (2.0, 3.0)
    # two-term problems take the derivative order as the floor
    assert expected_rates(0.7, 1, 2) == (3.0, 4.0)
    assert expected_rates(1.3, 1, 2) == (3.0, 4.3)
    assert expected_rates(1.0, 1, 2) == (3.0, 4.0)
    # no stated downwind target in the degraded zone
    assert expected_rates(1.9, 0, 1) == (2.0, None)
    assert expected_rates(1.05, 0, 1) == (2.0, None)
    assert expected_rates(0.5, 0, 0) == (1.0, None)


def test_study_report_layout_and_rates():
    spec = builtin_problem("L1", 0.5)
    report = run_convergence_study(spec, 1, [8, 16, 32])
    assert [r.n for r in report.rows] == [8, 16, 32]
    assert report.rows[0].rate_dw is None and report.rows[0].rate_l2 is None
    for prev, cur in zip(report.rows, report.rows[1:]):
        want = math.log(prev.err_dw_final / cur.err_dw_final) / math.log(2.0)
        assert abs(cur.rate_dw - want) < 1e-12
    assert abs(report.rate_l2_ls - 2.0) < 0.2
    assert report.expected_dw == 2.5 and report.expected_l2 == 2.0
    assert report.flags == []
    assert report.wall_time > 0.0


def test_study_downwind_flag_is_one_sided(monkeypatch):
    # the paper's downwind order is a floor: L1Prime at alpha=0.3, k=2
    # measures ~4.7 against an expected 4 and must not be flagged
    spec = builtin_problem("L1Prime", 0.3)
    ns = [8, 16, 32, 64]
    report = run_convergence_study(spec, 2, ns)
    assert report.expected_dw == 4.0
    assert report.rate_dw_ls > report.expected_dw + 0.4
    assert not any("downwind" in f for f in report.flags)
    # a rate that falls short of its target is still flagged
    target = report.rate_dw_ls + 1.0
    monkeypatch.setattr(cli, "expected_rates", lambda alpha, m, k: (3.0, target))
    short = run_convergence_study(spec, 2, ns)
    assert any(f.startswith("downwind rate") for f in short.flags)


def test_study_csv_is_deterministic_and_well_formed():
    spec = builtin_problem("L1", 0.3)
    a = run_convergence_study(spec, 1, [8, 16, 32]).to_csv()
    b = run_convergence_study(spec, 1, [8, 16, 32]).to_csv()
    assert a == b
    lines = a.split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[-1] == ""  # trailing newline
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "8" and first[4] == "" and first[6] == ""
    # every numeric cell round-trips exactly at 17 significant digits
    row = run_convergence_study(spec, 1, [8, 16, 32]).rows[1]
    cells = lines[2].split(",")
    assert float(cells[2]) == row.err_dw_final
    assert float(cells[5]) == row.err_l2


def test_study_threads_do_not_change_bytes():
    spec = builtin_problem("N1", 0.5)
    serial = run_convergence_study(spec, 1, [8, 16, 32], threads=1).to_csv()
    parallel = run_convergence_study(spec, 1, [8, 16, 32], threads=3).to_csv()
    assert serial == parallel


def test_study_rows_run_in_the_calling_thread(monkeypatch):
    callers = []

    def recording_march(*args, **kwargs):
        callers.append(threading.get_ident())
        return march(*args, **kwargs)

    monkeypatch.setattr(cli, "march", recording_march)
    spec = builtin_problem("L1", 0.5)
    for threads in (1, 2):
        report = run_convergence_study(spec, 1, [8, 16], threads=threads)
        assert [r.n for r in report.rows] == [8, 16] and not any(r.failed for r in report.rows)
    assert callers == [threading.get_ident()] * 4


def test_study_marks_solver_failures_but_continues(monkeypatch):
    spec = builtin_problem("N1", 0.5)
    monkeypatch.setattr(ldgsolver, "_NEWTON_MAX_ITER", 1)
    report = run_convergence_study(spec, 2, [8, 16])
    assert all(r.failed for r in report.rows)
    assert all(math.isnan(r.err_dw_final) for r in report.rows)
    assert report.rate_dw_ls is None
    assert any("solver failure" in f for f in report.flags)


def test_study_requires_exact_solution():
    cfg = load_problem_config({"alpha": 0.5, "forcing": "L1", "T": 2.5})
    assert cfg["spec"].exact is None
    with pytest.raises(ValueError):
        run_convergence_study(cfg["spec"], 1, [8, 16])
    # mesh sizes are not truncated to integers
    with pytest.raises(ValueError, match="n must be"):
        run_convergence_study(builtin_problem("L1", 0.5), 1, [8.5, 16.9])


def test_solve_command_trace(capsys):
    code = cli.main(["solve", "--problem", "L1", "--alpha", "0.5",
                     "--n", "16", "--k", "2"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t,value,exact,abs_err"
    assert len(lines) == 17
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert abs(float(last[1]) - 2.0) < 1e-3


def test_solve_command_dense_samples(tmp_path):
    out = tmp_path / "trace.csv"
    code = cli.main(["solve", "--problem", "L1", "--alpha", "0.5", "--n", "8",
                     "--k", "2", "--samples", "21", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 22
    t0 = lines[1].split(",")
    assert float(t0[0]) == 0.0


def test_solve_command_config_file(tmp_path):
    cfg = tmp_path / "problem.json"
    cfg.write_text(json.dumps({"alpha": 0.5, "forcing": "L1", "n": 8, "k": 1}))
    code = cli.main(["solve", "--config", str(cfg)])
    assert code == EXIT_OK


def test_solve_config_with_other_initial_has_no_exact(tmp_path, capsys):
    # L1's stated solution 1 + t**5 starts at x(0) = 1, so x(0) = 2 has none
    cfg = tmp_path / "problem.json"
    cfg.write_text(json.dumps({"alpha": 0.5, "forcing": "L1", "initial": [2.0], "n": 4, "k": 1}))
    assert cli.main(["solve", "--config", str(cfg)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t,value"
    assert len(lines) == 5


def test_solve_command_rejects_bad_input(tmp_path, capsys):
    assert cli.main(["solve", "--problem", "L1", "--alpha", "0"]) == EXIT_BAD_INPUT
    assert "alpha" in capsys.readouterr().err
    assert cli.main(["solve", "--problem", "L1"]) == EXIT_BAD_INPUT
    assert cli.main(["solve", "--config", "/does/not/exist.json"]) == EXIT_BAD_INPUT
    cfg_err = cli.main(["solve", "--config", "x.json", "--problem", "L1",
                        "--alpha", "0.5"])
    assert cfg_err == EXIT_BAD_INPUT
    capsys.readouterr()
    array = tmp_path / "problem.json"
    array.write_text(json.dumps([{"alpha": 0.5, "forcing": "L1"}]))
    assert cli.main(["solve", "--config", str(array), "--n", "8"]) == EXIT_BAD_INPUT
    assert "JSON object" in capsys.readouterr().err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_converge_command_writes_reports(tmp_path, capsys):
    code = cli.main(["converge", "--problem", "L1", "--alphas", "0.5",
                     "--ks", "1", "--ns", "8,16,32", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    csv_path = tmp_path / "L1_a0.5_k1.csv"
    json_path = tmp_path / "L1_a0.5_k1.json"
    assert csv_path.exists() and json_path.exists()
    assert csv_path.read_text().split("\n")[0] == CSV_HEADER
    data = json.loads(json_path.read_text())
    assert data["problem"] == "L1" and data["k"] == 1
    assert data["expected_dw"] == 2.5
    assert len(data["rows"]) == 3
    assert data["wall_time_s"] > 0.0
    summary = capsys.readouterr().out
    assert "rate_dw" in summary and "expected 2.5" in summary


def test_converge_command_rejects_repeated_n(tmp_path, capsys):
    # a repeated n gives log(n / n0) = 0 in the pairwise rate
    code = cli.main(["converge", "--problem", "L1", "--alphas", "0.5",
                     "--ks", "1", "--ns", "8,8", "--out-dir", str(tmp_path)])
    assert code == EXIT_BAD_INPUT
    assert "strictly increasing" in capsys.readouterr().err
    with pytest.raises(ValueError, match="strictly increasing"):
        run_convergence_study(builtin_problem("L1", 0.5), 1, [16, 8])


def test_converge_command_rejects_bad_threads(tmp_path, capsys):
    code = cli.main(["converge", "--problem", "L1", "--alphas", "0.5",
                     "--ks", "1", "--ns", "8,16", "--out-dir", str(tmp_path),
                     "--threads", "0"])
    assert code == EXIT_BAD_INPUT
    assert "threads must be" in capsys.readouterr().err
    with pytest.raises(ValueError, match="threads must be"):
        run_convergence_study(builtin_problem("L1", 0.5), 1, [8, 16], threads=2.7)


def test_mlf_command_with_series_check(tmp_path):
    out = tmp_path / "mlf.csv"
    code = cli.main(["mlf", "--alpha", "0.5", "--beta", "1", "--A", "-1",
                     "--tmax", "1", "--samples", "5", "--check",
                     "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,value,series,delta"
    assert len(lines) == 6
    deltas = [float(row.split(",")[3]) for row in lines[1:]]
    assert max(deltas) < 1e-6


def test_mlf_command_rejects_bad_query():
    assert cli.main(["mlf", "--alpha", "0"]) == EXIT_BAD_INPUT
    assert cli.main(["mlf", "--alpha", "2.5"]) == EXIT_BAD_INPUT


def test_validation_suite_passes():
    checks = run_validation()
    names = [c[0] for c in checks]
    assert "basis-orthogonality" in names
    assert "stiffness-parts-identity" in names
    assert "frac-history" in names
    assert "problem-forcings" in names
    for name, err, tol, ok in checks:
        assert ok, f"{name} failed with error {err} > {tol}"


def test_validation_catches_stiffness_sign_flip(monkeypatch):
    from fodelab import polybasis

    orig = polybasis.stiffness_matrix
    monkeypatch.setattr(polybasis, "stiffness_matrix", lambda k: -orig(k))
    checks = {c[0]: c for c in run_validation()}
    assert not checks["stiffness-parts-identity"][3]
    # exit code wiring: any failing check must surface as exit 1
    monkeypatch.setattr(cli, "run_validation", lambda: list(checks.values()))
    assert cli.main(["validate"]) == EXIT_VALIDATION


def test_validate_command_reports_pass_lines(monkeypatch, capsys):
    canned = [("basis-orthogonality", 1e-15, 1e-12, True)]
    monkeypatch.setattr(cli, "run_validation", lambda: canned)
    assert cli.main(["validate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("PASS") and "basis-orthogonality" in out
