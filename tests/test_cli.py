import math
from fractions import Fraction

import pytest

from mindenom import cli, sums, verify


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_small(capsys):
    code, out, _ = run_cli(capsys, "compute", "--n", "4")
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert lines["N"] == "4"
    assert lines["S"] == "10"
    assert lines["R"] == "1/3"
    assert lines["T"] == "-1/6"
    assert lines["integral"] == "29/12"
    assert lines["S_open"] == "16"
    assert float(lines["ratio"]) == pytest.approx(1.25)


def test_compute_n1(capsys):
    code, out, _ = run_cli(capsys, "compute", "--n", "1")
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert lines["S"] == "1"
    assert lines["R"] == "0"
    assert "R_over_bound" not in lines  # undefined at the first grid size


def test_compute_s_only_large(capsys):
    code, out, _ = run_cli(capsys, "compute", "--n", "100000", "--s-only")
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert set(lines) == {"N", "S", "ratio"}
    s = int(lines["S"])
    assert float(lines["ratio"]) == pytest.approx(s / 100000**1.5)
    # squeeze between the proven scaled window bounds
    assert 1.35 < float(lines["ratio"]) < 2.04


def test_compute_budget_exceeded(capsys):
    code, _, err = run_cli(capsys, "compute", "--n", "5000")
    assert code == 3
    assert "budget" in err
    code, out, _ = run_cli(capsys, "compute", "--n", "2500", "--budget", "2500")
    assert code == 0


def test_compute_variant_needs_s_only(capsys):
    code, _, err = run_cli(capsys, "compute", "--n", "10", "--variant", "closed")
    assert code == 2
    code, out, _ = run_cli(
        capsys, "compute", "--n", "10", "--variant", "closed", "--s-only"
    )
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert int(lines["S"]) == sums.denominator_sum(10, "closed")


def test_compute_rejects_bad_n(capsys):
    code, _, err = run_cli(capsys, "compute", "--n", "0")
    assert code == 2


def test_sweep_geometric_ten_rows(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--from", "2", "--to", "1024", "--factor", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,S,ratio,integral,chen_haynes_residual"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 10
    assert [int(r[0]) for r in rows] == [2 << i for i in range(10)]
    last = rows[-1]
    assert 1.35 < float(last[2]) < 2.04
    # rows strictly increasing in N, ratio positive
    ns = [int(r[0]) for r in rows]
    assert ns == sorted(set(ns))
    assert all(float(r[2]) > 0 for r in rows)


def test_sweep_linear_matches_library(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--from", "1", "--to", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13
    for line in lines[1:]:
        n_s, s_s, ratio_s, integral_s, resid_s = line.split(",")
        n, s = int(n_s), int(s_s)
        assert s == sums.denominator_sum(n)
        assert float(ratio_s) == pytest.approx(s / n**1.5, rel=1e-11)
        assert float(integral_s) == pytest.approx(float(sums.window_integral(n)), rel=1e-11)


def test_sweep_rows_api():
    rows = cli.sweep_rows(2, 40, step=3)
    assert [row.n for row in rows] == list(range(2, 41, 3))
    for row in rows:
        assert row.r_over_bound is not None  # exact path within budget
        r = Fraction(row.s) - row.n * sums.window_integral(row.n)
        assert row.r_over_bound == pytest.approx(
            abs(float(r)) / (row.n ** (4 / 3) * math.log(row.n) ** 2)
        )
    big = cli.sweep_rows(4000, 4001, budget=2000)
    assert [row.n for row in big] == [4000, 4001]
    assert all(row.r_over_bound is None for row in big)
    assert all(row.integral > 0 for row in big)
    with pytest.raises(ValueError):
        cli.sweep_rows(5, 2)


def test_sweep_deterministic_bytes(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for path in (out_a, out_b):
        code, _, _ = run_cli(
            capsys, "sweep", "--from", "2", "--to", "64", "--factor", "1.7",
            "--out", str(path),
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sweep_unwritable_path(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--from", "2", "--to", "4",
        "--out", "/nonexistent-dir/out.csv",
    )
    assert code == 4
    assert "cannot write" in err


def test_sweep_rejects_bad_range(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--from", "9", "--to", "3")
    assert code == 2
    code, _, _ = run_cli(capsys, "sweep", "--from", "0", "--to", "3")
    assert code == 2
    code, _, _ = run_cli(capsys, "sweep", "--from", "2", "--to", "9", "--factor", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "sweep", "--from", "2", "--to", "9", "--step", "0")
    assert code == 2


@pytest.mark.parametrize("factor", ["nan", "inf"])
def test_sweep_rejects_non_finite_factor(capsys, factor):
    code, _, err = run_cli(capsys, "sweep", "--from", "2", "--to", "9", "--factor", factor)
    assert code == 2
    assert "--factor" in err


@pytest.mark.parametrize("command", [["compute", "--n", "10"], ["sweep", "--from", "1", "--to", "9"]])
def test_rejects_budget_below_one(capsys, command):
    for budget in ("0", "-3"):
        code, out, err = run_cli(capsys, *command, "--budget", budget)
        assert code == 2
        assert "--budget" in err and out == ""


@pytest.mark.parametrize("max_n", ["0", "-5"])
def test_verify_rejects_max_n_below_one(capsys, max_n):
    code, out, err = run_cli(capsys, "verify", "--suite", "variants", "--max-n", max_n)
    assert code == 2
    assert "--max-n" in err and "OK" not in out
    with pytest.raises(ValueError):
        verify.run_suite("variants", int(max_n))


def test_step_and_factor_mutually_exclusive():
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--from", "1", "--to", "9", "--step", "2", "--factor", "2"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "--bogus"])
    assert exc.value.code == 2


def test_verify_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "identities", "--max-n", "40")
    assert code == 0
    assert "identities:" in out and "0 failed" in out
    assert out.strip().endswith("OK")


def test_verify_all_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--max-n", "20")
    assert code == 0
    for name in ("farey", "minden", "identities", "expsums", "variants"):
        assert f"{name}:" in out


def test_verify_documented_invocations(capsys):
    # the three advertised suite runs, at their full documented sizes
    for argv in (
        ["verify", "--suite", "identities", "--max-n", "300"],
        ["verify", "--suite", "expsums"],
        ["verify", "--suite", "variants", "--max-n", "500"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert "0 failed" in out


def test_variant_sweep(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--from", "1", "--to", "8", "--variant", "open"
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        n_s, s_s = line.split(",")[:2]
        assert int(s_s) == sums.denominator_sum(int(n_s), "open")
