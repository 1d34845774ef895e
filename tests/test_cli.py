import hashlib
import math
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import mindenom
from mindenom import cli, minden, sums, verify


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_package_exports_resolve():
    # a deleted function left in the export list fails here
    assert mindenom.__all__ == sorted(set(mindenom.__all__))
    for name in mindenom.__all__:
        assert hasattr(mindenom, name), name


def test_readme_library_example():
    # the README's Library block runs, and each line with a comment gives the
    # values it states: "expr  # a == b" means expr == a and expr == b
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope, values = {}, []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, scope)
            continue
        got = eval(code, scope)
        for value in comment.split("=="):
            assert got == eval(value, scope), line
        values.append(got)
    assert values == [5, 10, Fraction(29, 12), Fraction(1, 3), Fraction(-1, 6)]


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


def test_compute_output_is_pinned(capsys):
    # sha256 of the concatenated stdout of compute --n N for N = 1..300 and
    # N = 1999, recorded before the exact sums took their int64 merge levels
    digest = hashlib.sha256()
    for n in [*range(1, 301), 1999]:
        code, out, _ = run_cli(capsys, "compute", "--n", str(n))
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == "84d679168163884dece91d55bae3d6e34d5b7347ffb0b9a65e4e88f63b0da2df"


def test_compute_prints_every_digit(capsys):
    # from N = 9859 on a report numerator has more than 4300 digits, which
    # str() of an int refuses; int(Decimal) parses them back with no limit
    n = 9859
    code, out, _ = run_cli(capsys, "compute", "--n", str(n), "--budget", str(n))
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert max(len(part) for value in lines.values() for part in value.split("/")) > 4300
    report = sums.sum_report(n)
    for key, attr in cli._REPORT_KEYS:
        value = getattr(report, attr)
        if not isinstance(value, float):
            num, _, den = lines[key].partition("/")
            assert Fraction(int(Decimal(num)), int(Decimal(den or "1"))) == value, key


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
    series = sums.window_integral_series(12)
    for line in lines[1:]:
        n_s, s_s, ratio_s, integral_s, resid_s = line.split(",")
        n, s = int(n_s), int(s_s)
        assert s == sums.denominator_sum(n)
        assert float(ratio_s) == pytest.approx(s / n**1.5, rel=1e-11)
        assert float(integral_s) == pytest.approx(float(series[n]), rel=1e-11)


def test_sweep_rows_api():
    rows = cli.sweep_rows(2, 40, step=3)
    assert [row.n for row in rows] == list(range(2, 41, 3))
    big = cli.sweep_rows(4000, 4001, budget=2000)
    assert [row.n for row in big] == [4000, 4001]
    assert all(row.integral > 0 for row in big)
    with pytest.raises(ValueError):
        cli.sweep_rows(5, 2)
    # a step below 1 would never reach stop; a factor <= 1 would give the
    # linear grid, and nan or inf no grid at all
    for step in (0, -1):
        with pytest.raises(ValueError, match="step"):
            cli.sweep_rows(1, 10, step=step)
    for factor in (0.5, 1, math.nan, math.inf):
        with pytest.raises(ValueError, match="factor"):
            cli.sweep_rows(1, 10, factor=factor)


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


def test_sweep_matches_golden_csv(tmp_path, capsys):
    # the headline 2^20 sweep, byte for byte as recorded in the benchmark
    golden = Path(__file__).resolve().parent.parent / "perfbench" / "golden_sweep.csv"
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--from", "1", "--to", "1048576", "--factor", "2",
        "--out", str(out),
    )
    assert code == 0
    assert out.read_bytes() == golden.read_bytes()


def test_sweep_rows_memory_is_bounded():
    # the float integrals hold one float64 block of 2**20 reciprocals (8 MiB)
    # and no int64 block beside it; the exact rows form W at those rows only
    cli.sweep_rows(1, 64, factor=2.0)  # first-call set-up outside the trace
    tracemalloc.start()
    try:
        rows = cli.sweep_rows(1, 2**20, factor=2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows[-1].s == 1740040811  # the N = 2**20 row of perfbench/golden_sweep.csv
    assert peak <= 9 * 2**20


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
    assert err.startswith("error: factor must be")


def test_sweep_factor_overflowing_float_prints_first_row(capsys):
    # 2 * 1e308 is inf: the grid stops there instead of failing to floor it
    code, out, err = run_cli(capsys, "sweep", "--from", "2", "--to", "10", "--factor", "1e308")
    assert code == 0 and err == ""
    assert out == run_cli(capsys, "sweep", "--from", "2", "--to", "10", "--factor", "1e300")[1]
    assert [line.split(",")[0] for line in out.splitlines()] == ["N", "2"]


@pytest.mark.parametrize("command", [["compute", "--n", "10"], ["sweep", "--from", "1", "--to", "9"]])
def test_rejects_budget_below_one(capsys, command):
    for budget in ("0", "-3"):
        code, out, err = run_cli(capsys, *command, "--budget", budget)
        assert code == 2
        assert "--budget" in err and out == ""


@pytest.mark.parametrize(
    "command",
    [
        ["compute", "--s-only", "--n"],
        ["compute", "--budget", str(minden.GRID_MAX_N + 1), "--n"],
        ["sweep", "--from", "1", "--factor", "2", "--to"],
    ],
)
def test_grid_size_over_int64_limit_exits_2(capsys, command):
    code, out, err = run_cli(capsys, *command, str(minden.GRID_MAX_N + 1))
    assert code == 2
    assert err.startswith("error:") and "GRID_MAX_N" in err and out == ""


def test_compute_over_pair_limit_exits_2(capsys, monkeypatch):
    # the pair limit is checked before the grid descent, which would run for
    # hours at this n and fails the test if it is reached
    def unreachable(*args):
        raise AssertionError("the grid descent ran before the pair limit was checked")

    monkeypatch.setattr(minden, "_descend_block", unreachable)
    n = str(sums.PAIRS_MAX_N + 1)
    code, out, err = run_cli(capsys, "compute", "--n", n, "--budget", n)
    assert code == 2
    assert err.startswith("error:") and "pair sums" in err and out == ""


@pytest.mark.parametrize("max_n", ["0", "-5"])
def test_verify_rejects_max_n_below_one(capsys, max_n):
    code, out, err = run_cli(capsys, "verify", "--suite", "variants", "--max-n", max_n)
    assert code == 2
    assert err.startswith("error: max_n must be") and "OK" not in out
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


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # main() keeps one parser per process: a failed parse or another
    # subcommand in between leaves the output of every later call unchanged
    commands = [
        ("compute", "--n", "1999"),
        ("compute", "--bogus"),
        ("compute", "--n", "1999"),
        ("sweep", "--from", "1", "--to", "40", "--factor", "2"),
        ("verify", "--suite", "variants", "--max-n", "5"),
    ]
    build, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    first = {}
    for argv in commands * 2:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        err = re.sub(r"in \d+\.\d\d s", "in _ s", err)  # verify's suite timings
        assert first.setdefault(argv, (code, out, err)) == (code, out, err), argv
    assert [first[argv][0] for argv in commands] == [0, 2, 0, 0, 0]
    assert built == [1]


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


def test_variant_sweep(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--from", "1", "--to", "8", "--variant", "open"
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        n_s, s_s = line.split(",")[:2]
        assert int(s_s) == sums.denominator_sum(int(n_s), "open")


def test_verify_stats_goes_to_stderr(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "variants", "--max-n", "20")
    assert code == 0
    assert out == "variants: 204 passed, 0 failed\nOK\n"
    head, *checks = err.splitlines()
    assert re.fullmatch(r"variants: 204 checks in \d+\.\d\d s", head)
    names = ["mirrored sum", "variant order", "open gap", "gap <= n tau(n)", "closed identity"]
    assert checks == ["  reflected sum: 80 passed, 0 failed"] + [
        f"  {name}: 20 passed, 0 failed" for name in names
    ] + ["  chained sum: 24 passed, 0 failed"]  # 4 variants x the 6 divisors of 20
