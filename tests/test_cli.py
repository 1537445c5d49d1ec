import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import guekit
from guekit.cli import (
    cmd_density,
    cmd_harer_zagier,
    cmd_moments,
    cmd_rosettes,
    cmd_sample,
    cmd_wilson,
    main,
)
from guekit.observables import wilson_loop
from guekit.records import OutputRecord, decode_cell, encode_cell


# ------------------------------------------------------------------- records

def test_cell_encoding():
    assert encode_cell(Fraction(3, 4)) == "3/4"
    assert encode_cell(Fraction(5, 1)) == "5"
    assert encode_cell(1.0) == "1.0"
    assert encode_cell(7) == "7"
    assert decode_cell("3/4") == Fraction(3, 4)
    assert decode_cell("5") == 5
    assert decode_cell("1.0") == 1.0
    assert isinstance(decode_cell("1.0"), float)
    assert decode_cell("sum") == "sum"


def test_csv_round_trip():
    rec = OutputRecord(
        "demo",
        {"N": 3, "tol": 1e-9, "coefficients": [Fraction(1, 54)]},
        ["a", "b", "c"],
        [[1, Fraction(9, 4), 0.1 + 0.2], ["sum", Fraction(7), -3.5e-17]],
    )
    back = OutputRecord.from_csv(rec.to_csv())
    assert back.command == rec.command
    assert back.parameters == rec.parameters
    assert back.columns == rec.columns
    assert back.rows == rec.rows
    # floats survive bit-exactly through the 17-digit rendering
    assert back.rows[0][2] == 0.1 + 0.2


def test_json_round_trip():
    rec = OutputRecord("demo", {"seed": 7}, ["x", "y"],
                       [[0.5, Fraction(1, 3)], [2, Fraction(4)]])
    back = OutputRecord.from_json(rec.to_json())
    assert back == OutputRecord("demo", {"seed": 7}, ["x", "y"],
                                [[0.5, Fraction(1, 3)], [2, 4]])
    assert back.rows[1][1] == Fraction(4)


def test_record_rejects_ragged_rows():
    with pytest.raises(ValueError):
        OutputRecord("demo", {}, ["a"], [[1, 2]])


def test_round_trip_on_random_tables():
    import random

    rng = random.Random(404)

    def random_cell():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randrange(-10**12, 10**12)
        if kind == 1:
            return rng.uniform(-1e6, 1e6) * 10.0 ** rng.randrange(-20, 20)
        if kind == 2:
            return Fraction(rng.randrange(-10**9, 10**9), rng.randrange(1, 10**6))
        return rng.choice(["sum", "label-x", "double_factorial"])

    for _ in range(25):
        cols = [f"c{i}" for i in range(rng.randrange(1, 5))]
        rows = [[random_cell() for _ in cols] for _ in range(rng.randrange(0, 6))]
        rec = OutputRecord("demo", {"seed": rng.randrange(1000)}, cols, rows)
        for back in (OutputRecord.from_csv(rec.to_csv()),
                     OutputRecord.from_json(rec.to_json())):
            assert back.columns == cols
            assert len(back.rows) == len(rows)
            for got, want in zip(back.rows, rows):
                for g, w in zip(got, want):
                    assert g == w  # floats bit-equal, rationals numerically equal


# ------------------------------------------------------------------ commands

def test_cmd_wilson_rows():
    rec = cmd_wilson(1, -2.0, 2.0, 5)
    ts = [row[0] for row in rec.rows]
    assert ts == [-2.0, -1.0, 0.0, 1.0, 2.0]
    values = {row[0]: row[1] for row in rec.rows}
    assert values[0.0] == 1.0
    assert values[1.0] == pytest.approx(math.exp(-0.5), rel=1e-14)


def test_cmd_wilson_root_and_coefficients():
    rec = cmd_wilson(2, 0.0, 2.0, 3)
    assert abs(rec.rows[-1][1]) <= 1e-15  # root of 1 - t^2/4 at t = 2
    rec3 = cmd_wilson(3, 0.0, 1.0, 2)
    assert rec3.parameters["coefficients"] == [Fraction(1), Fraction(1, 3), Fraction(1, 54)]
    assert "1/54" in rec3.to_csv()


def test_cmd_density_rows():
    rec = cmd_density(1, -3.0, 3.0, 7)
    mid = dict((row[0], (row[1], row[2])) for row in rec.rows)
    rho, wig = mid[0.0]
    assert rho == pytest.approx(0.3989422804014327, rel=1e-12)
    assert wig == pytest.approx(0.3183098861837907, rel=1e-12)
    for lam in [1.0, 2.0, 3.0]:
        assert mid[lam][0] == pytest.approx(mid[-lam][0], abs=1e-12)
    # Riemann sum over a wide grid lands near 1
    wide = cmd_density(2, -8.0, 8.0, 801)
    step = 16.0 / 800
    assert sum(row[1] for row in wide.rows) * step == pytest.approx(1.0, abs=1e-2)


def test_cmd_moments_rows():
    rec = cmd_moments(1, 4)
    from guekit.exact import double_factorial

    for row in rec.rows:
        l, moment, moment_float, cat = row
        assert moment == double_factorial(2 * l - 1)
        assert moment_float == float(moment)
    rec2 = cmd_moments(2, 2)
    assert rec2.rows[2][1] == Fraction(9, 4)
    assert rec2.rows[0][1] == 1


def test_cmd_rosettes_rows_and_footer():
    rec = cmd_rosettes(2)
    assert rec.rows[0] == [0, 2]
    assert rec.rows[1] == [1, 1]
    assert rec.rows[-2] == ["sum", 3]
    assert rec.rows[-1] == ["double_factorial", 3]
    rec3 = cmd_rosettes(3)
    assert rec3.rows[0][1] == 5 and rec3.rows[1][1] == 10
    # formula route keeps working beyond the enumeration budget
    rec12 = cmd_rosettes(12)
    assert rec12.rows[-2][1] == rec12.rows[-1][1]
    single = cmd_rosettes(4, genus=1)
    assert single.rows == [[1, 70]]


def test_cmd_harer_zagier_rows():
    rec = cmd_harer_zagier(1, 5)
    assert all(row[1] == 1 and row[2] == 1 for row in rec.rows)
    rec2 = cmd_harer_zagier(2, 3)
    assert rec2.rows[1][1] == Fraction(3, 4)
    assert all(row[1] == row[2] for row in rec2.rows)


def test_cmd_sample_rows():
    rec = cmd_sample(4, 500, 11, [0.0, 1.0])
    t0 = rec.rows[0]
    assert t0[1] == 1.0 and t0[4] == 0.0
    t1 = rec.rows[1]
    assert abs(t1[4]) <= 4.0  # z-score against the exact value


def test_cmd_sample_default_seed_claim():
    # published claim: with the default seed at N=8 and 1e4 samples, every
    # grid point sits within four standard errors of the exact value
    from guekit.verify import DEFAULT_SEED

    rec = cmd_sample(8, 10000, DEFAULT_SEED, [0.5 * k for k in range(1, 9)])
    assert all(abs(row[4]) <= 4.0 for row in rec.rows)


# ---------------------------------------------------------------- main + exit

def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_main_wilson_csv(capsys):
    code, out = run_main(capsys, ["wilson", "--N", "1", "--t-min", "0",
                                  "--t-max", "2", "--steps", "3"])
    assert code == 0
    rec = OutputRecord.from_csv(out)
    assert rec.command == "wilson"
    assert rec.rows[0] == [0.0, 1.0]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
def test_main_wilson_prints_coefficients_past_the_int_digit_limit(capsys):
    # the c_q denominators reach 4303 digits at N = 801 and 4422 at N = 820,
    # past Python's default 4300-digit int-to-str limit; main lifts the limit
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out = run_main(capsys, ["wilson", "--N", "820", "--steps", "2"])
        assert code == 0
        rec = OutputRecord.from_csv(out)
    finally:
        sys.set_int_max_str_digits(default)
    assert rec.parameters["coefficients"] == list(wilson_loop(820))
    assert [row[0] for row in rec.rows] == [0.0, 4.0]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
def test_main_leaves_the_int_digit_limit_as_it_found_it(capsys):
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for argv in (["moments", "--N", "3", "--l-max", "3"],
                     ["wilson", "--N", "820", "--steps", "2", "--format", "json"]):
            assert run_main(capsys, argv)[0] == 0
            assert sys.get_int_max_str_digits() == 4300, argv
    finally:
        sys.set_int_max_str_digits(default)


_PARSE_PROBE = """
import sys
from guekit.observables import wilson_loop
from guekit.records import OutputRecord

csv_path, json_path = sys.argv[1:]
want = list(wilson_loop(820))
assert OutputRecord.from_csv(open(csv_path).read()).parameters["coefficients"] == want
assert OutputRecord.from_json(open(json_path).read()).parameters["coefficients"] == want
assert sys.get_int_max_str_digits() == 4300
"""


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
def test_fresh_process_parses_coefficients_past_the_int_digit_limit(tmp_path):
    paths = [tmp_path / "wilson.csv", tmp_path / "wilson.json"]
    for path in paths:
        argv = ["wilson", "--N", "820", "--steps", "2", "--format", path.suffix[1:]]
        assert main([*argv, "--out", str(path)]) == 0
    src = str(Path(guekit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="4300", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", _PARSE_PROBE, *map(str, paths)], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_main_density_at_n40_is_positive(capsys):
    code, out = run_main(capsys, ["density", "--N", "40"])
    assert code == 0
    rec = OutputRecord.from_csv(out)
    assert len(rec.rows) == 121
    assert all(row[1] > 0 for row in rec.rows)


def test_main_json_format(capsys):
    code, out = run_main(capsys, ["moments", "--N", "2", "--l-max", "2",
                                  "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "moments"
    assert doc["rows"][2][1] == "9/4"


def test_main_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, _ = run_main(capsys, ["rosettes", "--l", "2", "--out", str(target)])
    assert code == 0
    rec = OutputRecord.from_csv(target.read_text())
    assert rec.rows[0] == [0, 2]


def test_main_out_file_that_cannot_be_opened_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "table.csv"
    assert main(["rosettes", "--l", "2", "--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["wilson", "--N", "3", "--t-min", "nan"],
    ["wilson", "--N", "3", "--t-max", "inf"],
    ["wilson", "--N", "3", "--t-min=-1e308", "--t-max", "1e308"],  # span overflows
    ["density", "--N", "3", "--lambda-min", "inf"],
    ["density", "--N", "3", "--lambda-max", "nan", "--steps", "1"],
    ["sample", "--N", "3", "--samples", "100", "--t", "nan"],
    ["sample", "--N", "3", "--samples", "100", "--t", "1.0", "--t", "inf"],
])
def test_main_rejects_non_finite_arguments(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("N, l_max, code", [(1, 151, 2), (3, 184, 2), (8, 224, 2),
                                            (1, 150, 0), (3, 183, 0), (8, 223, 0)])
def test_main_moments_refuses_a_float_column_that_overflows(capsys, N, l_max, code):
    # m_2l grows with l, so the float of m_{2 l_max} decides before any row is built
    assert main(["moments", "--N", str(N), "--l-max", str(l_max)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err.startswith("error: --l-max")
        assert captured.out == ""
    else:
        assert math.isfinite(OutputRecord.from_csv(captured.out).rows[-1][2])


def test_main_wilson_underflows_at_huge_t(capsys):
    code, out = run_main(capsys, ["wilson", "--N", "3", "--t-max", "1e200", "--steps", "2"])
    assert code == 0
    assert OutputRecord.from_csv(out).rows == [[0.0, 1.0], [1e200, 0.0]]


def test_main_rejects_invalid_n(capsys):
    code = main(["wilson", "--N", "0"])
    assert code == 2


def test_main_sample_deterministic(capsys):
    argv = ["sample", "--N", "2", "--samples", "300", "--seed", "5",
            "--t", "0.5", "--t", "1.5"]
    code1, out1 = run_main(capsys, argv)
    code2, out2 = run_main(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_main_verify_quick_suites(capsys):
    code, out = run_main(capsys, ["verify", "--suite", "wick", "--l-max", "4"])
    assert code == 0 and "PASS wick" in out
    code, out = run_main(capsys, ["verify", "--suite", "hz", "--l-max", "4"])
    assert code == 0 and "PASS hz" in out


def test_main_verify_budget_cannot_be_raised(capsys):
    code = main(["verify", "--suite", "wick", "--l-max", "9"])
    assert code == 2


def _reported(capsys, argv):
    """(exit code, [(operation, inputs)] of the JSON failure report) of main(argv)."""
    code, out = run_main(capsys, argv)
    doc = json.loads(out)
    return code, [(f["operation"], f["inputs"]) for f in doc["failures"]]


def _fails_once(operation, **inputs):
    """A suite that reports one failure naming `operation` and `inputs`."""
    def suite(*args, **kwargs):
        return [{"module": "test", "operation": operation, "inputs": inputs,
                 "expected": "", "actual": ""}]
    return suite


def _assert_no_child_left():
    # every worker verify or sample forked has been waited for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_main_verify_all_lowers_every_budget(capsys, monkeypatch):
    # under "all" the enumeration suites run in a forked worker, so each
    # recorder reports its budget as a failure rather than in a list here
    import guekit.verify as verify

    def recorder(name, top):
        def suite(budget=None, **kwargs):
            return _fails_once(name, budget=verify._cap(budget, top, "--l-max"))()
        return suite

    monkeypatch.setattr(verify, "suite_wick", recorder("wick", verify.WICK_L_MAX))
    monkeypatch.setattr(verify, "suite_initial", recorder("initial", verify.INITIAL_IDENTITY_EDGE_BUDGET))
    monkeypatch.setattr(verify, "suite_hz", recorder("hz", verify.HZ_P_MAX))
    for name in ("best", "density", "bound"):
        monkeypatch.setattr(verify, f"suite_{name}", lambda *a, **k: [])

    for flags, expected in [
        (["--l-max", "3"], [("wick", 3), ("initial", 3), ("hz", 3)]),
        (["--l-max", "5"], [("wick", 5), ("initial", 4), ("hz", 5)]),
        ([], [("wick", 7), ("initial", 4), ("hz", 7)]),
    ]:
        code, reported = _reported(capsys, ["verify", "--suite", "all", *flags])
        assert code == 1
        assert [(name, inputs["budget"]) for name, inputs in reported] == expected
    assert main(["verify", "--suite", "all", "--l-max", "8"]) == 2
    _assert_no_child_left()


def _stub_suites(monkeypatch, **suites):
    """Every verify suite passes at once, except those given."""
    import guekit.verify as verify

    for name in ("wick", "best", "initial", "hz", "density", "bound"):
        monkeypatch.setattr(verify, f"suite_{name}", suites.get(name, lambda *a, **k: []))


def test_main_verify_all_merges_the_worker_failures_in_suite_order(capsys, monkeypatch):
    # best and bound run in the worker, density here; the report keeps SUITES order
    _stub_suites(monkeypatch, best=_fails_once("best"), density=_fails_once("density"),
                 bound=_fails_once("bound"))
    code, reported = _reported(capsys, ["verify", "--suite", "all"])
    assert code == 1
    assert [name for name, _ in reported] == ["best", "density", "bound"]
    _assert_no_child_left()


def test_main_verify_all_reports_a_worker_usage_error(capsys, monkeypatch):
    def refuses(*args, **kwargs):
        raise ValueError("hz refuses")

    _stub_suites(monkeypatch, hz=refuses, density=_fails_once("density"))
    assert main(["verify", "--suite", "all"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: hz refuses\n"
    assert captured.out == ""
    _assert_no_child_left()


def test_main_verify_all_raises_the_first_error_in_suite_order(capsys, monkeypatch):
    # wick comes before density, so its error wins even if density raises first
    def refuses(name):
        def suite(*args, **kwargs):
            raise ValueError(f"{name} refuses")
        return suite

    _stub_suites(monkeypatch, wick=refuses("wick"), density=refuses("density"))
    assert main(["verify", "--suite", "all"]) == 2
    assert capsys.readouterr().err == "error: wick refuses\n"
    _stub_suites(monkeypatch, density=refuses("density"), bound=refuses("bound"))
    assert main(["verify", "--suite", "all"]) == 2
    assert capsys.readouterr().err == "error: density refuses\n"
    _assert_no_child_left()


def test_main_verify_all_fails_loudly_when_the_worker_dies(capsys, monkeypatch):
    def dies(*args, **kwargs):
        os._exit(1)

    _stub_suites(monkeypatch, best=dies)
    with pytest.raises(RuntimeError, match="status 1 before reporting suite 'best'"):
        main(["verify", "--suite", "all"])
    assert "PASS" not in capsys.readouterr().out
    _assert_no_child_left()


def test_main_verify_all_kills_the_worker_when_density_raises(monkeypatch):
    import time

    from guekit.exact import QuadratureError

    def diverges(*args, **kwargs):
        raise QuadratureError("diverges")

    def hangs(*args, **kwargs):
        time.sleep(60)
        return []

    _stub_suites(monkeypatch, density=diverges, bound=hangs)
    start = time.monotonic()
    with pytest.raises(QuadratureError, match="diverges"):
        main(["verify", "--suite", "all"])
    assert time.monotonic() - start < 30  # bound was killed, not waited out
    _assert_no_child_left()


@pytest.mark.parametrize("flag", [["--samples", "1"], ["--bins", "5"]])
def test_main_verify_all_refuses_histogram_flags_before_integrating(capsys, monkeypatch, flag):
    import guekit.verify as verify

    def integrates(*args, **kwargs):
        raise AssertionError("integrated before the histogram flags were checked")

    monkeypatch.setattr(verify, "integrate_real", integrates)
    assert main(["verify", "--suite", "all", *flag]) == 2
    assert capsys.readouterr().err.startswith("error: need at least")
    _assert_no_child_left()


needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                    reason="sample splits only where CPU affinity can be set")
# This process's affinity mask before any test ran: a `sample` run in this
# process, split or not, must leave it as it was.
MASK = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def _split_sample(monkeypatch):
    """Make `sample` split its samples over two processes although numpy
    has loaded here: both shares pinned to one CPU of this process's mask."""
    import guekit.cli as cli

    cpu = min(MASK)
    monkeypatch.setattr(cli, "_share_cpus", lambda: [cpu, cpu])


@needs_affinity
def test_main_sample_split_prints_the_one_share_bytes(capsys, monkeypatch):
    # 101 samples: this process draws 0 .. 49, the worker 50 .. 100
    import guekit.cli as cli

    argv = ["sample", "--N", "3", "--samples", "101", "--seed", "5"]
    code, one_share = run_main(capsys, argv)
    assert code == 0
    _split_sample(monkeypatch)
    drawn_here = []
    share = cli._eigenvalue_share

    def recorded(N, seed, start, stop, cpu):
        drawn_here.append((start, stop))  # lost in the worker, which is a fork
        return share(N, seed, start, stop, cpu)

    monkeypatch.setattr(cli, "_eigenvalue_share", recorded)
    code, split = run_main(capsys, argv)
    assert code == 0
    assert drawn_here == [(0, 50)]
    assert split == one_share
    _assert_no_child_left()
    assert os.sched_getaffinity(0) == MASK


@needs_affinity
@pytest.mark.parametrize("flags, error", [
    (["--N", "0"], "GUE sampling requires N >= 1, got 0"),
    (["--N", "3", "--samples", "99"], "need at least 100 samples, got 99"),
    (["--N", "0", "--samples", "99"], "need at least 100 samples, got 99"),
    (["--N", "3", "--t", "nan"], "--t must be finite, got nan"),
])
def test_main_sample_refuses_bad_flags_before_forking(capsys, monkeypatch, flags, error):
    _split_sample(monkeypatch)

    def no_fork():
        raise AssertionError("forked before the flags were checked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert main(["sample", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n"
    assert captured.out == ""
    _assert_no_child_left()
    assert os.sched_getaffinity(0) == MASK


@needs_affinity
def test_main_sample_fails_loudly_when_the_worker_dies(capsys, monkeypatch):
    import guekit.cli as cli

    _split_sample(monkeypatch)
    share = cli._eigenvalue_share

    def dies_in_worker(N, seed, start, stop, cpu):
        if start > 0:
            os._exit(1)
        return share(N, seed, start, stop, cpu)

    monkeypatch.setattr(cli, "_eigenvalue_share", dies_in_worker)
    with pytest.raises(RuntimeError,
                       match=r"status 1 before reporting the eigenvalues of samples 50 \.\. 100"):
        main(["sample", "--N", "3", "--samples", "101"])
    assert capsys.readouterr().out == ""
    _assert_no_child_left()
    assert os.sched_getaffinity(0) == MASK


@pytest.mark.parametrize("N", ["0", "-1"])
@pytest.mark.parametrize("command", ["wilson", "density", "moments", "harer-zagier", "sample"])
def test_main_rejects_matrix_size_below_one(capsys, command, N):
    assert main([command, "--N", N]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_main_verify_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_main_verify_reports_failures(capsys, monkeypatch):
    def broken(name, **kwargs):
        return [{"module": "demo", "operation": "op", "inputs": {},
                 "expected": "0", "actual": "1"}]

    monkeypatch.setattr("guekit.cli.run_suite", broken)
    code, out = run_main(capsys, ["verify", "--suite", "wick"])
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "FAIL"
    assert doc["failures"][0]["module"] == "demo"


# ------------------------------------------------------------ import boundary

_NUMPY_PROBE = """
import contextlib, io, sys
from guekit.cli import main

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # --help
            return exc.code

for argv in (["wilson", "--N", "3", "--steps", "3"], ["density", "--N", "3", "--steps", "3"],
             ["moments", "--N", "3"], ["rosettes", "--l", "4"], ["harer-zagier", "--N", "3"],
             ["--help"]):
    assert run(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
assert run(["sample", "--N", "2", "--samples", "100", "--t", "1.0"]) == 0
assert "numpy" in sys.modules
"""


def test_only_sample_imports_numpy():
    src = str(Path(guekit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", _NUMPY_PROBE], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


_FORK_PROBE = """
import contextlib, io, os, sys
from guekit.cli import main

numpy_at_fork = []
fork = os.fork

def recorded_fork():
    numpy_at_fork.append("numpy" in sys.modules)
    return fork()

os.fork = recorded_fork
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["sample", "--N", "2", "--samples", "100", "--t", "1.0"]) == 0
assert numpy_at_fork == [False], numpy_at_fork
assert os.sched_getaffinity(0) == set(map(int, sys.argv[1:]))
"""


@needs_affinity
@pytest.mark.skipif(MASK is not None and len(MASK) < 2, reason="splits only with two CPUs")
def test_fresh_sample_forks_its_worker_before_numpy_loads():
    # forked after numpy, the worker would inherit a BLAS pool sized for the whole mask
    src = str(Path(guekit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", _FORK_PROBE, *map(str, MASK)], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_package_serves_the_sampler_names():
    from guekit import SampleStats, estimate_density_histogram, estimate_wilson, sample_gue, zscore
    from guekit import montecarlo

    assert SampleStats is montecarlo.SampleStats
    assert estimate_density_histogram is montecarlo.estimate_density_histogram
    assert estimate_wilson is montecarlo.estimate_wilson
    assert sample_gue is montecarlo.sample_gue
    assert zscore is montecarlo.zscore
    with pytest.raises(AttributeError):
        guekit.no_such_name
