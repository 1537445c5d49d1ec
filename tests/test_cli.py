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
from guekit.observables import wilson_eval, wilson_loop
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


@pytest.mark.parametrize("cell", ["1/0", "-3/00", "+0/0"])
def test_a_zero_denominator_decodes_as_text(cell):
    assert decode_cell(cell) == cell
    assert decode_cell(cell.replace("/0", "/01")) == Fraction(cell.replace("/0", "/1"))
    rec = OutputRecord("demo", {"x": cell}, ["a"], [[cell]])
    for back in (OutputRecord.from_csv(rec.to_csv()), OutputRecord.from_json(rec.to_json())):
        assert back == rec


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


def test_csv_round_trip_of_a_numpy_float():
    np = pytest.importorskip("numpy")
    rec = OutputRecord("demo", {}, ["x"], [[np.float64(0.25)], [np.float64(0.1 + 0.2)]])
    back = OutputRecord.from_csv(rec.to_csv())
    assert back.rows == [[0.25], [0.1 + 0.2]]
    assert all(type(row[0]) is float for row in back.rows)


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


def test_record_keeps_the_dataclass_interface():
    first, second = OutputRecord("demo", {}, ["x"]), OutputRecord("demo", {}, ["x"])
    assert first.rows == [] and first.rows is not second.rows
    assert first == second and first != OutputRecord("demo", {}, ["y"])
    assert first != ("demo", {}, ["x"], [])
    record = OutputRecord(command="demo", parameters={"N": 2}, columns=["x"], rows=[[1]])
    assert repr(record) == ("OutputRecord(command='demo', parameters={'N': 2}, "
                            "columns=['x'], rows=[[1]])")


@pytest.mark.parametrize("text", [
    "",
    "x\n1\n",  # a bare table
    "# parameters: {}\n# command: demo\nx\n",  # the two comment lines swapped
    "# command: demo\n# parameters: {}\n",  # no header line
])
def test_from_csv_refuses_text_without_its_preamble(text):
    with pytest.raises(ValueError, match="^missing CSV preamble$"):
        OutputRecord.from_csv(text)


def test_render_refuses_an_unknown_format():
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        OutputRecord("demo", {}, ["x"], [[1]]).render("xml")


def test_json_hook_refuses_a_value_that_is_no_fraction():
    with pytest.raises(TypeError, match="^Object of type complex is not JSON serializable$"):
        OutputRecord("demo", {}, ["x"], [[1 + 2j]]).to_json()
    # the CSV preamble's parameters go through the same hook
    with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
        OutputRecord("demo", {"N": {3}}, ["x"]).to_csv()


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


@pytest.mark.parametrize("t_min, steps, reason", [
    (math.nan, 3, "^grid ends and their difference must be finite"),
    (0.0, 0, "^steps must be >= 1$"),
])
def test_cmd_wilson_refuses_a_bad_grid_before_it_builds_the_ladder(monkeypatch, t_min, steps,
                                                                   reason):
    import guekit.cli as cli

    def ladder(N):
        raise AssertionError("the exact ladder was built for a grid that is refused")

    monkeypatch.setattr(cli, "wilson_loop", ladder)
    with pytest.raises(ValueError, match=reason):
        cli.cmd_wilson(cli.WILSON_LADDER_N_BUDGET, t_min, 4.0, steps)


def test_main_wilson_grid_of_no_step_and_of_one(capsys):
    assert main(["wilson", "--N", "2", "--steps", "0"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: steps must be >= 1\n")
    # one step is the one point t_min; t_max is ignored
    code, out = run_main(capsys, ["wilson", "--N", "2", "--t-min", "1.5", "--steps", "1"])
    assert code == 0
    assert OutputRecord.from_csv(out).rows == [[1.5, wilson_eval(2, 1.5).real]]


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
    # the recursion's row keeps working beyond the enumeration budget
    rec12 = cmd_rosettes(12)
    assert rec12.rows[-2][1] == rec12.rows[-1][1]


def test_cmd_harer_zagier_rows():
    rec = cmd_harer_zagier(1, 5)
    assert all(row[1] == 1 and row[2] == 1 for row in rec.rows)
    rec2 = cmd_harer_zagier(2, 3)
    assert rec2.rows[1][1] == Fraction(3, 4)
    assert all(row[1] == row[2] for row in rec2.rows)


def test_cmd_harer_zagier_walks_the_recursion_once(monkeypatch):
    # the count column reads rows l = 0 .. p_max of one walk, so a table
    # costs what its last row costs
    import guekit.observables as observables

    drawn = []
    walk = observables._genus_rows

    def counted():
        for row in walk():
            drawn.append(row)
            yield row

    monkeypatch.setattr(observables, "_genus_rows", counted)
    assert len(cmd_harer_zagier(3, 40).rows) == 40
    assert len(drawn) <= 41


@pytest.mark.parametrize("N", [1, 3, 1000, 10**6])
def test_cmd_harer_zagier_columns_agree_at_the_budget(N):
    # the paper's identity: the series' coefficients are the genus counts'
    import guekit.cli as cli

    rows = cmd_harer_zagier(N, cli.HARER_ZAGIER_P_BUDGET).rows
    assert [row[0] for row in rows] == list(range(1, cli.HARER_ZAGIER_P_BUDGET + 1))
    for p, closed, rebuilt in rows:
        assert closed == rebuilt, (N, p)


def test_exact_tables_run_no_oracle(monkeypatch):
    # the tables read the Harer-Zagier recursion; the exponential formula and
    # the binomial moment sum are the oracles verify and the tests hold it to
    import guekit.cli as cli
    import guekit.exact as exact
    import guekit.observables as observables

    def oracle(*args):
        raise AssertionError("a table command ran an oracle")

    for module in (exact, observables, cli):
        for name in ("partition_term_sum", "rosette_count_formula", "moment_exact"):
            monkeypatch.setattr(module, name, oracle, raising=False)
    assert cmd_moments(8, 40).rows[40][0] == 40
    rows = cmd_rosettes(12).rows
    assert rows[-2][1] == rows[-1][1]
    assert all(row[1] == row[2] for row in cmd_harer_zagier(3, 20).rows)


def test_cmd_moments_at_the_largest_accepted_shape_equals_the_binomial_sum():
    from guekit.observables import moment_exact

    rows = cmd_moments(1000, 511).rows
    assert len(rows) == 512
    for l in (0, 1, 2, 60, 255, 511):
        assert rows[l][:2] == [l, moment_exact(1000, l)], l


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
    # the span overflows, as in the "--t-min=-1e308" form above
    ["wilson", "--N", "3", "--t-min", "-1e308", "--t-max", "1e308"],
    ["density", "--N", "3", "--lambda-min", "-1e308", "--lambda-max", "1e308"],
])
def test_main_rejects_non_finite_arguments(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["wilson", "--N", "1", "--t-min", "-1e200", "--t-max", "1e200", "--steps", "7"],
    ["wilson", "--N", "1", "--t-min", "-.5e1", "--steps", "3"],
    ["density", "--N", "2", "--lambda-min", "-1e5", "--lambda-max", "1", "--steps", "2"],
    ["sample", "--N", "4", "--samples", "100", "--t", "-1e-1"],
    # not finite: the grid refuses these in its own words, in either form
    ["wilson", "--N", "1", "--t-min", "-inf"],
    ["wilson", "--N", "1", "--t-min", "-Infinity"],
    ["density", "--N", "1", "--lambda-min", "-NaN"],
])
def test_float_flags_take_a_negative_number_with_an_exponent(capsys, argv):
    # argparse's own pattern for a negative number admits only "-1" and "-1.5"
    # forms; the space form of "-1e200" or "-inf" must read as a value all the same
    i = next(i for i, arg in enumerate(argv) if arg[:1] == "-" and arg[1:2] != "-")
    joined = [*argv[:i - 1], f"{argv[i - 1]}={argv[i]}", *argv[i + 1:]]

    def run(args):
        code = main(args)
        return code, *capsys.readouterr()

    code, out, err = run(argv)
    if math.isfinite(float(argv[i])):
        assert code == 0
    else:
        assert (code, out) == (2, "")
        assert err.startswith("error: grid ends and their difference must be finite, got ")
    assert run(joined) == (code, out, err)


@pytest.mark.parametrize("N, l_max, code", [(1, 151, 2), (3, 184, 2), (8, 224, 2),
                                            (1, 150, 0), (3, 183, 0), (8, 223, 0)])
def test_main_moments_refuses_a_float_column_that_overflows(capsys, N, l_max, code):
    # the first m_2l past float range refuses the table, and no row is printed
    assert main(["moments", "--N", str(N), "--l-max", str(l_max)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err.startswith("error: --l-max")
        assert captured.out == ""
    else:
        assert math.isfinite(OutputRecord.from_csv(captured.out).rows[-1][2])


def _capped(argv):
    """`python -m guekit.cli argv` in a new process that imports guekit from
    this checkout, with its address space capped at 1 GiB and 30 s to run."""
    resource = pytest.importorskip("resource")

    def cap():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        limit = 2**30 if hard == resource.RLIM_INFINITY else min(2**30, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    src = str(Path(guekit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "guekit.cli", *argv], env=env,
                          capture_output=True, timeout=30, preexec_fn=cap)


def test_fresh_moments_refuses_a_huge_l_max_at_once():
    # the refusal comes at the first row past float range, not after m_{2 l_max}
    result = _capped(["moments", "--N", "1", "--l-max", "1000000"])
    assert result.returncode == 2, result.stderr
    assert result.stderr == b"error: --l-max 1000000 takes m_2l past float range at N = 1\n"
    assert result.stdout == b""


def test_main_rosettes_refuses_an_l_past_its_budget(capsys, monkeypatch):
    import guekit.cli as cli

    def counts(*args):
        raise AssertionError("counted before the budget was checked")

    monkeypatch.setattr(cli, "moment_genus_expansion", counts)
    assert main(["rosettes", "--l", str(cli.ROSETTES_L_BUDGET + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: --l {cli.ROSETTES_L_BUDGET + 1} is past the budget of "
                            f"l <= {cli.ROSETTES_L_BUDGET}\n")
    assert captured.out == ""
    monkeypatch.undo()
    code, out = run_main(capsys, ["rosettes", "--l", str(cli.ROSETTES_L_BUDGET)])
    assert code == 0
    assert OutputRecord.from_csv(out).parameters["l"] == cli.ROSETTES_L_BUDGET


def test_main_harer_zagier_refuses_a_p_max_past_its_budget(capsys, monkeypatch):
    import guekit.cli as cli

    def series(*args):
        raise AssertionError("summed before the budget was checked")

    monkeypatch.setattr(cli, "harer_zagier_closed", series)
    p_max = cli.HARER_ZAGIER_P_BUDGET + 1
    assert main(["harer-zagier", "--N", "3", "--p-max", str(p_max)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: --p-max {p_max} is past the budget of "
                            f"p-max <= {cli.HARER_ZAGIER_P_BUDGET}\n")
    assert captured.out == ""
    monkeypatch.undo()
    code, out = run_main(capsys, ["harer-zagier", "--N", "3",
                                  "--p-max", str(cli.HARER_ZAGIER_P_BUDGET)])
    assert code == 0
    assert OutputRecord.from_csv(out).rows[-1][0] == cli.HARER_ZAGIER_P_BUDGET


@pytest.mark.parametrize("command, work", [("moments", "_moment_rows"),
                                           ("harer-zagier", "harer_zagier_closed")])
def test_main_exact_tables_refuse_an_n_past_the_moment_budget_before_any_work(
        capsys, monkeypatch, command, work):
    import guekit.cli as cli

    def summed(*args):
        raise AssertionError("summed before the budget was checked")

    monkeypatch.setattr(cli, work, summed)
    N = cli.MOMENT_N_BUDGET + 1
    assert main([command, "--N", str(N)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: --N {N} is past the budget of "
                            f"N <= {cli.MOMENT_N_BUDGET} for the exact moments\n")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["moments", "harer-zagier"])
def test_fresh_exact_tables_run_at_the_moment_budget_and_refuse_past_it(command):
    import guekit.cli as cli

    result = _capped([command, "--N", str(cli.MOMENT_N_BUDGET)])
    assert result.returncode == 0, result.stderr
    assert OutputRecord.from_csv(result.stdout.decode()).parameters["N"] == cli.MOMENT_N_BUDGET
    result = _capped([command, "--N", str(cli.MOMENT_N_BUDGET + 1)])
    assert result.returncode == 2
    assert result.stderr.startswith(b"error: --N ") and result.stderr.count(b"\n") == 1
    assert result.stdout == b""


def test_main_wilson_refuses_an_n_past_its_ladder_budget(capsys, monkeypatch):
    import guekit.cli as cli

    def ladder(*args):
        raise AssertionError("built the ladder before the budget was checked")

    monkeypatch.setattr(cli, "wilson_loop", ladder)
    N = cli.WILSON_LADDER_N_BUDGET + 1
    assert main(["wilson", "--N", str(N), "--steps", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --N {N} is past the budget of N <= 2000 for the exact ladder\n"
    assert captured.out == ""
    monkeypatch.undo()
    code, out = run_main(capsys, ["wilson", "--N", str(cli.WILSON_LADDER_N_BUDGET),
                                  "--steps", "2"])
    assert code == 0
    assert len(OutputRecord.from_csv(out).parameters["coefficients"]) == 2000


@pytest.mark.parametrize("command, evaluator", [("wilson", "wilson_eval"),
                                                ("density", "density_eval")])
@pytest.mark.parametrize("N, steps", [(1000, 4195), (1, 131073)])
def test_main_grid_commands_refuse_steps_past_their_work_budget(capsys, monkeypatch, command,
                                                                evaluator, N, steps):
    # N counts as at least 32: below it the per-point overhead sets the cost
    import guekit.cli as cli

    def evaluates(*args):
        raise AssertionError("evaluated before the budget was checked")

    monkeypatch.setattr(cli, evaluator, evaluates)
    monkeypatch.setattr(cli, "wilson_loop", evaluates)
    assert main([command, "--N", str(N), "--steps", str(steps)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: --N {N} with --steps {steps} is past the budget of "
                            f"max(N, 32) x steps <= 4194304\n")
    assert captured.out == ""
    assert max(N, 32) * (steps - 1) <= cli.GRID_WORK_BUDGET  # one step fewer is inside


@pytest.mark.parametrize("argv", [
    ["wilson", "--N", "1000", "--t-max", "40", "--steps", "4194"],
    ["density", "--N", "1", "--steps", "131072"],
])
def test_main_grid_commands_run_the_last_shape_inside_their_work_budget(capsys, argv):
    code, out = run_main(capsys, argv)
    assert code == 0
    assert len(OutputRecord.from_csv(out).rows) == int(argv[-1])


def test_main_wilson_underflows_at_huge_t(capsys):
    code, out = run_main(capsys, ["wilson", "--N", "3", "--t-max", "1e200", "--steps", "2"])
    assert code == 0
    assert OutputRecord.from_csv(out).rows == [[0.0, 1.0], [1e200, 0.0]]


def test_main_rejects_invalid_n(capsys):
    code = main(["wilson", "--N", "0"])
    assert code == 2


@pytest.mark.parametrize("argv, line", [
    (["moments", "--N", "0"], "N must be >= 1, got 0"),
    (["moments", "--N", "-3"], "N must be >= 1, got -3"),
    (["moments", "--N", "0", "--l-max", "-1"], "l-max must be >= 0"),
    (["rosettes", "--l", "0"], "l must be >= 1"),
    (["rosettes", "--l", "-1"], "l must be >= 1"),
    (["harer-zagier", "--N", "0"], "harer_zagier_closed requires N >= 1, p_max >= 1, got (0, 7)"),
])
def test_main_exact_tables_refuse_a_bad_shape(capsys, argv, line):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {line}\n")


def test_main_sample_deterministic(capsys):
    argv = ["sample", "--N", "2", "--samples", "300", "--seed", "5",
            "--t", "0.5", "--t", "1.5"]
    code1, out1 = run_main(capsys, argv)
    code2, out2 = run_main(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_main_verify_quick_suites(capsys):
    code, out = run_main(capsys, ["verify", "--suite", "wick"])
    assert code == 0 and "PASS wick" in out
    code, out = run_main(capsys, ["verify", "--suite", "hz"])
    assert code == 0 and "PASS hz" in out


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


needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                    reason="runs split only where CPU affinity can be set")
# This process's affinity mask before any test ran: a `verify` or `sample`
# run in this process, split or not, must leave it as it was.
MASK = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def _force_split(monkeypatch):
    """Make worker.run_beside split its tasks over two processes although
    numpy has loaded here: both pinned to one CPU of this process's mask."""
    import guekit.worker as worker

    cpu = min(MASK)
    monkeypatch.setattr(worker, "_split_cpus", lambda: [cpu, cpu])


def _stub_suites(monkeypatch, **suites):
    """Every verify suite passes at once, except those given."""
    import guekit.verify as verify

    for name in ("wick", "best", "initial", "hz", "bound", "density"):
        monkeypatch.setattr(verify, f"suite_{name}", suites.get(name, lambda *a, **k: []))


@needs_affinity
def test_main_verify_all_merges_the_worker_failures_in_suite_order(capsys, monkeypatch):
    # best and bound run in the worker, density here; the report keeps SUITES order
    _force_split(monkeypatch)
    _stub_suites(monkeypatch, best=_fails_once("best"), density=_fails_once("density"),
                 bound=_fails_once("bound"))
    code, reported = _reported(capsys, ["verify", "--suite", "all"])
    assert code == 1
    assert [name for name, _ in reported] == ["best", "bound", "density"]
    _assert_no_child_left()


@needs_affinity
def test_main_verify_all_runs_density_alone_here(capsys, monkeypatch):
    # wick, best, initial, hz and bound run in the forked worker; density,
    # the last suite and the one that loads numpy, alone in this process
    _force_split(monkeypatch)
    ran = []

    def reports_its_pid(name):
        def suite(*args, **kwargs):
            ran.append(name)
            return _fails_once(name, pid=os.getpid())()
        return suite

    names = ["wick", "best", "initial", "hz", "bound", "density"]
    _stub_suites(monkeypatch, **{name: reports_its_pid(name) for name in names})
    code, reported = _reported(capsys, ["verify", "--suite", "all"])
    assert code == 1
    assert [name for name, _ in reported] == names
    here = [name for name, inputs in reported if inputs["pid"] == os.getpid()]
    assert here == ran == ["density"]
    _assert_no_child_left()


@needs_affinity
def test_main_verify_all_reports_a_worker_usage_error(capsys, monkeypatch):
    _force_split(monkeypatch)

    def refuses(*args, **kwargs):
        raise ValueError("hz refuses")

    _stub_suites(monkeypatch, hz=refuses, density=_fails_once("density"))
    assert main(["verify", "--suite", "all"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: hz refuses\n"
    assert captured.out == ""
    _assert_no_child_left()


@needs_affinity
def test_main_verify_all_raises_the_first_error_in_suite_order(capsys, monkeypatch):
    # wick and bound come before density, so their error wins even if
    # density, here, raises first
    _force_split(monkeypatch)

    def refuses(name):
        def suite(*args, **kwargs):
            raise ValueError(f"{name} refuses")
        return suite

    _stub_suites(monkeypatch, wick=refuses("wick"), density=refuses("density"))
    assert main(["verify", "--suite", "all"]) == 2
    assert capsys.readouterr().err == "error: wick refuses\n"
    _stub_suites(monkeypatch, density=refuses("density"), bound=refuses("bound"))
    assert main(["verify", "--suite", "all"]) == 2
    assert capsys.readouterr().err == "error: bound refuses\n"
    _assert_no_child_left()


@needs_affinity
def test_main_verify_all_refuses_its_usage_errors_before_it_forks(capsys, monkeypatch):
    # each suite runs at the budget its module fixes, so verify takes no
    # budget flag: argparse refuses one before any suite runs
    _force_split(monkeypatch)

    def no_fork():
        raise OSError("verify forked before it refused its flags")

    monkeypatch.setattr(os, "fork", no_fork)
    for flag in (["--l-max", "3"], ["--samples", "100"], ["--bins", "20"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "all", *flag])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(flag)}\n")
    assert os.sched_getaffinity(0) == MASK


@needs_affinity
def test_main_verify_all_fails_loudly_when_the_worker_dies(capsys, monkeypatch):
    _force_split(monkeypatch)

    def dies(*args, **kwargs):
        os._exit(1)

    _stub_suites(monkeypatch, best=dies)
    with pytest.raises(RuntimeError, match="status 1 before reporting suite 'best'"):
        main(["verify", "--suite", "all"])
    assert "PASS" not in capsys.readouterr().out
    _assert_no_child_left()


@needs_affinity
def test_main_verify_all_kills_the_worker_when_density_raises(monkeypatch):
    # density's error, here, outranks the failures the worker reports; killing
    # a worker that still hangs when this process's task is interrupted is
    # covered by test_run_beside_restores_the_mask_and_reaps_the_child_on_every_path
    from guekit.exact import QuadratureError

    _force_split(monkeypatch)

    def diverges(*args, **kwargs):
        raise QuadratureError("diverges")

    _stub_suites(monkeypatch, density=diverges, bound=_fails_once("bound"))
    with pytest.raises(QuadratureError, match="diverges"):
        main(["verify", "--suite", "all"])
    _assert_no_child_left()


def _refuses(name):
    """A suite that raises a ValueError naming `name`."""
    def suite(*args, **kwargs):
        raise ValueError(f"{name} refuses")
    return suite


@needs_affinity
def test_verify_all_runs_in_turn_once_numpy_has_loaded(monkeypatch):
    # numpy has loaded in this process, as for a library caller, so "all"
    # runs every suite here, in SUITES order, and reports and raises as the
    # forced split does
    import numpy  # noqa: F401

    import guekit.verify as verify

    def outcomes():
        _stub_suites(monkeypatch, best=_fails_once("best"), density=_fails_once("density"),
                     bound=_fails_once("bound"))
        failures = [failure["operation"] for failure in verify.run_suite("all")]
        errors = []
        for raising in [("wick", "density"), ("bound", "density"), ("hz",)]:
            _stub_suites(monkeypatch, **{name: _refuses(name) for name in raising})
            with pytest.raises(ValueError) as exc:
                verify.run_suite("all")
            errors.append(str(exc.value))
        return failures, errors

    def no_fork():
        raise AssertionError("forked with numpy loaded")

    fork = os.fork
    monkeypatch.setattr(os, "fork", no_fork)
    in_turn = outcomes()
    assert os.sched_getaffinity(0) == MASK
    monkeypatch.setattr(os, "fork", fork)
    _force_split(monkeypatch)
    assert outcomes() == in_turn == (["best", "bound", "density"],
                                     ["wick refuses", "bound refuses", "hz refuses"])
    _assert_no_child_left()


@needs_affinity
def test_run_beside_restores_the_mask_and_reaps_the_child_on_every_path(monkeypatch):
    import time

    from guekit.worker import run_beside

    _force_split(monkeypatch)

    def where():
        return os.getpid(), os.sched_getaffinity(0)

    # results in task order: the last, "c", here, "a" and "b" in the child
    child, child_again, here = run_beside({"a": where, "b": where, "c": where})
    assert here == (os.getpid(), {min(MASK)})
    assert child == child_again and child[0] != os.getpid() and child[1] == {min(MASK)}
    assert os.sched_getaffinity(0) == MASK

    def hangs():
        time.sleep(60)

    def interrupted():
        raise KeyboardInterrupt  # not an Exception, so it leaves at once

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_beside({"there": hangs, "here": interrupted})
    assert time.monotonic() - start < 30  # the child was killed, not waited out
    assert os.sched_getaffinity(0) == MASK
    _assert_no_child_left()

    # an Exception here waits for the child's earlier tasks, and the first
    # in task order to raise raises, as in turn
    def slow_refusal():
        time.sleep(0.2)
        raise ValueError("there refuses")

    for there, error in [(slow_refusal, "there refuses"), (list, "here refuses")]:
        with pytest.raises(ValueError, match=error):
            run_beside({"there": there, "here": _refuses("here")})
        assert os.sched_getaffinity(0) == MASK
        _assert_no_child_left()

    def dies():
        os._exit(3)

    with pytest.raises(RuntimeError, match="worker exited with status 3 before reporting there"):
        run_beside({"there": dies, "here": list})
    assert os.sched_getaffinity(0) == MASK
    _assert_no_child_left()


@needs_affinity
def test_main_sample_split_prints_the_one_share_bytes(capsys, monkeypatch):
    # 101 samples: this process draws the last task's 50 .. 100, the worker 0 .. 49
    import guekit.montecarlo as montecarlo

    argv = ["sample", "--N", "3", "--samples", "101", "--seed", "5"]
    code, one_share = run_main(capsys, argv)
    assert code == 0
    _force_split(monkeypatch)
    drawn_here = []
    draw = montecarlo.eigenvalue_range

    def recorded(N, seed, start, stop):
        drawn_here.append((start, stop))  # lost in the worker, which is a fork
        return draw(N, seed, start, stop)

    monkeypatch.setattr(montecarlo, "eigenvalue_range", recorded)
    code, split = run_main(capsys, argv)
    assert code == 0
    assert drawn_here == [(50, 101)]
    assert split == one_share
    _assert_no_child_left()
    assert os.sched_getaffinity(0) == MASK


@needs_affinity
@pytest.mark.parametrize("flags, error", [
    (["--N", "0"], "GUE sampling requires N >= 1, got 0"),
    (["--N", "3", "--samples", "99"], "need at least 100 samples, got 99"),
    (["--N", "0", "--samples", "99"], "need at least 100 samples, got 99"),
    (["--N", "3", "--t", "nan"], "--t must be finite, got nan"),
    (["--N", "64", "--samples", "2049"], "--N 64 with --samples 2049 is past the budget "
                                         "of max(N, 32)^3 x samples <= 536870912"),
    (["--N", "1", "--samples", "16385"], "--N 1 with --samples 16385 is past the budget "
                                         "of max(N, 32)^3 x samples <= 536870912"),
    # taken modulo 2^64, a seed outside the Philox key word drew another seed's samples
    (["--N", "2", "--seed", str(2**64 + 1), "--t", "1"],
     f"seed must be in 0 .. 2^64 - 1, got {2**64 + 1}"),
    (["--N", "2", "--seed", str(2**64)], f"seed must be in 0 .. 2^64 - 1, got {2**64}"),
    (["--N", "2", "--seed", "-5"], "seed must be in 0 .. 2^64 - 1, got -5"),
])
def test_main_sample_refuses_bad_flags_before_forking(capsys, monkeypatch, flags, error):
    _force_split(monkeypatch)

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
@pytest.mark.parametrize("suite, seed", [("bound", -3), ("bound", -1), ("density", 2**64),
                                         ("all", -1)])
def test_main_verify_refuses_a_seed_outside_the_philox_key_word_before_it_runs(
        capsys, monkeypatch, suite, seed):
    # bound's random.Random seeded by the absolute value, so -3 drew the points of 3
    _force_split(monkeypatch)

    def no_run(*args, **kwargs):
        raise AssertionError("ran before the seed was checked")

    monkeypatch.setattr(os, "fork", no_run)
    _stub_suites(monkeypatch, **{name: no_run for name in
                                 ("wick", "best", "initial", "hz", "density", "bound")})
    assert main(["verify", "--suite", suite, "--seed", str(seed)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: seed must be in 0 .. 2^64 - 1, got {seed}\n")
    assert os.sched_getaffinity(0) == MASK


def test_main_takes_the_ends_of_the_seed_range(capsys):
    import guekit.montecarlo as montecarlo

    for seed in (0, 2**64 - 1):
        code, out = run_main(capsys, ["sample", "--N", "2", "--samples", "100",
                                      "--seed", str(seed), "--t", "1"])
        assert code == 0
        rec = OutputRecord.from_csv(out)
        assert rec.parameters["seed"] == seed
        [st] = montecarlo.estimate_wilson(2, [1.0], 100, seed)
        assert rec.rows[0][1:3] == [st.mean, st.std_error]
        assert main(["verify", "--suite", "bound", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out == "PASS bound\n"


@needs_affinity
def test_main_sample_refuses_a_t_past_float_range_with_a_drawn_eigenvalue(capsys, monkeypatch):
    # t lambda overflows for some draws at t = 1e308, which made the mean NaN
    # beside a z-score of 0.0; the overflow depends on the draw, so it is
    # refused after it, split or in turn, with no numpy warning
    argv = ["sample", "--N", "2", "--samples", "100"]
    for split in (False, True):
        if split:
            _force_split(monkeypatch)
        for t in ("1e308", "-1e308"):
            for out_format in ("csv", "json"):
                assert main([*argv, "--t", "1.0", "--t", t, "--format", out_format]) == 2
                captured = capsys.readouterr()
                assert captured.err == (f"error: --t {float(t)} times a drawn eigenvalue "
                                        f"is past float range\n")
                assert captured.out == ""
        code, out = run_main(capsys, [*argv, "--t", "1e300"])
        assert code == 0
        assert all(math.isfinite(value) for value in OutputRecord.from_csv(out).rows[0])
    _assert_no_child_left()
    assert os.sched_getaffinity(0) == MASK


def test_main_sample_runs_the_last_shape_inside_its_budget(capsys):
    # N counts as at least 32 in the budget, so N = 1 takes as many samples as N = 32
    import guekit.cli as cli

    samples = cli.SAMPLE_WORK_BUDGET // 32**3
    code, out = run_main(capsys, ["sample", "--N", "1", "--samples", str(samples), "--t", "1.0"])
    assert code == 0
    assert OutputRecord.from_csv(out).parameters["samples"] == samples == 16384


@needs_affinity
def test_main_sample_fails_loudly_when_the_worker_dies(capsys, monkeypatch):
    import guekit.montecarlo as montecarlo

    _force_split(monkeypatch)
    draw = montecarlo.eigenvalue_range

    def dies_in_worker(N, seed, start, stop):
        if start < 50:
            os._exit(1)
        return draw(N, seed, start, stop)

    monkeypatch.setattr(montecarlo, "eigenvalue_range", dies_in_worker)
    with pytest.raises(RuntimeError,
                       match=r"status 1 before reporting the eigenvalues of samples 0 \.\. 49"):
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

# A fresh interpreter that runs the table commands in-process; `bare` holds
# the modules it had loaded before guekit.
_TABLE_PROBE = """
import sys
bare = set(sys.modules)
import contextlib, io
from guekit.cli import main

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # --help
            return exc.code

TABLES = (["wilson", "--N", "3", "--steps", "3"], ["density", "--N", "3", "--steps", "3"],
          ["moments", "--N", "3"], ["rosettes", "--l", "4"], ["harer-zagier", "--N", "3"],
          ["--help"])
"""

_NUMPY_PROBE = _TABLE_PROBE + """
for argv in TABLES:
    assert run(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
import guekit.montecarlo
assert "numpy" not in sys.modules
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


def _fresh(args, stdout=subprocess.PIPE, env=None):
    """This Python run on `args` in a new process that imports guekit from
    this checkout; `env` adds variables to the environment (None removes one)."""
    src = str(Path(guekit.__file__).resolve().parent.parent)
    environ = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for name, value in (env or {}).items():
        if value is None:
            environ.pop(name, None)
        else:
            environ[name] = value
    return subprocess.run([sys.executable, *args], env=environ, stdout=stdout,
                          stderr=subprocess.PIPE)


# dataclasses, inspect and typing count only where the bare interpreter lacks them
_IMPORT_PROBE = _TABLE_PROBE + """
unneeded = {"numpy", "pickle", "guekit.montecarlo", "guekit.worker"}
unneeded |= {"dataclasses", "inspect", "typing"} - bare
for argv in TABLES:
    assert run(argv) == 0, argv
    loaded = sorted(m for m in sys.modules
                    if m in unneeded or m == "guekit.maps" or m.startswith("guekit.maps."))
    assert loaded == [], (argv, loaded)
"""


def test_table_commands_load_only_their_modules():
    # neither the enumeration oracles, the sampler and its worker, nor what they
    # import; under -S no site hook has loaded typing before guekit
    for flags in ([], ["-S"]):
        result = _fresh([*flags, "-c", _IMPORT_PROBE])
        assert result.returncode == 0, result.stderr.decode()


def test_importing_the_package_loads_none_of_its_modules():
    probe = """
import sys
import guekit
loaded = sorted(m for m in sys.modules if m.startswith("guekit."))
assert loaded == [], loaded
assert [name for name in vars(guekit) if not name.startswith("_")] == [], vars(guekit)
"""
    result = _fresh(["-c", probe])
    assert result.returncode == 0, result.stderr.decode()


# bound draws nothing, and wick runs the enumeration oracles, whose
# dataclasses it loads; neither loads the sampler, its worker or pickle
_SUITE_PROBE = _TABLE_PROBE + """
for suite, unneeded in (("bound", {"dataclasses", "inspect"} - bare), ("wick", set())):
    assert run(["verify", "--suite", suite]) == 0, suite
    unneeded |= {"guekit.montecarlo", "guekit.worker", "pickle", "numpy"}
    loaded = sorted(m for m in sys.modules if m in unneeded)
    assert loaded == [], (suite, loaded)
"""


def test_verify_bound_and_wick_load_no_sampler():
    result = _fresh(["-c", _SUITE_PROBE])
    assert result.returncode == 0, result.stderr.decode()


# A fresh interpreter that runs the command in argv[1] in-process and
# checks the split: one fork, before numpy loads; the child pinned to one
# CPU, this process to another when it loads numpy; the mask in argv[2:]
# restored and no child left.  It prints the command's stdout.
_FORK_PROBE = """
import contextlib, io, os, sys
from guekit.cli import main

numpy_at_fork, masks_at_numpy = [], []
fork = os.fork
read_fd, write_fd = os.pipe()

def recorded_fork():
    numpy_at_fork.append("numpy" in sys.modules)
    pid = fork()
    if pid == 0:  # the child's mask, before it runs a task
        os.write(write_fd, " ".join(map(str, sorted(os.sched_getaffinity(0)))).encode() + b"\\n")
    return pid

class NumpyLoads:  # asked for numpy until it has loaded
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            masks_at_numpy.append(sorted(os.sched_getaffinity(0)))

os.fork = recorded_fork
sys.meta_path.insert(0, NumpyLoads())
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(sys.argv[1].split()) == 0
os.close(write_fd)
with open(read_fd) as fh:
    child_masks = [list(map(int, line.split())) for line in fh.read().splitlines()]
assert numpy_at_fork == [False], numpy_at_fork
assert len(child_masks) == 1 and len(child_masks[0]) == 1, child_masks
assert len(masks_at_numpy) == 1 and len(masks_at_numpy[0]) == 1, masks_at_numpy
assert child_masks != masks_at_numpy, (child_masks, masks_at_numpy)
assert os.sched_getaffinity(0) == set(map(int, sys.argv[2:]))
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:  # every child has been waited for
    pass
else:
    raise AssertionError("a forked child is left")
print(out.getvalue(), end="")
"""


def _fresh_split(command):
    """stdout of the split probe run on `command` in a new process."""
    result = _fresh(["-c", _FORK_PROBE, command, *map(str, MASK)])
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


needs_two_cpus = pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(MASK) < 2,
                                    reason="splits only with two CPUs")


@needs_two_cpus
def test_fresh_sample_forks_its_worker_before_numpy_loads():
    # forked after numpy, the worker would inherit a BLAS pool sized for the whole mask
    out = _fresh_split("sample --N 2 --samples 100 --t 1.0")
    assert out.startswith(b"# command: sample\n")


@needs_two_cpus
def test_fresh_verify_all_forks_its_worker_before_numpy_loads():
    assert _fresh_split("verify --suite all") == b"PASS all\n"


@needs_two_cpus
def test_fresh_verify_density_forks_its_worker_before_numpy_loads():
    # the suite's histogram draws its samples through the sampler's split
    assert _fresh_split("verify --suite density") == b"PASS density\n"


def test_package_serves_the_oracle_names_and_the_closed_forms_once():
    import guekit.exact as exact
    import guekit.maps as maps
    import guekit.maps.bijection as bijection
    import guekit.maps.multigraph as multigraph
    import guekit.maps.rosettes as rosettes
    import guekit.montecarlo as montecarlo
    import guekit.observables as observables
    import guekit.records as records

    # the closed forms are the observables ones; the two the acceptance tests
    # read from maps.rosettes are too
    for name in ("rosette_count_formula", "harer_zagier_closed", "harer_zagier_from_counts"):
        assert not hasattr(maps, name), name
    for name in ("rosette_count_formula", "harer_zagier_closed"):
        assert getattr(rosettes, name) is getattr(observables, name), name
    # every name is read from the module that defines it, neither from the
    # package nor from guekit.maps
    def defined(*modules):
        return {name for module in modules for name, value in vars(module).items()
                if not name.startswith("_")
                and getattr(value, "__module__", None) == module.__name__}

    oracles = defined(bijection, multigraph, rosettes)
    assert {"rosette_census", "Multigraph", "best_forward"} <= oracles
    library = defined(exact, observables, records, montecarlo)
    assert {"integrate_real", "moment_genus_expansion", "OutputRecord",
            "estimate_wilson"} <= library
    assert not hasattr(maps, "__all__")
    for name in oracles:
        assert not hasattr(maps, name), name
    for name in oracles | library:
        assert not hasattr(guekit, name), name
    with pytest.raises(AttributeError):
        guekit.no_such_name


def test_importing_maps_loads_its_three_modules_and_re_exports_none_of_their_names():
    # the benchmark's tracer imports guekit.maps.rosettes and then reads the
    # other two submodules from sys.modules
    probe = """
import sys
import guekit.maps as maps
for sub in ("bijection", "multigraph", "rosettes"):
    assert getattr(maps, sub) is sys.modules["guekit.maps." + sub], sub
public = {name for name in vars(maps) if not name.startswith("_")}
assert public == {"bijection", "multigraph", "rosettes"}, sorted(public)
"""
    result = _fresh(["-c", probe])
    assert result.returncode == 0, result.stderr.decode()


# -------------------------------------------------------------- process exit

# `python -m guekit.cli ARGS` with os._exit checked: it leaves with status 3
# if a forked worker is still running or unwaited for, and the process
# leaves with status 4 if the CLI ends any way but through os._exit.
_EXIT_PROBE = """
import os, runpy

_exit = os._exit

def exit_with_no_child_left(code):
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child process at all
        _exit(code)
    _exit(3)

os._exit = exit_with_no_child_left
try:
    runpy.run_module("guekit.cli", run_name="__main__", alter_sys=True)
finally:
    _exit(4)
"""


@pytest.mark.parametrize("argv, stdout_start", [
    (["verify", "--suite", "all"], b"PASS all\n"),
    (["sample", "--N", "2", "--samples", "100", "--t", "1.0"], b"# command: sample\n"),
    (["rosettes", "--l", "4"], b"# command: rosettes\n"),
    (["--help"], b"usage: guekit"),
    # the command line of perfbench's verify workload, which sets --seed
    (["verify", "--suite", "all", "--seed", "7"], b"PASS all\n"),
])
def test_fresh_cli_leaves_through_os_exit_with_no_child_left(argv, stdout_start):
    result = _fresh(["-c", _EXIT_PROBE, *argv])
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.startswith(stdout_start)


@pytest.mark.parametrize("argv", [
    ["moments", "--N", "x"],  # argparse
    ["rosettes", "--l", "0"],  # a command's ValueError
    ["verify", "--suite", "hz", "--l-max", "8"],  # argparse: verify takes no budget flag
    ["rosettes", "--l", "5", "--g", "1"],  # argparse: rosettes prints every genus
])
def test_fresh_cli_usage_error_exits_2(argv):
    result = _fresh(["-c", _EXIT_PROBE, *argv])
    assert result.returncode == 2
    assert result.stdout == b""
    assert b"error: " in result.stderr.splitlines()[-1]
    if argv[-2] in ("--l-max", "--g"):
        assert result.stderr.splitlines()[-1].endswith(
            b"error: unrecognized arguments: " + " ".join(argv[-2:]).encode())


def test_fresh_cli_writes_the_whole_table_to_out_file(tmp_path):
    argv = ["density", "--N", "8", "--lambda-min", "-3", "--lambda-max", "3", "--steps", "241"]
    target = tmp_path / "density.csv"
    result = _fresh(["-c", _EXIT_PROBE, *argv, "--out", str(target)])
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == b""
    assert target.read_bytes() == (Path(__file__).parent / "golden" / "density.csv").read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["moments", "--N", "3"], ["verify", "--suite", "hz"]])
@pytest.mark.parametrize("unbuffered, code", [("1", 1), (None, 120)])
def test_fresh_cli_reports_a_full_stdout(argv, unbuffered, code):
    # unbuffered, the write in main raises (a traceback, status 1); buffered,
    # the flush before os._exit fails, and sys.exit leaves the error to the
    # interpreter's own flush at shutdown (status 120)
    with open("/dev/full", "w") as full:
        result = _fresh(["-m", "guekit.cli", *argv], stdout=full,
                        env={"PYTHONUNBUFFERED": unbuffered})
    assert result.returncode == code
    assert b"No space left on device" in result.stderr
