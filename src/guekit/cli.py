"""Command-line interface: tables for every observable plus the verify suites.

Exit codes: 0 success, 1 verification/tolerance failure, 2 usage error.
All commands are deterministic given their full flag set; `sample` uses a
documented default seed so published numbers are reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from .exact import catalan, double_factorial
from .observables import (
    _moment_rows,
    density_eval,
    harer_zagier_closed,
    harer_zagier_from_counts,
    moment_genus_expansion,
    wigner_density,
    wilson_eval,
    wilson_loop,
)
from .records import OutputRecord
from .verify import DEFAULT_SEED, SUITES, run_suite


def refuse_past(used, budget, shape, rule, note=""):
    """Refuse, as a usage error, a command whose `used` is past `budget`:
    "<shape> is past the budget of <rule> <= <budget><note>"."""
    if used > budget:
        raise ValueError(f"{shape} is past the budget of {rule} <= {budget}{note}")


# The largest `wilson --N`: the table's parameters carry the exact ladder,
# O(N^2 log N) bytes, and CPython's str(int) is quadratic.  From a fresh
# process `wilson --N N --steps 3` takes about 0.3 s at N = 1000, 0.7 s at
# 1500 and 1.8 s at 2000 (6 s at 3000).
WILSON_LADDER_N_BUDGET = 2000
# The largest max(N, 32) x steps of `wilson` and `density`: each grid point
# runs N Python steps, and below N = 32 the per-point overhead sets the
# cost (about 10 us a point at N = 1).  From a fresh process N = 1000 with
# 4194 steps takes about 0.9 s, and N = 32 with 131072 steps about 1.2 s
# (`wilson`) and 2.2 s (`density`).
GRID_WORK_BUDGET = 2**22


def _check_grid_work(N: int, steps: int) -> None:
    refuse_past(max(N, 32) * steps, GRID_WORK_BUDGET, f"--N {N} with --steps {steps}",
                "max(N, 32) x steps")


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not math.isfinite(hi - lo):  # nan or inf at either end, or a span past float range
        raise ValueError(f"grid ends and their difference must be finite, got {lo} and {hi}")
    if steps == 1:
        return [lo]
    return [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]


def cmd_wilson(N: int, t_min: float, t_max: float, steps: int) -> OutputRecord:
    refuse_past(N, WILSON_LADDER_N_BUDGET, f"--N {N}", "N", " for the exact ladder")
    _check_grid_work(N, steps)
    grid = _grid(t_min, t_max, steps)  # a bad grid is refused before the ladder is built
    params = {
        "N": N, "t_min": t_min, "t_max": t_max, "steps": steps,
        "coefficients": list(wilson_loop(N)),
    }
    rows = [[t, wilson_eval(N, t)] for t in grid]
    return OutputRecord("wilson", params, ["t", "wilson_loop"], rows)


def cmd_density(N: int, lam_min: float, lam_max: float, steps: int) -> OutputRecord:
    _check_grid_work(N, steps)
    rows = [
        [lam, density_eval(N, lam), wigner_density(lam)]
        for lam in _grid(lam_min, lam_max, steps)
    ]
    params = {"N": N, "lambda_min": lam_min, "lambda_max": lam_max, "steps": steps}
    return OutputRecord("density", params, ["lambda", "density", "wigner"], rows)


# The largest `--N` of `moments` and `harer-zagier`: each exact m_2l is a
# sum over N^{-2g}, so both tables grow with the digits of N.  From a fresh
# process `moments --l-max 519`, the slower of the two, takes about 0.3 s
# at N = 10^6, 1.1-1.3 s at 10^18 and 1.7-1.9 s at 10^24 (2.8-3.1 s at
# 10^30, 25 s at 10^100); `harer-zagier --p-max 300` about half as long.
MOMENT_N_BUDGET = 10**24


def _check_moment_n(N: int) -> None:
    refuse_past(N, MOMENT_N_BUDGET, f"--N {N}", "N", " for the exact moments")


def cmd_moments(N: int, l_max: int) -> OutputRecord:
    if l_max < 0:
        raise ValueError("l-max must be >= 0")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    _check_moment_n(N)
    rows = []
    try:  # nothing renders before this returns, so a refusal prints no row
        for l, m in zip(range(l_max + 1), _moment_rows(N)):
            rows.append([l, m, float(m), catalan(l)])
    except OverflowError:
        raise ValueError(f"--l-max {l_max} takes m_2l past float range at N = {N}") from None
    return OutputRecord("moments", {"N": N, "l_max": l_max},
                        ["l", "moment", "moment_float", "catalan"], rows)


# The largest `rosettes --l`: the table builds every row of the recursion
# up to l, and C_g(l) has thousands of digits there.  From a fresh process
# l = 1400 takes about 1.5-1.9 s, l = 1500 about 1.8-2.4 s and l = 1700
# about 3.5 s.
ROSETTES_L_BUDGET = 1500


def cmd_rosettes(l: int) -> OutputRecord:
    if l < 1:
        raise ValueError("l must be >= 1")
    refuse_past(l, ROSETTES_L_BUDGET, f"--l {l}", "l")
    counts = moment_genus_expansion(l)
    rows: list[list] = [[g, c] for g, c in enumerate(counts)]
    rows.append(["sum", sum(counts)])
    rows.append(["double_factorial", double_factorial(2 * l - 1)])
    return OutputRecord("rosettes", {"l": l}, ["g", "count"], rows)


# The largest `harer-zagier --p-max`: the count column is one walk of the
# recursion's rows up to p_max, and both columns grow with the digits of N,
# up to MOMENT_N_BUDGET.  From a fresh process p = 300 takes about 0.09 s
# at N = 3, 0.17 s at N = 1000, 0.22 s at N = 10^6 and 0.8-1.0 s at 10^24.
HARER_ZAGIER_P_BUDGET = 300


def cmd_harer_zagier(N: int, p_max: int) -> OutputRecord:
    refuse_past(p_max, HARER_ZAGIER_P_BUDGET, f"--p-max {p_max}", "p-max")
    _check_moment_n(N)
    # the closed form runs first, so its words refuse a bad N or p_max
    columns = zip(harer_zagier_closed(N, p_max), harer_zagier_from_counts(N, p_max))
    rows = [[p, *pair] for p, pair in enumerate(columns, 1)]
    return OutputRecord("harer-zagier", {"N": N, "p_max": p_max},
                        ["p", "series_coefficient", "from_rosette_counts"], rows)


# The largest max(N, 32)^3 x samples of `sample`'s draw.  Its eigvalsh work
# grows as N^3 x samples; below N = 32 the per-sample Philox set-up and
# assembly set the cost, and N^3 alone would let N = 1 through with 2^29
# samples.  At the budget's edges `sample` takes, from a fresh process on a
# 2-core AVX-512 Xeon (median of 5), 2.0 s at N = 32 with 16384 samples,
# 1.0 s at N = 64 with 2048 and 0.55 s at N = 128 with 256; N = 128 with
# 2000 samples, about 8 times the budget, takes 3.3 s through estimate_wilson.
SAMPLE_WORK_BUDGET = 2**29


def cmd_sample(N: int, samples: int, seed: int, t_list: list[float]) -> OutputRecord:
    for t in t_list:
        if not math.isfinite(t):
            raise ValueError(f"--t must be finite, got {t}")
    refuse_past(max(N, 32)**3 * samples, SAMPLE_WORK_BUDGET,
                f"--N {N} with --samples {samples}", "max(N, 32)^3 x samples")
    from .montecarlo import estimate_wilson, zscore

    rows = []
    for t, st in zip(t_list, estimate_wilson(N, t_list, samples, seed)):
        if math.isnan(st.mean):  # z = 0.0 beside it would claim agreement
            raise ValueError(f"--t {t} times a drawn eigenvalue is past float range")
        exact = wilson_eval(N, t)
        z = zscore(st, exact) if st.std_error > 0 else 0.0
        rows.append([t, st.mean, st.std_error, exact, z])
    params = {"N": N, "samples": samples, "seed": seed}
    return OutputRecord("sample", params,
                        ["t", "mean", "std_error", "exact", "zscore"], rows)


def cmd_verify(suite: str, seed: int) -> int:
    failures = run_suite(suite, seed=seed)
    if failures:
        print(json.dumps({"suite": suite, "status": "FAIL", "failures": failures},
                         indent=2))
        return 1
    print(f"PASS {suite}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guekit",
        description="Exact finite-N GUE observables with combinatorial and "
                    "Monte Carlo cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the output flags, and `table`, which builds the command's record from
    # its flags; each builder looks its cmd_* up when it runs
    def add_common(p, table):
        # a float flag's value may be "-1e200", "-.5e3" or "-inf": argparse's own
        # pattern for a negative number, with no public hook, takes these for options
        p._negative_number_matcher = re.compile(r"-\.?\d|-(inf(inity)?|nan)$", re.IGNORECASE)
        p.set_defaults(table=table)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="write the table to FILE instead of stdout")

    p = sub.add_parser("wilson", help="Wilson loop I(t, N) on a t grid")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=4.0)
    p.add_argument("--steps", type=int, default=41)
    add_common(p, lambda a: cmd_wilson(a.N, a.t_min, a.t_max, a.steps))

    p = sub.add_parser("density", help="spectral density with Wigner reference")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--lambda-min", type=float, default=-3.0)
    p.add_argument("--lambda-max", type=float, default=3.0)
    p.add_argument("--steps", type=int, default=121)
    add_common(p, lambda a: cmd_density(a.N, a.lambda_min, a.lambda_max, a.steps))

    p = sub.add_parser("moments", help="exact even moments with Catalan column")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--l-max", type=int, default=8)
    add_common(p, lambda a: cmd_moments(a.N, a.l_max))

    p = sub.add_parser("rosettes", help="genus counts C_g(l) of one-vertex maps")
    p.add_argument("--l", type=int, required=True)
    add_common(p, lambda a: cmd_rosettes(a.l))

    p = sub.add_parser("harer-zagier", help="generating-series coefficients")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p-max", type=int, default=7)
    add_common(p, lambda a: cmd_harer_zagier(a.N, a.p_max))

    p = sub.add_parser("sample", help="Monte Carlo Wilson loop vs the exact value")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--t", type=float, action="append", dest="t_list",
                   help="repeatable; defaults to 0.5 .. 4.0")
    add_common(p, lambda a: cmd_sample(a.N, a.samples, a.seed,
                                     a.t_list or [0.5 * k for k in range(1, 9)]))

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.suite, args.seed)
        record = args.table(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = record.render(args.format)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def run() -> None:
    """main() as the whole process: the `guekit` script and `python -m
    guekit.cli` leave through here.  Once stdout and stderr are flushed,
    os._exit ends the process without tearing the interpreter down (module
    clean-up, a garbage collection over every object), which has no output
    to make; where a flush fails, sys.exit reports it at shutdown as
    before.  An argparse exit (--help, a usage error) leaves the same way
    with its status."""
    try:
        code = main()
    except SystemExit as exc:
        if not isinstance(exc.code, int):
            raise
        code = exc.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # a failed, closed or missing stream: exit as before, and let
        # the interpreter's own flush report the error
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
