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
import sys

from .exact import catalan, double_factorial
from .observables import (
    density_eval,
    harer_zagier_closed,
    harer_zagier_from_counts,
    moment_exact,
    rosette_count_formula,
    wigner_density,
    wilson_eval,
    wilson_loop,
)
from .records import OutputRecord
from .verify import (
    DEFAULT_SEED,
    HISTOGRAM_BINS,
    HISTOGRAM_SAMPLES,
    SAMPLE_WORK_BUDGET,
    SUITES,
    refuse_draw,
    refuse_past,
    run_suite,
)


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
    params = {
        "N": N, "t_min": t_min, "t_max": t_max, "steps": steps,
        "coefficients": list(wilson_loop(N)),
    }
    rows = [[t, wilson_eval(N, t).real] for t in _grid(t_min, t_max, steps)]
    return OutputRecord("wilson", params, ["t", "wilson_loop"], rows)


def cmd_density(N: int, lam_min: float, lam_max: float, steps: int) -> OutputRecord:
    _check_grid_work(N, steps)
    rows = [
        [lam, density_eval(N, lam), wigner_density(lam)]
        for lam in _grid(lam_min, lam_max, steps)
    ]
    params = {"N": N, "lambda_min": lam_min, "lambda_max": lam_max, "steps": steps}
    return OutputRecord("density", params, ["lambda", "density", "wigner"], rows)


def cmd_moments(N: int, l_max: int) -> OutputRecord:
    if l_max < 0:
        raise ValueError("l-max must be >= 0")
    try:  # m_2l is nondecreasing in l >= 1 (m_2 = 1, Lyapunov), so the last one decides
        float(moment_exact(N, l_max))
    except OverflowError:
        raise ValueError(f"--l-max {l_max} takes m_2l past float range at N = {N}") from None
    rows = []
    for l in range(l_max + 1):
        m = moment_exact(N, l)
        rows.append([l, m, float(m), catalan(l)])
    return OutputRecord("moments", {"N": N, "l_max": l_max},
                        ["l", "moment", "moment_float", "catalan"], rows)


# The largest `rosettes --l`: l = 120 takes about 0.5 s from a fresh
# process, l = 160 about 2 s and l = 240 over 20 s.
ROSETTES_L_BUDGET = 120


def cmd_rosettes(l: int, genus: int | None = None) -> OutputRecord:
    if l < 1:
        raise ValueError("l must be >= 1")
    refuse_past(l, ROSETTES_L_BUDGET, f"--l {l}", "l")
    params = {"l": l}
    if genus is not None:
        params["g"] = genus
        rows = [[genus, rosette_count_formula(l, genus)]]
        return OutputRecord("rosettes", params, ["g", "count"], rows)
    counts = [rosette_count_formula(l, g) for g in range(l // 2 + 1)]
    rows: list[list] = [[g, c] for g, c in enumerate(counts)]
    rows.append(["sum", sum(counts)])
    rows.append(["double_factorial", double_factorial(2 * l - 1)])
    return OutputRecord("rosettes", params, ["g", "count"], rows)


# The largest `harer-zagier --p-max`: p = 100 takes about 1.5 s from a
# fresh process at N = 3 and at N = 1000, p = 120 about 6 s.
HARER_ZAGIER_P_BUDGET = 100


def cmd_harer_zagier(N: int, p_max: int) -> OutputRecord:
    refuse_past(p_max, HARER_ZAGIER_P_BUDGET, f"--p-max {p_max}", "p-max")
    coeffs = harer_zagier_closed(N, p_max)
    rows = [[p, coeffs[p - 1], harer_zagier_from_counts(N, p)] for p in range(1, p_max + 1)]
    return OutputRecord("harer-zagier", {"N": N, "p_max": p_max},
                        ["p", "series_coefficient", "from_rosette_counts"], rows)


def cmd_sample(N: int, samples: int, seed: int, t_list: list[float]) -> OutputRecord:
    for t in t_list:
        if not math.isfinite(t):
            raise ValueError(f"--t must be finite, got {t}")
    refuse_draw(N, samples, f"--N {N} with --samples {samples}")
    from .montecarlo import estimate_wilson, zscore

    rows = []
    for t, st in zip(t_list, estimate_wilson(N, t_list, samples, seed)):
        exact = wilson_eval(N, t).real
        z = zscore(st, exact) if st.std_error > 0 else 0.0
        rows.append([t, st.mean, st.std_error, exact, z])
    params = {"N": N, "samples": samples, "seed": seed}
    return OutputRecord("sample", params,
                        ["t", "mean", "std_error", "exact", "zscore"], rows)


def cmd_verify(suite: str, l_max: int | None, samples: int, bins: int, seed: int) -> int:
    failures = run_suite(suite, l_max=l_max, samples=samples, bins=bins, seed=seed)
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

    def add_common(p):
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="write the table to FILE instead of stdout")

    p = sub.add_parser("wilson", help="Wilson loop I(t, N) on a t grid")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=4.0)
    p.add_argument("--steps", type=int, default=41)
    add_common(p)

    p = sub.add_parser("density", help="spectral density with Wigner reference")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--lambda-min", type=float, default=-3.0)
    p.add_argument("--lambda-max", type=float, default=3.0)
    p.add_argument("--steps", type=int, default=121)
    add_common(p)

    p = sub.add_parser("moments", help="exact even moments with Catalan column")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--l-max", type=int, default=8)
    add_common(p)

    p = sub.add_parser("rosettes", help="genus counts C_g(l) of one-vertex maps")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--g", type=int, default=None, help="restrict to one genus")
    add_common(p)

    p = sub.add_parser("harer-zagier", help="generating-series coefficients")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p-max", type=int, default=7)
    add_common(p)

    p = sub.add_parser("sample", help="Monte Carlo Wilson loop vs the exact value")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--t", type=float, action="append", dest="t_list",
                   help="repeatable; defaults to 0.5 .. 4.0")
    add_common(p)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--l-max", type=int, default=None,
                   help="lower (never raise) the enumeration budget")
    p.add_argument("--samples", type=int, default=HISTOGRAM_SAMPLES)
    p.add_argument("--bins", type=int, default=HISTOGRAM_BINS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.suite, args.l_max, args.samples, args.bins, args.seed)
        if args.command == "wilson":
            record = cmd_wilson(args.N, args.t_min, args.t_max, args.steps)
        elif args.command == "density":
            record = cmd_density(args.N, args.lambda_min, args.lambda_max, args.steps)
        elif args.command == "moments":
            record = cmd_moments(args.N, args.l_max)
        elif args.command == "rosettes":
            record = cmd_rosettes(args.l, args.g)
        elif args.command == "harer-zagier":
            record = cmd_harer_zagier(args.N, args.p_max)
        elif args.command == "sample":
            t_list = args.t_list or [0.5 * k for k in range(1, 9)]
            record = cmd_sample(args.N, args.samples, args.seed, t_list)
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown command {args.command}")
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
