"""Output checks for every benchmark job, against oracles written here.

The oracles do not call guekit.  Table cells are compared with exact
rational evaluations at the very float the row reports (every float is a
dyadic rational), so only the final exp prefactor is rounded:

- Wilson loop: the polynomial part sum_q c_q (-t^2)^q as one integer sum;
- density: the even-Hermite sum in x^2 = N lambda^2, with He_2q(x) built by
  an integer recurrence;
- moments: the Harer-Zagier recursion for <Tr H^2l>;
- rosette counts: the Harer-Zagier recursion for epsilon_g(l);
- generating series: the binomial expansion of ((1+y)/(1-y))^N.

Each check returns a list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from fractions import Fraction

# Absolute and relative tolerances for float table cells against the oracles.
ABS_TOL = 1e-9
DENSITY_ABS_TOL = 1e-12
DENSITY_REL_TOL = 1e-9
# Rows per wilson/density job compared with the exact oracle.
ORACLE_ROWS = 8
Z_LIMIT = 5.0


# ------------------------------------------------------------------ oracles

def _signed_exp(total: int, log_denominator: float, exponent: float) -> float:
    """sign(total) * exp(log|total| - log_denominator + exponent)."""
    if total == 0:
        return 0.0
    value = math.exp(math.log(abs(total)) - log_denominator + exponent)
    return value if total > 0 else -value


def wilson_exact(N: int, t: float) -> float:
    """I(t, N) at the float t, exact except for the exp(-t^2/2N) prefactor.

    N^N (N-1)! b^(2N-2) sum_q c_q (-t^2)^q with t = a/b is the integer
    sum_q binom(N, q+1) (N-1)!/q! (-a^2)^q (N b^2)^(N-1-q), which a Horner
    scheme in (N b^2) builds with small multipliers only.
    """
    a, b = Fraction(t).as_integer_ratio()
    x, y = -a * a, N * b * b
    # ascending Horner: T_q = T_(q-1) q y + binom(N, q+1) x^q
    total, xpow = N, 1
    for q in range(1, N):
        xpow *= x
        total = total * q * y + math.comb(N, q + 1) * xpow
    log_den = math.log(N**N * math.factorial(N - 1) * b ** (2 * N - 2))
    return _signed_exp(total, log_den, -float(Fraction(a * a, 2 * N * b * b)))


def density_exact(N: int, lam: float) -> float:
    """rho_N at the float lambda, exact except for exp(-N lambda^2 / 2).

    With s = N lambda^2 = A/B, He_2q(x) = P_q(s) and He_2q+1(x) = x Q_q(s);
    the integers p_q = B^q P_q and r_q = B^q Q_q obey
    r_q = p_q - 2q B r_(q-1) and p_(q+1) = A r_q - (2q+1) B p_q.
    """
    a, b = Fraction(lam).as_integer_ratio()
    A, B = N * a * a, b * b
    p, r = 1, 1
    # ascending Horner: T_q = T_(q-1) q B + binom(N, q+1) p_q
    total = 0
    for q in range(N):
        if q:
            r = p - 2 * q * B * r
        total = total * q * B + math.comb(N, q + 1) * p
        p = A * r - (2 * q + 1) * B * p
    log_den = math.log(math.factorial(N) * B ** (N - 1))
    exponent = 0.5 * math.log(N / (2 * math.pi)) - float(Fraction(A, 2 * B))
    return _signed_exp(total, log_den, exponent)


def moments_exact(N: int, l_max: int) -> list[Fraction]:
    """m_2l = C_l / N^(l+1), C_l = <Tr H^2l> at unit variance (Harer-Zagier)."""
    c = [N, N * N]
    for k in range(2, l_max + 1):
        c.append(((4 * k - 2) * N * c[k - 1] + (k - 1) * (2 * k - 1) * (2 * k - 3) * c[k - 2])
                 // (k + 1))
    return [Fraction(c[l], N ** (l + 1)) for l in range(l_max + 1)]


def rosette_counts(l: int) -> list[int]:
    """epsilon_g(l), g = 0 .. l//2, by the Harer-Zagier recursion."""
    eps = [[1]]  # eps[n][g]
    for n in range(1, l + 1):
        row = []
        for g in range(n // 2 + 1):
            prev = eps[n - 1][g] if g < len(eps[n - 1]) else 0
            prev2 = eps[n - 2][g - 1] if n >= 2 and 0 <= g - 1 < len(eps[n - 2]) else 0
            num = 2 * (2 * n - 1) * prev + (n - 1) * (2 * n - 1) * (2 * n - 3) * prev2
            row.append(num // (n + 1))
        eps.append(row)
    return eps[l]


def harer_zagier_series(N: int, p_max: int) -> list[Fraction]:
    """Coefficient of x^(p+1), p = 1 .. p_max, in (1/2)((1+x/N)/(1-x/N))^N."""
    out = []
    for p in range(1, p_max + 1):
        k = p + 1
        coeff = sum(math.comb(N, j) * math.comb(N + k - j - 1, k - j)
                    for j in range(min(N, k) + 1))
        out.append(Fraction(coeff, 2 * N**k))
    return out


def double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2))


# ------------------------------------------------------------------ parsing

def decode(text: str):
    """Cell text to int, Fraction, float or str (the CSV encoding guekit documents)."""
    try:
        return int(text)
    except ValueError:
        pass
    if "/" in text:
        try:
            return Fraction(text)
        except ValueError:
            return text
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> tuple[str, dict, list[str], list[list]]:
    """(command, parameters, columns, rows); further '#' lines are skipped."""
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("# command: ") \
            or not lines[1].startswith("# parameters: "):
        raise ValueError("missing CSV preamble")
    command = lines[0][len("# command: "):]
    params = json.loads(lines[1][len("# parameters: "):])
    body = [line for line in lines[2:] if not line.startswith("#")]
    reader = csv.reader(body)
    columns = next(reader)
    rows = [[decode(cell) for cell in row] for row in reader if row]
    return command, params, columns, rows


def same_cells(a: list[list], b: list[list]) -> bool:
    """Row-wise equality where NaN equals NaN."""
    def same(x, y):
        if isinstance(x, float) and isinstance(y, float) and math.isnan(x) and math.isnan(y):
            return True
        return x == y
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(same(x, y) for x, y in zip(ra, rb))
        for ra, rb in zip(a, b))


# ------------------------------------------------------------------ checks

def _grid(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [lo]
    return [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]


def _flags(args: tuple[str, ...]) -> dict[str, str]:
    return {args[i]: args[i + 1] for i in range(1, len(args) - 1, 2)}


def _finite(x) -> bool:
    return isinstance(x, float) and math.isfinite(x)


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _check_table_shape(problems, command, columns, rows, want_command,
                       want_columns, want_rows) -> bool:
    _expect(problems, command == want_command, f"command {command!r}")
    _expect(problems, columns == want_columns, f"columns {columns}")
    _expect(problems, len(rows) == want_rows, f"{len(rows)} rows, want {want_rows}")
    return not problems


def check_wilson(args, parsed, rng) -> list[str]:
    f = _flags(args)
    N, steps = int(f["--N"]), int(f["--steps"])
    grid = _grid(float(f["--t-min"]), float(f["--t-max"]), steps)
    command, params, columns, rows = parsed
    problems: list[str] = []
    if not _check_table_shape(problems, command, columns, rows, "wilson",
                              ["t", "wilson_loop"], steps):
        return problems
    if "coefficients" in params:
        ladder = [Fraction(math.comb(N, q + 1), N ** (q + 1) * math.factorial(q))
                  for q in range(N)]
        coeffs = [Fraction(c) if isinstance(c, str) else c for c in params["coefficients"]]
        _expect(problems, coeffs == ladder, "coefficients differ from binom(N,q+1)/(N^(q+1) q!)")
    for (t, value), want_t in zip(rows, grid):
        if t != want_t or not _finite(value) or abs(value) > 1.0 + 1e-12:
            problems.append(f"row t={t}: wilson_loop={value} (need finite, |I| <= 1)")
            break
    for i in sorted(rng.sample(range(steps), min(ORACLE_ROWS, steps))):
        t, value = rows[i]
        want = wilson_exact(N, grid[i])
        if not abs(value - want) <= ABS_TOL:
            problems.append(f"row t={t}: wilson_loop={value}, exact {want}")
            break
    return problems


def wigner(lam: float) -> float:
    if abs(lam) >= 2.0:
        return 0.0
    return math.sqrt(4.0 - lam * lam) / (2.0 * math.pi)


def check_density(args, parsed, rng) -> list[str]:
    f = _flags(args)
    N, steps = int(f["--N"]), int(f["--steps"])
    grid = _grid(float(f["--lambda-min"]), float(f["--lambda-max"]), steps)
    command, params, columns, rows = parsed
    problems: list[str] = []
    if not _check_table_shape(problems, command, columns, rows, "density",
                              ["lambda", "density", "wigner"], steps):
        return problems
    for (lam, rho, sc), want_lam in zip(rows, grid):
        if lam != want_lam or not _finite(rho) or rho < -DENSITY_ABS_TOL \
                or not math.isclose(sc, wigner(lam), rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"row lambda={lam}: density={rho}, wigner={sc} "
                            "(need finite, non-negative density)")
            break
    for i in sorted(rng.sample(range(steps), min(ORACLE_ROWS, steps))):
        lam, rho = rows[i][0], rows[i][1]
        want = density_exact(N, grid[i])
        if not abs(rho - want) <= DENSITY_ABS_TOL + DENSITY_REL_TOL * abs(want):
            problems.append(f"row lambda={lam}: density={rho}, exact {want}")
            break
    return problems


def check_moments(args, parsed, rng) -> list[str]:
    f = _flags(args)
    N, l_max = int(f["--N"]), int(f["--l-max"])
    command, params, columns, rows = parsed
    problems: list[str] = []
    if not _check_table_shape(problems, command, columns, rows, "moments",
                              ["l", "moment", "moment_float", "catalan"], l_max + 1):
        return problems
    for (l, m, m_float, cat), want in zip(rows, moments_exact(N, l_max)):
        if m != want or not math.isclose(m_float, float(want), rel_tol=1e-15) \
                or cat != math.comb(2 * l, l) // (l + 1):
            problems.append(f"row l={l}: moment={m}, want {want}")
            break
    return problems


def check_harer_zagier(args, parsed, rng) -> list[str]:
    f = _flags(args)
    N, p_max = int(f["--N"]), int(f["--p-max"])
    command, params, columns, rows = parsed
    problems: list[str] = []
    if not _check_table_shape(problems, command, columns, rows, "harer-zagier",
                              ["p", "series_coefficient", "from_rosette_counts"], p_max):
        return problems
    for (p, series, rebuilt), want in zip(rows, harer_zagier_series(N, p_max)):
        if series != want or rebuilt != want:
            problems.append(f"row p={p}: {series}, {rebuilt}; want {want}")
            break
    return problems


def check_rosettes(args, parsed, rng) -> list[str]:
    l = int(_flags(args)["--l"])
    command, params, columns, rows = parsed
    problems: list[str] = []
    counts = rosette_counts(l)
    total = double_factorial(2 * l - 1)
    if not _check_table_shape(problems, command, columns, rows, "rosettes",
                              ["g", "count"], len(counts) + 2):
        return problems
    want = [[g, c] for g, c in enumerate(counts)] + [["sum", total], ["double_factorial", total]]
    _expect(problems, rows == want, "genus counts differ from the Harer-Zagier recursion")
    return problems


def check_sample(args, parsed, rng) -> list[str]:
    f = _flags(args)
    N = int(f["--N"])
    command, params, columns, rows = parsed
    problems: list[str] = []
    if not _check_table_shape(problems, command, columns, rows, "sample",
                              ["t", "mean", "std_error", "exact", "zscore"], 8):
        return problems
    want = {"N": N, "samples": int(f["--samples"]), "seed": int(f["--seed"])}
    _expect(problems, all(params.get(k) == v for k, v in want.items()), f"parameters {params}")
    for k, (t, mean, se, exact, z) in enumerate(rows, start=1):
        if t != 0.5 * k or not all(map(_finite, (mean, se, exact, z))) or se <= 0:
            problems.append(f"row t={t}: malformed ({mean}, {se}, {exact}, {z})")
            break
        if not abs(exact - wilson_exact(N, t)) <= ABS_TOL:
            problems.append(f"row t={t}: exact={exact}, oracle {wilson_exact(N, t)}")
            break
        if abs(z) > Z_LIMIT or not math.isclose(z, (mean - exact) / se, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"row t={t}: zscore={z} for mean={mean}, se={se}")
            break
    return problems


TABLE_CHECKS = {
    "wilson": check_wilson,
    "density": check_density,
    "moments": check_moments,
    "harer-zagier": check_harer_zagier,
    "rosettes": check_rosettes,
    "sample": check_sample,
}


def check_job(args: tuple[str, ...], returncode: int, stdout: str, stderr: str,
              check_seed: int) -> list[str]:
    """Problems with one finished job; empty means its output is correct."""
    if returncode != 0:
        last = stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return [f"exit code {returncode}: {last[0][:200]}"]
    if args[0] == "--help":
        return [] if stdout.startswith("usage: guekit") else ["--help printed no usage line"]
    if args[0] == "verify":
        return [] if "PASS all" in stdout.splitlines() else [f"verify printed {stdout[:200]!r}"]
    try:
        parsed = parse_csv(stdout)
        return TABLE_CHECKS[args[0]](args, parsed, random.Random(check_seed))
    except (ValueError, TypeError, IndexError, KeyError, StopIteration) as exc:
        return [f"malformed table: {exc!r}"]
