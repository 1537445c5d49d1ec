"""Exact finite-N GUE observables.

The Wilson loop expectation I(t, N), the eigenvalue density rho_N, the
resolvent omega_N and the even moments <Tr H^{2l}>/N are all carried by
one family of exact rational coefficients

    c_q = binom(N, q+1) / (N^{q+1} q!),   q = 0 .. N-1,

built exactly by wilson_loop and density where a rational is read.  The
float64 evaluators take N alone and do not sum that ladder, which cancels
catastrophically once N is in the tens; they run stable three-term
recurrences instead:

    I(t, N) = exp(-u/2) L^(1)_{N-1}(u) / N,  u = t^2/N  (Laguerre),
    rho_N(lambda) = sqrt(N/2)/N sum_{k<N} phi_k(y)^2,  y = sqrt(N/2) lambda
                                        (Christoffel-Darboux, Hermite functions).
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
import sys
from fractions import Fraction
from functools import lru_cache

from .exact import (
    double_factorial,
    integrate_real,
    moment_term,
    partition_term_sum,
    pointwise,
)

# Fourier/Laplace integrals over t are truncated once the Gaussian factor
# times the (positive-coefficient) polynomial part drops below this.
TAIL_EPSILON = 1e-12

DEFAULT_RESOLVENT_NODES = 240


# Recurrences rescale by this power of two (exact in binary) before they overflow.
# It also bounds their real argument (u or y^2): up to it, one step grows the
# state by less than one rescale undoes; beyond it, I and rho_N (at most about
# exp(-u/2) (1+u)^N and exp(-y^2) (2y^2)^N) are below every float for N < 1e117.
# The rule of every scaled recurrence here: where the state is past _RESCALE it
# is divided by _RESCALE**over (1 where `over` is false) and `over` is added to
# an integer count, which the caller turns into a scale once, as
# count * _LOG_RESCALE plus its Gaussian term inside its one exp.  A float sum
# of log scales would round at every rescale (6e-10 relative at N = 10^5).
_RESCALE = 2.0**400
# 400 ln 2, and pi^(-1/4) for _hermite_squares, correctly rounded: written out,
# so they do not take their last bit from the platform's libm
_LOG_RESCALE = float.fromhex("0x1.1542457337d43p+8")
_PI_TO_MINUS_QUARTER = float.fromhex("0x1.8093870155910p-1")


def _largest(values) -> float:
    """max |v| over a float64 array of points, NaN skipped; 0 if it is empty."""
    import numpy as np

    return np.fmax.reduce(abs(values), initial=0.0)


def _is_point(x) -> bool:
    """Whether an evaluator's argument is one number (any numbers.Number,
    numpy scalars too) rather than an array of points.  float and int (bool
    too) go first: the ABC check is several times slower, and a real number
    passes this check at each helper of its evaluation."""
    return isinstance(x, (float, int)) or isinstance(x, numbers.Number)


def _peak_of(x):
    """The function a recurrence in x checks its size with: abs for a
    number, _largest for an array, so one comparison covers every point."""
    return abs if _is_point(x) else _largest


def _where(cond, a, b):
    """a where cond holds, else b: for a number, or elementwise for arrays."""
    if _is_point(cond):
        return a if cond else b
    import numpy as np

    return np.where(cond, a, b)


def _exp(x):
    """e^x of a real number, or of each point of a float64 array: the one
    exponential of the real axis, math.exp per point, since numpy's exp
    can round differently."""
    return math.exp(x) if _is_point(x) else pointwise(math.exp, x)


def _laguerre1(n: int, u):
    """(L, count) with L 2^(400 count) = L^(1)_n(u), the generalized Laguerre polynomial.

    Runs the three-term recurrence (k+1) L_{k+1} = (2k+2-u) L_k - (k+1) L_{k-1}
    from L_{-1} = 0, L_0 = 1, written for the step d = L_k - L_{k-1}:
    d_{k+1} = d_k - u L_k / (k+1).  Near u = 0 the recurrence has a double
    characteristic root, and the plain form loses about n^2 ulps there; this
    form loses about n.  At u = 0 every step is exact and L_n = n + 1.
    u is a number or a 1-d float64 array; on an array every step runs
    elementwise and each point rescales on its own, so a point gets the
    bits it gets alone, and count is an int array.
    """
    peak = _peak_of(u)
    cur, step, count = 1.0, 1.0, 0
    for k in range(n):
        step = step - u * cur / (k + 1)
        cur = cur + step
        if peak(cur) > _RESCALE:
            over = abs(cur) > _RESCALE
            divisor = _RESCALE**over
            cur, step, count = cur / divisor, step / divisor, count + over
    return cur, count


def wilson_loop(N: int) -> tuple[Fraction, ...]:
    """Exact c_q, q = 0 .. N-1, of I(t, N) = exp(-t^2 / 2N) sum_q c_q (-t^2)^q.

    Built by the ratio recurrence c_{q+1} = c_q (N-q-1) / (N (q+1)(q+2)),
    which keeps every intermediate gcd small even at N in the thousands.
    """
    if N < 1:
        raise ValueError(f"wilson_loop requires N >= 1, got {N}")
    coeffs = [Fraction(1)]
    c = Fraction(1)
    for q in range(N - 1):
        c *= Fraction(N - q - 1, N * (q + 1) * (q + 2))
        coeffs.append(c)
    return tuple(coeffs)


def _times_exp(exp, x, lag):
    """exp(x) lag, for the exponential `exp` of x's kind: _exp on the real
    axis (a number or a 1-d float64 array), cmath.exp off it.  Where exp(x)
    is below the normal range (subnormal, with few digits left, 0 or NaN),
    its square root is multiplied in twice, so the rescaled lag (up to
    2^400) can lift the product back into the float range with its digits;
    the root is taken only where some point needs it."""
    scale = exp(x)
    normal = abs(scale) >= sys.float_info.min
    if normal if _is_point(normal) else normal.all():
        return scale * lag
    root = exp(x / 2)
    return _where(normal, scale * lag, root * (root * lag))


def _wilson_real(N: int, t):
    """I(t, N) at a real t, in float arithmetic: a float for a number, or
    elementwise over a 1-d float64 array, each point with the bits it gets
    alone.

    Past u = t^2/N = _RESCALE the recurrence runs at u = 0 instead, and
    the exponent -u/2 takes the value to 0, below the float range.  The
    product exp(count _LOG_RESCALE - u/2) lag is _times_exp's, and the
    value is product / N, -0.0 taken to 0.0.
    """
    u = t * t / N
    lag, count = _laguerre1(N - 1, _where(u > _RESCALE, 0.0, u))
    product = _times_exp(_exp, count * _LOG_RESCALE - u / 2, lag)
    return (product + 0.0) / N


def _wilson_complex(N: int, t: complex) -> complex:
    """I(t, N) at a t off the real axis, in complex arithmetic.

    Past |u| = |t^2/N| = _RESCALE it is 0 where wilson_bound is below
    every float, and refused with ValueError elsewhere.  Below it, the
    product exp(x) lag, x = count _LOG_RESCALE - u/2, is _times_exp's with
    cmath.exp, except where Re x is above 432, so that exp(x) or its
    product with lag may pass the float range: there the square root of
    exp(x) is multiplied in twice, with lag / N first, and a value past
    the float range is refused with ValueError.
    """
    if (t.real * t.real + t.imag * t.imag) / N > _RESCALE:
        if _log_wilson_bound(N, t) < math.log(sys.float_info.min * sys.float_info.epsilon):
            return 0j
        raise ValueError(f"wilson_eval({N}, {t!r}) is out of reach: |t^2/N| > 2^400")
    u = t**2 / N
    # a real u (t = ix) runs the same steps in float arithmetic: same bits, less time
    lag, count = _laguerre1(N - 1, u if u.imag else u.real)
    x = count * _LOG_RESCALE - u / 2
    # tested as "> 432", so a NaN x takes _times_exp below and gives NaN, not a refusal
    if x.real > 432.0:  # e^432 2^400 < 2^1024: below it no product can overflow
        try:  # cmath.exp overflows past e^1419: at t = ix (lag >= 1) so does I
            root = cmath.exp(x / 2)
            value = root * (root * lag / N)
        except OverflowError:
            value = math.inf
        if not cmath.isfinite(value):
            raise ValueError(f"wilson_eval({N}, {t!r}) is past the float range: "
                             f"|I(t, N)| > {sys.float_info.max!r}")
        return value
    return _times_exp(cmath.exp, x, lag) / N


def wilson_eval(N: int, t):
    """Float64 value of I(t, N) = exp(-u/2) L^(1)_{N-1}(u) / N, u = t^2/N.

    t is a number (any numbers.Number, taken as a complex), or a real
    float64 array.  A real t takes float arithmetic in one body and gives
    a float, or a float64 array of the input's shape, whose points run the
    recurrence once together and each have the bits of the scalar call;
    only a number off the real axis takes complex arithmetic and gives a
    complex, and a number never loads numpy.  A point whose value is past
    the float range raises ValueError; only a t off the real axis gets
    there, such as t = ix, where I = e^{x^2/2N} L^(1)_{N-1}(-x^2/N) / N.
    So does a t off the axis with |t^2/N| past 2^400, unless wilson_bound
    puts it below every float, where it is 0.
    """
    if N < 1:
        raise ValueError(f"wilson_eval requires N >= 1, got {N}")
    if _is_point(t):
        t = complex(t)
        return _wilson_complex(N, t) if t.imag else _wilson_real(N, t.real)
    import numpy as np

    if np.iscomplexobj(t):
        raise TypeError("wilson_eval takes complex t as a number, not as an array")
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):  # t * t past the float range is inf, as for a number
        return _wilson_real(N, t.ravel()).reshape(t.shape)


def wilson_taylor_coefficients(N: int, l_max: int) -> list[Fraction]:
    """Exact coefficients of (-t^2)^l in I(t, N), l = 0 .. l_max.

    Multiplies the exp(-t^2/2N) series into the exact c_q polynomial in
    rational arithmetic; entry l equals m_2l / (2l)!.
    """
    coefficients = wilson_loop(N)
    out = []
    for l in range(l_max + 1):
        total = Fraction(0)
        for q in range(min(l, N - 1) + 1):
            total += coefficients[q] / (math.factorial(l - q) * (2 * N) ** (l - q))
        out.append(total)
    return out


def wilson_limit_partial(t: complex, q_max: int) -> complex:
    """Partial sum sum_{q<=q_max} (-t^2)^q / ((q+1)! q!) of the N->inf series."""
    if q_max < 0:
        raise ValueError(f"q_max must be >= 0, got {q_max}")
    u = -(complex(t) ** 2)
    term = total = 1.0 + 0.0j
    for q in range(q_max):
        term *= u / ((q + 2) * (q + 1))
        total += term
    return total


def wilson_bound(N: int, t: complex) -> float:
    """Upper bound exp(2|t| - Re(t^2)/2N) on |I(t, N)|, taken as one exponent:
    0 below the float range, OverflowError past it."""
    if N < 1:
        raise ValueError(f"wilson_bound requires N >= 1, got {N}")
    return math.exp(_log_wilson_bound(N, complex(t)))


def _log_wilson_bound(N: int, t: complex) -> float:
    """2|t| - Re(t^2)/2N, the exponent of wilson_bound, with no overflow
    error: |t| by hypot, and Re(t^2) as (x - y)(x + y), which is 0 at
    x = y where x^2 - y^2 can be inf - inf."""
    return 2 * math.hypot(t.real, t.imag) - (t.real - t.imag) * (t.real + t.imag) / (2 * N)


def density(N: int) -> tuple[Fraction, ...]:
    """Exact c_q, q = 0 .. N-1, of the N x N GUE density
    rho_N(lambda) = sqrt(N/2pi) e^{-N lambda^2/2} sum_q c_q N^q He_2q(sqrt(N) lambda).

    The same c_q as the Wilson loop's.
    """
    return wilson_loop(N)


def _hermite_squares(N: int, y):
    """(total, count) with total 2^(800 count) exp(-y^2) = sum_{k<N} phi_k(y)^2.

    The normalized Hermite functions phi_k = cur 2^(400 count) exp(-y^2/2)
    run by phi_k = sqrt(2/k) y phi_{k-1} - sqrt((k-1)/k) phi_{k-2} from
    phi_0 = pi^(-1/4) exp(-y^2/2); the Gaussian factor is left to the
    caller, so it cannot underflow, and the sum of squares is positive.  y
    is a number or a 1-d float64 array, run elementwise as in _laguerre1.
    """
    peak = _peak_of(y)
    prev, cur, count = 0.0, _PI_TO_MINUS_QUARTER, 0
    total = cur * cur
    for k in range(1, N):
        prev, cur = cur, math.sqrt(2 / k) * y * cur - math.sqrt((k - 1) / k) * prev
        total = total + cur * cur
        if peak(total) > _RESCALE:
            over = total > _RESCALE
            divisor = _RESCALE**over
            prev, cur, total = prev / divisor, cur / divisor, total / (divisor * divisor)
            count = count + over
    return total, count


def _density_real(N: int, lam):
    """rho_N(lambda) for a number, or elementwise over a 1-d float64 array,
    each point with the bits it gets alone.  Past y^2 = _RESCALE the
    recurrence runs at y = 0 instead, and the Gaussian takes the value to
    0, below the float range."""
    y = math.sqrt(N / 2) * lam
    total, count = _hermite_squares(N, _where(y * y > _RESCALE, 0.0, y))
    scale = _exp(count * _LOG_RESCALE - y * y / 2)
    # scale * (scale * total): scale**2 alone can underflow while total is large
    return math.sqrt(N / 2) / N * scale * (scale * total)


def density_eval(N: int, lam):
    """Float64 value of rho_N(lambda) = sqrt(N/2)/N sum_{k<N} phi_k(y)^2, y = sqrt(N/2) lambda.

    lam is a real number (any numbers.Number, taken as a float) or a
    float64 array, and both take one float body; an array runs the
    recurrence once over all its points and gives each the bits of the
    scalar call, and a number never loads numpy.
    """
    if N < 1:
        raise ValueError(f"density_eval requires N >= 1, got {N}")
    if _is_point(lam):
        return _density_real(N, float(lam))
    import numpy as np

    lam = np.asarray(lam, dtype=float)
    with np.errstate(over="ignore"):  # y * y past the float range is inf, as for a number
        return _density_real(N, lam.ravel()).reshape(lam.shape)


def wigner_density(lam: float) -> float:
    """Semicircle density (1/2pi) sqrt(4 - lambda^2) on [-2, 2]."""
    if abs(lam) >= 2.0:
        return 0.0
    return math.sqrt(4.0 - lam * lam) / (2.0 * math.pi)


def moment_exact(N: int, l: int) -> Fraction:
    """Exact m_2l = sum_{q2} binom(N, q2+1) moment_term(l, q2) / N^{l+1}."""
    if N < 1:
        raise ValueError(f"moment_exact requires N >= 1, got {N}")
    if l < 0:
        raise ValueError(f"moment_exact requires l >= 0, got {l}")
    total = sum(math.comb(N, q2 + 1) * moment_term(l, q2) for q2 in range(min(l, N - 1) + 1))
    return Fraction(total, N ** (l + 1))


def moment_table(N: int, l_max: int) -> tuple[Fraction, ...]:
    """Exact m_2l for l = 0 .. l_max."""
    return tuple(moment_exact(N, l) for l in range(l_max + 1))


def _genus_rows():
    """Rows [C_g(l) for g = 0 .. l // 2] for l = 0, 1, 2, ... in turn.

    Integer Harer-Zagier recursion, independent of the closed form:
    (l+1) C_g(l) = 2(2l-1) C_g(l-1) + (l-1)(2l-1)(2l-3) C_{g-1}(l-2),
    with C_0(0) = 1 and C_g(l) = 0 for g > l // 2.
    """
    before, row = [], [1]  # rows l - 2 and l - 1
    for l in itertools.count(1):
        yield row
        same, lower = 2 * (2 * l - 1), (l - 1) * (2 * l - 1) * (2 * l - 3)
        padded = row + [0]  # C_{l // 2}(l - 1) = 0 for even l
        new = []
        for g in range(l // 2 + 1):
            value, rest = divmod(same * padded[g] + (lower * before[g - 1] if g else 0), l + 1)
            assert rest == 0, f"Harer-Zagier recursion left a remainder at l={l}, g={g}"
            new.append(value)
        before, row = row, new


def moment_genus_expansion(l: int) -> list[int]:
    """Coefficients C_g(l) of N^{-2g} in m_2l, g = 0 .. floor(l/2): row l
    of the Harer-Zagier recursion, non-negative integers."""
    if l < 1:
        raise ValueError(f"moment_genus_expansion requires l >= 1, got {l}")
    return next(itertools.islice(_genus_rows(), l, None))


def rosette_count_formula(l: int, g: int) -> int:
    """C_g(l) = (2l)!/(l! 4^g) * [x^g] S(x)^n / n! with S(x) = sum_q x^q/(2q+1)
    and n = l - 2g + 1 (partition_term_sum), as an integer: the number of
    genus-g rosettes with l edges, and the coefficient of N^{-2g} in m_2l.
    It is 0 past the top genus l // 2, where 4^g alone could exhaust
    memory."""
    if l < 1 or g < 0:
        raise ValueError(f"rosette_count_formula requires l >= 1, g >= 0, got ({l}, {g})")
    if 2 * g > l:
        return 0
    value = Fraction(math.factorial(2 * l), math.factorial(l) * 4**g) * partition_term_sum(l, g)
    assert value.denominator == 1, f"C_g(l) must be an integer, got {value}"
    return int(value)


def _genus_series(counts, N: int) -> Fraction:
    """sum_g counts[g] N^{-2g}, as one integer sum over N^{2G}, G the top genus."""
    total = 0
    for count in counts:
        total = total * N * N + count
    return Fraction(total, N ** (2 * (len(counts) - 1)))


def _moment_rows(N: int):
    """m_2l = sum_g C_g(l) N^{-2g} for l = 0, 1, 2, ... in turn, one row of
    the recursion each."""
    return (_genus_series(counts, N) for counts in _genus_rows())


def harer_zagier_from_counts(N: int, p_max: int) -> list[Fraction]:
    """Coefficients of x^{p+1}, p = 1 .. p_max, rebuilt as
    sum_g C_g(p) N^{-2g} / (2p-1)!! from one walk of the recursion."""
    if N < 1 or p_max < 1:
        raise ValueError(
            f"harer_zagier_from_counts requires N >= 1, p_max >= 1, got ({N}, {p_max})")
    moments = itertools.islice(_moment_rows(N), 1, p_max + 1)
    return [m / double_factorial(2 * p - 1) for p, m in enumerate(moments, 1)]


def harer_zagier_closed(N: int, p_max: int) -> list[Fraction]:
    """Coefficients of x^{p+1}, p = 1 .. p_max, in (1/2)((1+x/N)/(1-x/N))^N - 1/2 - x.

    With y = x/N, ((1+y)/(1-y))^N = (1 + 2y/(1-y))^N
    = sum_j binom(N, j) (2y)^j (1-y)^{-j}, and [y^k] (1-y)^{-j} y^j is
    binom(k-1, j-1); so the coefficient of x^k, k >= 1, is the integer
    sum_{j=1..min(k,N)} binom(N, j) binom(k-1, j-1) 2^{j-1} over N^k.
    Each weight binom(N, j) 2^{j-1} is formed once, for every k.
    """
    if N < 1 or p_max < 1:
        raise ValueError(f"harer_zagier_closed requires N >= 1, p_max >= 1, got ({N}, {p_max})")
    weights = [math.comb(N, j) << (j - 1) for j in range(1, min(p_max + 1, N) + 1)]
    return [Fraction(sum(w * math.comb(k - 1, j) for j, w in enumerate(weights[:k])), N**k)
            for k in range(2, p_max + 2)]


def truncation_time(N: int) -> float:
    """Smallest scanned T with the Gaussian-times-polynomial envelope < 1e-12.

    The envelope exp(-T^2/2N) sum_q c_q T^2q = exp(-v/2) L^(1)_{N-1}(-v) / N,
    v = T^2/N, bounds |I| on the reals; all its terms are positive.
    """
    if N < 1:
        raise ValueError(f"truncation_time requires N >= 1, got {N}")
    T = _truncation_start(N)
    while True:
        v = T * T / N
        lag, count = _laguerre1(N - 1, -v)
        if count * _LOG_RESCALE - v / 2 + math.log(lag / N) < math.log(TAIL_EPSILON):
            return T
        T += 2.0


def _truncation_start(N: int) -> float:
    """sqrt(2N ln(1/TAIL_EPSILON)), where the Gaussian factor alone is down
    to TAIL_EPSILON: the first T truncation_time scans, so it never
    returns less."""
    return math.sqrt(2 * N * math.log(1.0 / TAIL_EPSILON))


def _wilson_transform(N: int, kernels, T: float, tol: float) -> list[float]:
    """integral_0^T k_i(t) I(t, N) dt for each real kernel row k_i.

    kernels takes a float64 array of nodes and returns the rows k_i there,
    as a list of arrays: with pointwise scalar math only where numpy
    rounds differently (cmath.exp), and with numpy where it is libm's
    function bit for bit (np.cos).  One integrate_real pass, each row to
    tol, with I(t, N) taken once per node for every row, as the float64
    array wilson_eval gives on the real axis; a list of floats, one per row.
    """
    import numpy as np

    return integrate_real(lambda t: np.asarray(kernels(t)) * wilson_eval(N, t), 0.0, T, tol)


def resolvent_laplace(N: int, z: complex) -> complex:
    """omega_N(z) = integral_0^inf exp(-zt) I(t, N) dt by truncated quadrature.

    |I(t, N)| <= 1 for real t, so past T each part's tail is below
    exp(-T Re z)/Re z; the integral runs over [0, T] with T the smaller of
    truncation_time(N) and ln(1/(TAIL_EPSILON min(Re z, 1)))/Re z: over
    the whole [0, truncation_time(N)], about 2.4 N long, the first Simpson
    nodes would see exp(-Re z t) = 0 and converge falsely.  Where the
    second is at most the scan's start, it is T with no scan (at the gate
    points below, at most 56.6 against 235 at N = 1000).  The real and
    imaginary parts are the two rows of one integrate_real pass, each to
    1e-10, that takes I once per node; that target is no bound.  Gated
    within 1e-8 of the genus expansion through N^-4 at N in {200, 300,
    1000}, z in {0.5+i, 1+2i, 1+5i, 2+i, 3+i}, where the worst point is
    4.1e-11 off (N = 1000, z = 1+5i).  Not gated near the cut, where the
    integrand oscillates over a long [0, T] and can still converge falsely:
    at z = 0.01+i it is 1.8e-8 off at N = 1000 and 3.5e-5 at N = 4000,
    against the same integral summed over pieces 8 wide.
    """
    z = complex(z)
    if z.real <= 0:
        raise ValueError(f"resolvent_laplace requires Re z > 0, got {z}")
    T = math.log(1.0 / (TAIL_EPSILON * min(z.real, 1.0))) / z.real
    if T > _truncation_start(N):  # else truncation_time(N), no less, need not scan
        T = min(truncation_time(N), T)

    def kernels(t):  # cmath.exp per point: numpy's complex exp rounds differently
        kernel = pointwise(lambda x: cmath.exp(-z * x), t)
        return [kernel.real, kernel.imag]

    return complex(*_wilson_transform(N, kernels, T, 1e-10))


@lru_cache(maxsize=16)
def _gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for weight exp(-x^2) by Golub-Welsch.

    Eigendecomposition of the Jacobi matrix stays stable for node counts
    where the classical weight formula (numpy's hermgauss) overflows.
    """
    import numpy as np

    off = np.sqrt(np.arange(1, n) / 2.0)
    jacobi = np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = np.linalg.eigh(jacobi)
    weights = math.sqrt(math.pi) * vecs[0] ** 2
    vals.setflags(write=False)
    weights.setflags(write=False)
    return vals, weights


def resolvent_quadrature(N: int, z: complex, nodes: int = DEFAULT_RESOLVENT_NODES) -> complex:
    """omega_N(z) from the two-variable Gaussian integral representation.

    Gauss-Hermite product rule matched to the exp(-N x^2 / 2) weight in
    each variable; restricted to Re z >= 1 to keep the (z - iA) pole well
    away from the integration axis, and to N <= 40.  There the default
    240-node rule agrees with resolvent_laplace to 1e-8 at every probed z
    (Re z from 1 to 100, |Im z| up to 20); beyond it the rule degrades
    (4e-3 off at N = 80, z = 1; 2.52 for 0.5000007 at N = 120, z = 1.5).
    Doubling `nodes` is no error estimate past small N: the doubled rule
    can be the worse one, so the difference of the two measures it, not
    the default rule.  At z = 1+5i the 480-node rule is 5.0e-10 off
    resolvent_laplace at N = 36 and 1.4e-7 at N = 40, where the default
    rule is 4.6e-11 and 1.3e-11 off; at N <= 20 the two rules agree.
    """
    z = complex(z)
    if not 1 <= N <= 40:
        raise ValueError(f"resolvent_quadrature requires 1 <= N <= 40, got {N}")
    if z.real < 1:
        raise ValueError(f"resolvent_quadrature requires Re z >= 1, got {z}")
    if nodes < 2:
        raise ValueError(f"need at least 2 quadrature nodes, got {nodes}")
    import numpy as np

    x, gw = _gauss_hermite(nodes)
    a = x * math.sqrt(2.0 / N)  # A nodes; D nodes are identical
    wts = gw / math.sqrt(math.pi)
    za = z - 1j * a
    zd = z - a
    term1 = np.outer(za ** -(N + 1), zd**N)
    term2 = (N + 1) / N * np.outer(za ** -(N + 2), zd ** (N - 1))
    return complex(wts @ (term1 + term2) @ wts)


def density_fourier_check(N: int, lam):
    """rho_N(lambda) recomputed as (1/2pi) integral of exp(-i lambda t) I(t, N).

    I(t, N) is even in t, so the integral reduces to the cosine transform
    over [0, T] with T from the Gaussian-decay truncation rule.  lam is a
    number, for a float, or a non-empty 1-d array of them, for a list of
    floats: one integrate_real pass with one row cos(lambda t) per
    lambda, each to 1e-11, that takes I(t, N) once per node for every row
    (the pass resolvent_laplace makes with its two rows).  A number is
    the one-row case, with the same bits.  Each row is np.cos of the whole
    node array: numpy's float64 cos is libm's cos, bit for bit, unlike its
    exp, so the rows are those of math.cos per node.
    """
    one = _is_point(lam)
    lams = [lam] if one else list(lam)
    if not lams:
        raise ValueError("need at least one lambda")
    import numpy as np

    value = _wilson_transform(N, lambda t: [np.cos(each * t) for each in lams],
                              truncation_time(N), 1e-11)
    return value[0] / math.pi if one else [each / math.pi for each in value]
