"""Large-N accuracy of the float evaluators against a high-precision oracle.

The oracle takes the float argument t or lambda as the exact dyadic
rational it is, sums the polynomial part of I(t, N) or rho_N(lambda)
exactly in integers, multiplies by a 50-digit Decimal exponential and
rounds once to float64.  It shares no code with guekit.
"""

import cmath
import math
import random
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from guekit.exact import integrate_real
from guekit.observables import (
    density_eval,
    density_fourier_check,
    resolvent_laplace,
    truncation_time,
    wilson_eval,
)

DIGITS = 50
PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")

# Mean ulp distance to the oracle on the golden N = 8 grids (wilson t = 0..4
# in 81 steps, density lambda = -3..3 in 241 steps), measured for the float
# ladders these recurrences replaced: a Horner sum over float(c_q) and a
# float(c_q N^q) * He_2q sum.
LADDER_MEAN_ULPS = {"wilson": 29.12, "density": 17.38}


def _laguerre_numerators(N):
    """binom(N, q+1) (N-1)!/q! for q = 0 .. N-1: (N-1)! times the coefficients of L^(1)_{N-1}."""
    out, ratio = [], math.factorial(N - 1)
    for q in range(N):
        out.append(math.comb(N, q + 1) * ratio)
        ratio //= q + 1
    return out


def _homogeneous(coeffs, a, b):
    """sum_q coeffs[q] a^q b^(n-q), n = len(coeffs) - 1, in integers."""
    acc, b_power = coeffs[-1], 1
    for k in reversed(coeffs[:-1]):
        b_power *= b
        acc = acc * a + k * b_power
    return acc


def _decimal(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


def wilson_oracle(N, t):
    """exp(-u/2) L^(1)_{N-1}(u) / N, u = t^2/N, with L = sum_q binom(N, q+1) (-u)^q / q!."""
    u = Fraction(t) ** 2 / N
    poly = Fraction(_homogeneous(_laguerre_numerators(N), -u.numerator, u.denominator),
                    math.factorial(N) * u.denominator ** (N - 1))
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return float((-_decimal(u) / 2).exp() * _decimal(poly))


def density_oracle(N, lam):
    """sqrt(N/2pi) exp(-X/2) sum_q c_q N^q He_2q(x), x = sqrt(N) lambda, X = x^2.

    He_2j(x) = E_j(X) and He_2j+1(x) = x O_j(X) are run as the integers
    e_j = E_j b^j, o_j = O_j b^j, X = a/b, so no square root appears.
    """
    X = N * Fraction(lam) ** 2
    a, b = X.numerator, X.denominator
    num, e, o = 0, 1, 0
    for j, k in enumerate(_laguerre_numerators(N)):
        num += k * e * b ** (N - 1 - j)
        o = e - 2 * j * b * o
        e = a * o - (2 * j + 1) * b * e
    poly = Fraction(num, math.factorial(N) * b ** (N - 1))
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return float((Decimal(N) / (2 * PI)).sqrt() * (-_decimal(X) / 2).exp() * _decimal(poly))


def _ulps(got, want):
    return 0.0 if got == want else abs(got - want) / math.ulp(want)


def test_oracle_small_cases():
    assert wilson_oracle(1, 1.5) == math.exp(-1.125)
    assert wilson_oracle(2, 2.0) == 0.0  # exp(-t^2/4)(1 - t^2/4)
    assert density_oracle(1, 0.0) == 1 / math.sqrt(2 * math.pi)


@pytest.mark.parametrize("N, ts", [
    (40, [0.0, 0.7, 3.1, 16.5, 19.25, 40.0, 61.7, 80.0]),
    (100, [0.35, 2.9, 16.5, 40.0, 55.5, 80.0]),
    (300, [0.9, 1.6, 23.0, 47.3, 80.0]),
    (1000, [1.77, 40.0, 80.0]),
])
def test_wilson_matches_oracle_at_large_n(N, ts):
    for t in ts:
        assert abs(wilson_eval(N, t).real - wilson_oracle(N, t)) <= 1e-11, t


def test_wilson_keeps_its_digits_where_the_scale_underflows():
    # exp(count 400 ln 2 - u/2) is below the normal float range here while
    # the rescaled Laguerre value is near 2^400; their product is not.  From
    # t = 960 to 975 the factor is subnormal but not 0
    ts = [850 + 12.5 * k for k in range(29)] + [960 + 0.5 * k for k in range(31)]
    for t in ts:
        got, want = wilson_eval(300, t).real, wilson_oracle(300, t)
        if abs(want) >= sys.float_info.min:
            assert abs(got - want) <= 1e-12 * abs(want), t
        else:  # from t = 1025 on, I is below the float range (-1.6e-565 at t = 1200)
            assert abs(got - want) <= 1e-12 * sys.float_info.min, t


def _mpmath_wilson(N, t):
    """exp(-u/2) L^(1)_{N-1}(u) / N, u = t^2/N, at complex t in 60-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        u = mpmath.mpc(t) ** 2 / N
        return complex(mpmath.exp(-u / 2) * mpmath.laguerre(N - 1, 1, u) / N)


@pytest.mark.parametrize("N, t", [(300, 962.5), (300, 966.0), (300, 970.0), (300, 972.5),
                                  (300, 970 + 2j)])
def test_wilson_keeps_its_digits_where_the_scale_is_subnormal(N, t):
    # exp(count 400 ln 2 - u/2) is subnormal here, but not 0; multiplied
    # in whole, it left 4.5% error at t = 972.5
    got = wilson_eval(N, t)
    want = _mpmath_wilson(N, t) if isinstance(t, complex) else wilson_oracle(N, t)
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("N, t, real, imag", [
    # away from underflow the split leaves the bits alone
    (8, 1.5, "0x1.d1d941a4dde8cp-3", "0x0.0p+0"),
    (40, 3 + 1j, "-0x1.8716b2182289ap-3", "0x1.42313ff9adde9p-2"),
    (1000, 2500.0, "-0x1.510700f738894p-724", "0x0.0p+0"),
    # off the axis: the scale subnormal, then normal, then above e^432
    (300, 970 + 2j, "-0x1.b009bb60bc2cap-879", "-0x1.139c772101509p-877"),
    (300, 966 + 1j, "0x1.728dce57ca3cfp-863", "0x1.061a8d93c7237p-863"),
    (1000, 340j, "0x1.384affb9f1993p+971", "0x0.0p+0"),
])
def test_wilson_splits_the_scale_only_where_it_underflows_to_zero(N, t, real, imag):
    assert wilson_eval(N, t) == complex(float.fromhex(real), float.fromhex(imag))


@pytest.mark.parametrize("N, t", [(1, 100j), (1000, 1000j), (1000, 360j), (1, 38j)])
def test_wilson_refuses_imaginary_t_past_the_float_range(N, t):
    # e^{x^2/2N} L^(1)_{N-1}(-x^2/N)/N at t = ix: e^5000, about e^1212 and
    # about e^713 for the first three, e^722 at (1, 38j)
    with pytest.raises(ValueError, match=rf"wilson_eval\({N}, {t!r}\) is past the float range"):
        wilson_eval(N, t)


@pytest.mark.parametrize("t", [1e200j, -1e200j, 1e160 + 1e160j, complex(1e200, 2e200)])
def test_wilson_refuses_t_past_the_recurrences_bound(t):
    # |t^2/N| > 2^400 and the bound exp(2|t| - Re(t^2)/2N) is not below the
    # float range: a refusal in words, not an OverflowError from t**2 or the
    # NaN of inf - inf
    with pytest.raises(ValueError, match=re.escape(f"wilson_eval(8, {t!r}) is out of reach")):
        wilson_eval(8, t)


@pytest.mark.parametrize("t", [1e200 + 1j, complex(-1e200, -1e150), complex(1e62, 1e61)])
def test_wilson_is_zero_where_its_bound_is_below_the_float_range(t):
    assert _bits(wilson_eval(8, t)) == _bits(0j)


def _log_tight_bound(N, t):
    """-Re(u)/2 + N ln(1 + |u|) - ln(N |u|), u = t^2/N: the log of
    |I(t, N)| <= e^{-Re(u)/2} (1 + |u|)^N / (N |u|), which holds since
    |L^(1)_{N-1}(u)| <= sum_k binom(N, k+1) |u|^k.  Taken in logs with no
    float overflow: t/4 is exact, so Re(t^2) = 16 (x/4 - y/4)(x/4 + y/4);
    and |Re(u)/2| is capped at e^700, which dwarfs the other terms."""
    x, y = t.real / 4, t.imag / 4
    log_u = 2 * math.log(math.hypot(x, y)) + math.log(16 / N)
    log1p_u = log_u + math.log1p(math.exp(-log_u))  # |u| > 2^400 here
    re = (x - y) * (x + y)
    half = 0.0 if re == 0 else math.copysign(
        math.exp(min(math.log(abs(re)) + math.log(8 / N), 700.0)), re)
    return -half + N * log1p_u - (math.log(N) + log_u)


@pytest.mark.parametrize("N", [1, 2, 8, 1000, 10**6, 2**22])
def test_wilson_past_the_recurrences_bound_refuses_no_t_the_tight_bound_puts_below(N):
    # Past |t^2/N| = 2^400, wilson_eval gives 0 where its loose bound
    # exp(2|t| - Re(t^2)/2N) is below the float range and refuses elsewhere.
    # A nonzero Re(t^2) = (x - y)(x + y) is at least about |t|^2 2^-53,
    # which there dwarfs 2|t| and N ln(1 + |u|), and where Re(t^2) <= 0
    # neither bound is below the float range.  So in float64 the loose
    # bound and the tight one above answer alike: seeded points near the
    # four diagonals x = +-y, a few ulps off, |t| from the edge to 2^1023.
    rng = random.Random(N)
    floor = math.log(sys.float_info.min * sys.float_info.epsilon)
    low = (401 + math.log2(N)) / 2  # |t^2/N| > 2^400 at every point
    answers = {True: 0, False: 0}
    for _ in range(250):
        a = 2.0 ** rng.uniform(low, 1022.5)
        k = rng.randrange(-4, 5)  # b is k ulps from a
        b = a
        for _ in range(abs(k)):
            b = math.nextafter(b, math.copysign(math.inf, k))
        for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            for t in (complex(sx * a, sy * b), complex(sx * b, sy * a)):
                below = _log_tight_bound(N, t) < floor
                try:
                    value = wilson_eval(N, t)
                except ValueError as exc:
                    assert not below and "is out of reach" in str(exc), (N, t)
                else:
                    assert below and _bits(value) == _bits(0j), (N, t)
                answers[below] += 1
    assert min(answers.values()) > 0, answers  # both sides are reached


@pytest.mark.parametrize("t", [complex(math.nan, 1.0), complex(1.0, math.nan)])
def test_wilson_keeps_a_nan_part_off_the_real_axis(t):
    assert _bits(wilson_eval(8, t)) == _bits(complex(math.nan, math.nan))


def _mpmath_wilson_imaginary(N, x):
    """e^{x^2/2N} L^(1)_{N-1}(-x^2/N) / N, I(t, N) at t = ix, in 40-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        v = mpmath.mpf(x) ** 2 / N
        return mpmath.exp(v / 2) * mpmath.laguerre(N - 1, 1, -v) / N


@pytest.mark.parametrize("N, x", [(1000, 340.0), (1, 37.0), (1, 37.67), (8, 100.0), (1000, 300.0)])
def test_wilson_keeps_its_digits_just_inside_the_float_range(N, x):
    # (1000, 340) is about 2.4e292; (1, 37.67) is e^709.5, 1.3e308
    got = wilson_eval(N, x * 1j)
    want = _mpmath_wilson_imaginary(N, x)
    assert got.imag == 0
    assert abs(got.real - want) <= 1e-13 * want


@pytest.mark.parametrize("N, lams", [
    (40, [-3.0, -2.2, -1.0, 0.0, 0.31, 1.9999, 2.5, 3.0]),
    (100, [-3.0, -1.3, 0.0, 2.05, 3.0]),
    (300, [-2.7, 0.0, 1.5, 3.0]),
    (1000, [-2.6, 0.0, 1.3, 2.5, 3.0]),
])
def test_density_matches_oracle_at_large_n(N, lams):
    for lam in lams:
        got, want = density_eval(N, lam), density_oracle(N, lam)
        if want >= sys.float_info.min:
            assert got > 0, lam
            assert abs(got - want) <= 1e-12 * want, lam
        else:  # rho_1000(3) is about 1e-620, below every float64
            assert 0 <= got < sys.float_info.min, lam


def _mpmath_density(N, lam):
    """sqrt(N/2)/N sum_{k<N} phi_k(y)^2, y = sqrt(N/2) lambda, by the
    Hermite-function recurrence in 40-digit mpmath from the float lambda."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        y = mpmath.sqrt(mpmath.mpf(N) / 2) * lam
        prev, cur = mpmath.mpf(0), mpmath.pi**-0.25 * mpmath.exp(-y * y / 2)
        total = cur * cur
        for k in range(1, N):
            prev, cur = cur, (mpmath.sqrt(mpmath.mpf(2) / k) * y * cur
                              - mpmath.sqrt(mpmath.mpf(k - 1) / k) * prev)
            total += cur * cur
        return float(mpmath.sqrt(mpmath.mpf(N) / 2) / N * total)


def _mpmath_wilson_recurrence(N, t):
    """exp(-u/2) L^(1)_{N-1}(u) / N, u = t^2/N, by the Laguerre recurrence
    (k+1) L_{k+1} = (2k+2-u) L_k - (k+1) L_{k-1} in 40-digit mpmath from the float t."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        u = mpmath.mpf(t) ** 2 / N
        prev, cur = mpmath.mpf(0), mpmath.mpf(1)
        for k in range(N - 1):
            prev, cur = cur, (2 * k + 2 - u) * cur / (k + 1) - prev
        return float(mpmath.exp(-u / 2) * cur / N)


# Past N = 1000 the bound is set by the rounding of y^2 and of count 400 ln 2
# in the exponent: measured 2.9e-15, 7.4e-14 and 1.6e-12 at N = 10^4 and
# 3.2e-12 at N = 10^5.
@pytest.mark.parametrize("N, lam, tol", [
    (10**4, 0.8333, 5e-12),
    (10**4, 1.7, 5e-12),
    (10**4, 2.0001, 5e-12),
    (10**5, 1.7, 1e-11),
])
def test_density_matches_the_mpmath_recurrence_past_n1000(N, lam, tol):
    want = _mpmath_density(N, lam)
    assert abs(density_eval(N, lam) - want) <= tol * want


def test_wilson_matches_the_mpmath_recurrence_at_n1e5():
    # 4.1e-13 relative measured; I is about -1.9e-8 here
    want = _mpmath_wilson_recurrence(10**5, 1e5)
    assert abs(wilson_eval(10**5, 1e5).real - want) <= 1e-11 * abs(want)


@pytest.mark.parametrize("N", [1, 3, 1000])
@pytest.mark.parametrize("x", [1e10, 1e60, 1e150, 1e200])
def test_evaluators_underflow_to_zero_at_huge_arguments(N, x):
    # I(x, N) and rho_N(x) are below every float64 here; 1e60 still runs the
    # recurrences, the larger arguments are past their bound
    for arg in (x, -x):
        assert wilson_eval(N, arg) == 0
        assert density_eval(N, arg) == 0.0


def test_golden_grids_are_no_less_accurate_than_the_ladders():
    ts = [i * 4 / 80 for i in range(81)]
    lams = [-3 + i * 6 / 240 for i in range(241)]
    wilson = [_ulps(wilson_eval(8, t).real, wilson_oracle(8, t)) for t in ts]
    rho = [_ulps(density_eval(8, lam), density_oracle(8, lam)) for lam in lams]
    assert sum(wilson) / len(wilson) <= LADDER_MEAN_ULPS["wilson"]
    assert sum(rho) / len(rho) <= LADDER_MEAN_ULPS["density"]


def test_density_normalization_at_n120():
    total = integrate_real(lambda x: density_eval(120, x), -12.0, 12.0, 1e-10)
    assert abs(total - 1.0) <= 1e-9


def test_resolvent_laplace_at_n120_is_near_the_semicircle():
    z = 1 + 2j
    semicircle = (cmath.sqrt(z * z + 4) - z) / 2
    assert abs(resolvent_laplace(120, z) - semicircle) <= 1e-4


def _genus_expansion(N, z):
    """i sum_{g <= 2} N^{-2g} W_g(iz), with W_0 = (zeta - s)/2, W_1 = s^-5 and
    W_2 = 21 (zeta^2 + 1) s^-11, s = sqrt(zeta^2 - 4) on the branch that goes
    as zeta at infinity (Eynard, JHEP 2004)."""
    zeta = 1j * z
    s = cmath.sqrt(zeta - 2) * cmath.sqrt(zeta + 2)
    series = (zeta - s) / 2 + s**-5 / N**2 + 21 * (zeta * zeta + 1) * s**-11 / N**4
    return 1j * series


@pytest.mark.parametrize("N", [200, 300, 1000])
@pytest.mark.parametrize("z", [0.5 + 1j, 1 + 2j, 1 + 5j, 2 + 1j, 3 + 1j])
def test_resolvent_laplace_matches_the_genus_expansion(N, z):
    assert abs(resolvent_laplace(N, z) - _genus_expansion(N, z)) <= 1e-8


class _Scanned(Exception):
    pass


def test_resolvent_laplace_scans_only_past_the_scan_start(monkeypatch):
    # at the gate points ln(1/(1e-12 min(Re z, 1)))/Re z is at most 56.6,
    # below sqrt(2N ln 1e12) = 235, where the scan of truncation_time(1000)
    # starts and which it never undercuts; at z = 0.01+i it is 3224
    want = {0.5 + 1j: ("0x1.52d177bb9d89bp-1", "-0x1.739c80a22b31dp-2"),
            1 + 2j: ("0x1.3372c93d41dd9p-2", "-0x1.8031aa861543fp-2"),
            1 + 5j: ("0x1.62092040d6c0fp-5", "-0x1.97562d23af09dp-3"),
            2 + 1j: ("0x1.7d139c0e4423ap-2", "-0x1.15b9277dd5fc8p-3"),
            3 + 1j: ("0x1.2134e8c985138p-2", "-0x1.44823457fc13dp-4")}

    def scan(N):
        raise _Scanned(N)

    monkeypatch.setattr("guekit.observables.truncation_time", scan)
    for z, (real, imag) in want.items():
        assert resolvent_laplace(1000, z) == complex(float.fromhex(real), float.fromhex(imag)), z
    with pytest.raises(_Scanned):
        resolvent_laplace(1000, 0.01 + 1j)


@pytest.mark.parametrize("lam", [0.7, 2.5])
def test_density_fourier_check_at_n300(lam):
    assert abs(density_fourier_check(300, lam) - density_eval(300, lam)) <= 1e-10


@pytest.mark.parametrize("N", [120, 300])
def test_truncation_time_is_the_first_scanned_t_below_the_envelope(N):
    # exp(-T^2/2N) sum_q c_q T^2q = exp(-X/2) L^(1)_{N-1}(-X) / N, X = T^2/N,
    # summed exactly; its log is compared with log 1e-12 at T and at the
    # scan point before it
    def log_envelope(T):
        X = Fraction(T) ** 2 / N
        poly = Fraction(_homogeneous(_laguerre_numerators(N), X.numerator, X.denominator),
                        math.factorial(N) * X.denominator ** (N - 1))
        with localcontext() as ctx:
            ctx.prec = DIGITS
            return float(_decimal(poly).ln() - _decimal(X) / 2)

    T = truncation_time(N)
    assert log_envelope(T) < math.log(1e-12) <= log_envelope(T - 2.0)


def _bits(z):
    # float.hex tells -0.0 from 0.0, and a NaN part from a number
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _same_bits(array_values, scalar_values):
    return all(_bits(a) == _bits(b)
               for a, b in zip(array_values.tolist(), scalar_values, strict=True))


def test_same_bits_is_strict():
    assert _same_bits(np.array([complex(math.nan, math.nan)]), [complex(math.nan, math.nan)])
    assert not _same_bits(np.array([complex(math.nan, 0.0)]), [complex(math.nan, math.nan)])
    assert not _same_bits(np.array([-0.0]), [0.0])
    assert not _same_bits(np.array([0j]), [complex(0.0, -0.0)])


# around and past the 2^400 bound on u and y^2, past which the evaluators
# run the recurrence at 0 and return 0
_HUGE = [1e59, 1e60, 1e61, 1e62, 1e150, math.inf, math.nan]


class _CmathExpCalled(Exception):
    pass


def _exp_one_ulp_high(monkeypatch):
    exp = math.exp
    monkeypatch.setattr(math, "exp", lambda v: math.nextafter(exp(v), math.inf))


def _cmath_exp_raises(monkeypatch):
    def refuse(z):
        raise _CmathExpCalled(z)

    monkeypatch.setattr(cmath, "exp", refuse)


# the real axis has one exponential, math.exp, shared by a number and an
# array, and takes no complex arithmetic: a math.exp one ulp off moves both
# alike, and a cmath.exp that raises stops only a t off the axis
@pytest.mark.parametrize("N, stub", [pytest.param(N, None, id=str(N)) for N in (1, 8, 300, 1000)]
                         + [pytest.param(N, stub, id=f"{N}-{stub.__name__.strip('_')}")
                            for stub in (_exp_one_ulp_high, _cmath_exp_raises)
                            for N in (1, 8, 300, 1000)])
def test_array_evaluators_give_the_scalar_bits(N, stub, monkeypatch):
    # t up to 1300 and lambda up to 40 take the recurrences through their
    # rescales at N = 300 and 1000, and the Wilson scale through underflow
    ts = np.concatenate((np.linspace(0.0, 1300.0, 521), _HUGE, np.negative(_HUGE)))
    lams = np.concatenate((np.linspace(-40.0, 40.0, 641), _HUGE, np.negative(_HUGE)))
    unstubbed = wilson_eval(N, ts).tolist(), density_eval(N, lams).tolist()
    if stub:
        stub(monkeypatch)
    assert _same_bits(wilson_eval(N, ts), [wilson_eval(N, t) for t in ts.tolist()])
    assert _same_bits(density_eval(N, lams), [density_eval(N, lam) for lam in lams.tolist()])
    if stub is _exp_one_ulp_high:
        assert not _same_bits(wilson_eval(N, ts), unstubbed[0])
        assert not _same_bits(density_eval(N, lams), unstubbed[1])
    if stub is _cmath_exp_raises:
        with pytest.raises(_CmathExpCalled):
            wilson_eval(N, 1 + 1j)


def test_array_evaluators_keep_the_shape():
    grid = np.array([[0.0, 0.5], [1.5, 1e70]])
    assert density_eval(3, grid).shape == wilson_eval(3, grid).shape == (2, 2)
    assert wilson_eval(3, grid).dtype == float
    # any number, numpy scalars too, takes the scalar path: a number comes back
    for lam in (np.float64(0.5), np.int64(0), Fraction(1, 2), np.float32(0.5)):
        assert density_eval(3, lam) == density_eval(3, float(lam))
        assert not isinstance(density_eval(3, lam), np.ndarray)
    # a float on the real axis, a complex off it
    for t in (np.float32(0.5), np.int64(2), Fraction(1, 2)):
        assert wilson_eval(3, t) == wilson_eval(3, float(t))
        assert type(wilson_eval(3, t)) is float
    assert wilson_eval(3, np.complex64(1 + 1j)) == wilson_eval(3, complex(np.complex64(1 + 1j)))
    assert type(wilson_eval(3, np.complex64(1 + 1j))) is complex
    assert wilson_eval(300, np.float64(2000.0)) == wilson_eval(300, 2000.0)  # rescales
    assert density_eval(300, np.float64(30.0)) == density_eval(300, 30.0)
    with pytest.raises(TypeError):
        wilson_eval(3, np.array([1j]))
