"""Large-N accuracy of the float evaluators against a high-precision oracle.

The oracle takes the float argument t or lambda as the exact dyadic
rational it is, sums the polynomial part of I(t, N) or rho_N(lambda)
exactly in integers, multiplies by a 50-digit Decimal exponential and
rounds once to float64.  It shares no code with guekit.
"""

import cmath
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from guekit.exact import integrate_real
from guekit.observables import (
    density_eval,
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
])
def test_wilson_splits_the_scale_only_where_it_underflows_to_zero(N, t, real, imag):
    assert wilson_eval(N, t) == complex(float.fromhex(real), float.fromhex(imag))


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
# return 0 without running the recurrence
_HUGE = [1e59, 1e60, 1e61, 1e62, 1e150, math.inf, math.nan]


@pytest.mark.parametrize("N", [1, 8, 300, 1000])
def test_array_evaluators_give_the_scalar_bits(N):
    # t up to 1300 and lambda up to 40 take the recurrences through their
    # rescales at N = 300 and 1000, and the Wilson scale through underflow
    ts = np.concatenate((np.linspace(0.0, 1300.0, 521), _HUGE, np.negative(_HUGE)))
    lams = np.concatenate((np.linspace(-40.0, 40.0, 641), _HUGE, np.negative(_HUGE)))
    assert _same_bits(wilson_eval(N, ts), [wilson_eval(N, t) for t in ts.tolist()])
    assert _same_bits(density_eval(N, lams), [density_eval(N, lam) for lam in lams.tolist()])


def test_array_evaluators_keep_the_shape():
    grid = np.array([[0.0, 0.5], [1.5, 1e70]])
    assert density_eval(3, grid).shape == wilson_eval(3, grid).shape == (2, 2)
    assert wilson_eval(3, grid).dtype == complex
    # any number, numpy scalars too, takes the scalar path: a number comes back
    for lam in (np.float64(0.5), np.int64(0), Fraction(1, 2), np.float32(0.5)):
        assert density_eval(3, lam) == density_eval(3, float(lam))
        assert not isinstance(density_eval(3, lam), np.ndarray)
    for t in (np.complex64(1 + 1j), np.float32(0.5), np.int64(2), Fraction(1, 2)):
        assert wilson_eval(3, t) == wilson_eval(3, complex(t))
        assert type(wilson_eval(3, t)) is complex
    assert wilson_eval(300, np.float64(2000.0)) == wilson_eval(300, 2000.0)  # rescales
    assert density_eval(300, np.float64(30.0)) == density_eval(300, 30.0)
    with pytest.raises(TypeError):
        wilson_eval(3, np.array([1j]))
