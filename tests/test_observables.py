import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from guekit.exact import integrate_real, pointwise
from guekit.observables import (
    density,
    density_eval,
    density_fourier_check,
    moment_exact,
    moment_genus_expansion,
    moment_table,
    resolvent_laplace,
    resolvent_quadrature,
    truncation_time,
    wigner_density,
    wilson_bound,
    wilson_eval,
    wilson_limit_partial,
    wilson_loop,
    wilson_taylor_coefficients,
)


# ---------------------------------------------------------------- Wilson loop

def test_wilson_coefficients_small_n():
    assert wilson_loop(1) == (Fraction(1),)
    assert wilson_loop(2) == (Fraction(1), Fraction(1, 4))
    assert wilson_loop(3) == (Fraction(1), Fraction(1, 3), Fraction(1, 54))


def test_wilson_coefficients_match_direct_formula():
    for N in range(1, 20):
        for q, c in enumerate(wilson_loop(N)):
            assert c == Fraction(math.comb(N, q + 1), N ** (q + 1) * math.factorial(q))
            assert c > 0


def test_wilson_rejects_size_zero():
    with pytest.raises(ValueError):
        wilson_loop(0)
    with pytest.raises(ValueError):
        wilson_eval(0, 1.0)
    with pytest.raises(ValueError):
        wilson_taylor_coefficients(0, 3)
    with pytest.raises(ValueError):
        truncation_time(0)


def test_coefficient_positivity_up_to_64():
    for N in (32, 64):
        assert all(c > 0 for c in wilson_loop(N))
        assert all(d > 0 for d in density(N))


def test_wilson_eval_limit_cases():
    assert wilson_eval(5, 0.0) == 1.0
    assert wilson_eval(1, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-15)
    # N=2: exp(-t^2/4)(1 - t^2/4) has a root at t=2
    assert abs(wilson_eval(2, 2.0)) < 1e-15
    ts = [0.3, 1.1, 2.7]
    for t in ts:
        assert wilson_eval(1, t).real == pytest.approx(
            math.exp(-t * t / 2), rel=1e-14
        )


def test_wilson_taylor_matches_moments():
    # up to the moments table sizes; this route multiplies the exp(-t^2/2N)
    # series into the c_q ladder and shares no sum with moment_exact
    for N in [*range(1, 9), 40, 1000]:
        coeffs = wilson_taylor_coefficients(N, 60)
        for l, c in enumerate(coeffs):
            assert c == moment_exact(N, l) / math.factorial(2 * l), (N, l)


def test_wilson_limit_partial_basics():
    assert wilson_limit_partial(0.0, 17) == 1.0
    assert wilson_limit_partial(1.0, 0) == 1.0


def test_wilson_limit_partial_is_bessel():
    # Independent oracle: sum_q (-t^2)^q / ((q+1)! q!) = J_1(2t) / t
    from scipy.special import j1

    for t in [0.25, 0.8, 1.5, 2.0, 3.0]:
        assert wilson_limit_partial(t, 60).real == pytest.approx(j1(2 * t) / t, abs=1e-13)


def test_wilson_limit_partial_approaches_large_n():
    for t in [0.5, 1.0, 2.0]:
        got = wilson_limit_partial(t, 80)
        ref = wilson_eval(512, t)
        assert abs(got - ref) < 1e-2


def test_wilson_bound_values_and_property():
    assert wilson_bound(1, 0.0) == 1.0
    assert wilson_bound(2, 1.0) == pytest.approx(math.exp(-0.25) * math.exp(2.0), rel=1e-14)
    rng = random.Random(7)
    for _ in range(50):
        N = rng.randrange(1, 17)
        t = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if abs(t) > 10:
            t *= 10 / abs(t)
        assert abs(wilson_eval(N, t)) <= wilson_bound(N, t) * (1 + 1e-12)


@pytest.mark.parametrize("N, t, exponent", [(8, 400, -9200.0), (8, 1e200 + 1j, -math.inf),
                                             (100, 360, 72.0)])
def test_wilson_bound_takes_one_exponent(N, t, exponent):
    # exp(2|t|) alone is past the float range at each t, the bound is not
    assert wilson_bound(N, t) == math.exp(exponent)
    assert abs(wilson_eval(N, t)) <= wilson_bound(N, t)


# -------------------------------------------------------------------- density

def test_density_hermite_reduction_symbolically():
    # (d/dlam)^{2q} e^{-N lam^2/2} = N^q He_2q(sqrt(N) lam) e^{-N lam^2/2}, q <= 3
    import sympy as sp

    lam = sp.Symbol("lam")
    n = sp.Symbol("n", positive=True)
    gauss = sp.exp(-n * lam**2 / 2)
    he = {0: sp.Integer(1)}
    x = sp.sqrt(n) * lam
    he[1] = x
    for m in range(1, 7):
        he[m + 1] = sp.expand(x * he[m] - m * he[m - 1])
    for q in range(4):
        lhs = sp.diff(gauss, lam, 2 * q)
        rhs = n**q * he[2 * q] * gauss
        assert sp.simplify(lhs - rhs) == 0


def test_density_n1_is_standard_gaussian():
    assert density_eval(1, 0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-15)
    for lam in [-2.0, -0.5, 0.7, 1.9]:
        assert density_eval(1, lam) == pytest.approx(
            math.exp(-lam * lam / 2) / math.sqrt(2 * math.pi), rel=1e-14
        )


def test_density_rejects_size_zero():
    with pytest.raises(ValueError):
        density(0)
    for N in (0, -1):
        with pytest.raises(ValueError):
            density_eval(N, 0.5)


def test_density_symmetry():
    for N in [2, 3, 7]:
        for lam in [0.1, 0.9, 1.7, 2.6]:
            assert abs(density_eval(N, lam) - density_eval(N, -lam)) <= 1e-12


def test_density_normalization_n2():
    val = integrate_real(lambda x: density_eval(2, x), -12.0, 12.0, 1e-10)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_density_tail_is_tiny_but_nonnegative():
    v = density_eval(3, 5.0)
    assert 0 < v < 1e-6


def test_density_never_dips_below_float_noise():
    # a sum of squared Hermite functions: positive by construction
    for N in (1, 4, 9, 16):
        for k in range(161):
            lam = -4.0 + 0.05 * k
            assert density_eval(N, lam) > 0


def test_density_normalization_extends_to_16():
    for N in (12, 16):
        val = integrate_real(lambda x: density_eval(N, x), -12.0, 12.0, 1e-10)
        assert val == pytest.approx(1.0, abs=1e-9)


def test_wigner_density():
    assert wigner_density(0.0) == pytest.approx(1 / math.pi, rel=1e-15)
    assert wigner_density(2.0) == 0.0
    assert wigner_density(-2.0) == 0.0
    val = integrate_real(lambda x: pointwise(wigner_density, x), -2.0, 2.0, 1e-10)
    assert val == pytest.approx(1.0, abs=1e-9)


# -------------------------------------------------------------------- moments

def test_moment_exact_values():
    assert moment_exact(1, 3) == 15  # scalar Gaussian: (2l-1)!!
    assert moment_exact(2, 2) == Fraction(9, 4)
    assert moment_exact(7, 0) == 1
    for N in [1, 2, 5]:
        assert moment_exact(N, 1) == 1


def test_moment_catalan_limit():
    # m_6(N) = 5 + 10/N^2 exactly, so the limit is the Catalan number 5
    for N in [1, 2, 4, 8, 16]:
        assert moment_exact(N, 3) == 5 + Fraction(10, N**2)


def test_moment_table():
    t = moment_table(3, 4)
    assert t[0] == 1
    assert all(v > 0 for v in t)
    assert t == tuple(moment_exact(3, l) for l in range(5))
    scalar = moment_table(1, 5)
    from guekit.exact import double_factorial

    assert scalar == tuple(double_factorial(2 * l - 1) for l in range(6))


def test_moment_genus_expansion_examples():
    assert moment_genus_expansion(1) == [Fraction(1)]
    assert moment_genus_expansion(2) == [Fraction(2), Fraction(1)]
    assert moment_genus_expansion(3) == [Fraction(5), Fraction(10)]
    assert moment_genus_expansion(3)[:1] == [Fraction(5)]


def test_moment_genus_expansion_resums_to_exact():
    for l in range(1, 7):
        coeffs = moment_genus_expansion(l)
        for N in range(1, 7):
            assert sum(c * Fraction(1, N ** (2 * g)) for g, c in enumerate(coeffs)) \
                == moment_exact(N, l)


# ------------------------------------------------------------------ resolvent

def test_resolvent_n1_closed_form():
    # omega_1(2) = int_0^inf e^{-2t} e^{-t^2/2} dt = e^2 sqrt(2 pi) Q(2),
    # Q the standard normal tail, evaluated through erfc as the oracle.
    from scipy.special import erfc

    ref = math.exp(2.0) * math.sqrt(2 * math.pi) * 0.5 * erfc(2 / math.sqrt(2))
    assert ref == pytest.approx(0.42137, abs=5e-6)
    assert abs(resolvent_quadrature(1, 2.0) - ref) < 1e-6
    assert abs(resolvent_laplace(1, 2.0) - ref) < 1e-6


def test_resolvent_routes_agree():
    assert abs(resolvent_quadrature(4, 3.0) - resolvent_laplace(4, 3.0)) < 1e-6
    assert abs(resolvent_quadrature(2, 3 + 1j) - resolvent_laplace(2, 3 + 1j)) < 1e-6
    assert abs(resolvent_quadrature(40, 1.5) - resolvent_laplace(40, 1.5)) < 1e-6


def test_resolvent_laplace_evaluates_each_node_once(monkeypatch):
    # the real and imaginary parts are two rows of one integrate_real pass,
    # and within it the endpoints shared by neighbouring initial panels are
    # evaluated once
    passes = []

    def integrates(f, a, b, tol):
        passes.append([])
        return integrate_real(f, a, b, tol)

    def counted(N, t):
        passes[-1].extend(t.tolist())
        return wilson_eval(N, t)

    monkeypatch.setattr("guekit.observables.integrate_real", integrates)
    monkeypatch.setattr("guekit.observables.wilson_eval", counted)
    resolvent_laplace(8, 1 + 2j)
    assert len(passes) == 1
    for nodes in passes:
        assert nodes and len(nodes) == len(set(nodes))


def test_resolvent_large_z_leading_term():
    val = resolvent_quadrature(2, 50.0)
    assert abs(50.0 * val - 1.0) < 1e-2
    lap = resolvent_laplace(2, 10.0)
    assert abs(10.0 * lap - 1.0) < 0.02


def test_resolvent_positive_real_part():
    val = resolvent_laplace(3, 1.0)
    assert val.real > 0
    assert cmath.isfinite(val)


def test_resolvent_quadrature_domain_checks():
    with pytest.raises(ValueError):
        resolvent_quadrature(2, 0.5)
    with pytest.raises(ValueError):
        resolvent_laplace(2, -1.0)
    with pytest.raises(ValueError):
        resolvent_quadrature(0, 2.0)
    with pytest.raises(ValueError):
        resolvent_quadrature(41, 2.0)


# -------------------------------------------------------------- Fourier route

def test_truncation_time_bounds_envelope():
    for N in [1, 4, 8]:
        T = truncation_time(N)
        total = sum(float(c) * T ** (2 * q) for q, c in enumerate(wilson_loop(N)))
        assert math.exp(-T * T / (2 * N)) * total < 1e-12


def test_density_fourier_check_gaussian_case():
    assert density_fourier_check(1, 0.0) == pytest.approx(
        1 / math.sqrt(2 * math.pi), abs=1e-8
    )


def test_density_fourier_matches_hermite_route():
    assert density_fourier_check(4, 1.0) == pytest.approx(
        density_eval(4, 1.0), abs=1e-8
    )
    assert density_fourier_check(2, -1.3) == pytest.approx(
        density_eval(2, -1.3), abs=1e-8
    )


def test_density_fourier_check_takes_an_array_of_lambda():
    # one pass, one row per lambda; a one-row array is the scalar call
    lams = np.array([0.0, 0.7, -1.2, 1.9, 2.8])
    got = density_fourier_check(8, lams)
    assert isinstance(got, list) and len(got) == lams.size
    for lam, value in zip(lams.tolist(), got):
        assert abs(value - density_eval(8, lam)) <= 1e-8
    assert density_fourier_check(8, np.array([0.7])) == [density_fourier_check(8, 0.7)]


@pytest.mark.parametrize("lams", [[], np.array([])])
def test_density_fourier_check_refuses_an_empty_lambda_array(lams):
    with pytest.raises(ValueError, match="need at least one lambda"):
        density_fourier_check(3, lams)


def test_written_out_constants_are_correctly_rounded():
    # 400 ln 2 and pi^(-1/4), against 200-bit mpmath: each literal is the
    # float nearest the exact value, within half an ulp of it
    mpmath = pytest.importorskip("mpmath")
    from guekit.observables import _LOG_RESCALE, _PI_TO_MINUS_QUARTER

    with mpmath.workprec(200):
        for literal, exact in [(_LOG_RESCALE, 400 * mpmath.log(2)),
                               (_PI_TO_MINUS_QUARTER, mpmath.pi ** mpmath.mpf(-0.25))]:
            assert literal == float(exact)
            assert abs(mpmath.mpf(literal) - exact) < mpmath.mpf(math.ulp(literal)) / 2

