"""Scalar (n = 1) forms: closed-form values, trichotomy, and agreement
with the general-dimension machinery."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxlattices.dim1 import (
    ScalarForms,
    evaluate,
    from_ab,
    is_invertible_1d,
    to_thetamu,
)
from cxlattices.errors import InternalCheckError, MajorizationFails, NumericOverflow
from cxlattices.kernel import Tolerance
from cxlattices.realmaps import (
    ConjugatePairForm,
    NormalizedForm,
    apply,
    contraction_check,
    is_invertible,
    majorizes,
    normalize_post_composition,
)

# bounded away from overflow and underflow so b/a stays representable
scalars = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


def as_conjugate_pair(f: ScalarForms) -> ConjugatePairForm:
    # T(z) = alpha z + beta conj(z) = M z + conj(N z) with N = conj(beta)
    return ConjugatePairForm([[f.alpha]], [[f.beta.conjugate()]])


def test_identity_map():
    f = from_ab(1, 1)
    assert f.alpha == 1 and f.beta == 0
    assert f.c == 1
    assert f.theta == 1 and f.mu == 0
    assert is_invertible_1d(f)


def test_frozen_example_a1_b2():
    f = from_ab(1, 2)
    assert f.alpha == 1.5
    assert f.beta == -0.5
    assert f.c == 2
    assert f.theta == 1.5
    assert f.mu == pytest.approx(-1 / 3, abs=1e-15)
    theta, mu = to_thetamu(f)
    assert theta == 1.5 and mu == pytest.approx(-1 / 3, abs=1e-15)


def test_frozen_example_b_equals_i():
    # alpha = (1+i)/2, beta = (1-i)/2 have equal modulus: not invertible
    f = from_ab(1, 1j)
    assert f.alpha == (1 + 1j) / 2
    assert f.beta == (1 - 1j) / 2
    assert f.c == 1j
    assert f.theta is None and f.mu is None
    assert not is_invertible_1d(f)
    with pytest.raises(MajorizationFails):
        to_thetamu(f)


def test_conjugation_dominant_is_invertible_but_fails():
    # alpha = 0, beta = 1: invertible, yet no theta/mu form exists
    f = from_ab(1, -1)
    assert f.alpha == 0 and f.beta == 1
    assert is_invertible_1d(f)
    assert f.theta is None
    with pytest.raises(MajorizationFails):
        to_thetamu(f)


def test_zero_map():
    f = from_ab(0, 0)
    assert f.c is None
    assert not is_invertible_1d(f)


def test_c_absent_exactly_when_a_zero():
    assert from_ab(0, 3 + 1j).c is None
    assert from_ab(2j, 0).c == 0


def test_evaluate_matches_ab_on_axes():
    f = from_ab(2 - 1j, 0.5 + 3j)
    # at z = x real: T = a x; at z = i y: T = i b y
    assert evaluate(f, 2.0) == pytest.approx(2 * (2 - 1j), abs=1e-15)
    assert evaluate(f, 3j) == pytest.approx(3j * (0.5 + 3j), abs=1e-15)


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        from_ab(float("nan"), 1)
    with pytest.raises(ValueError):
        from_ab(1, complex(float("inf"), 0))


def test_overflowing_quotient_rejected():
    with pytest.raises(ValueError):
        from_ab(1e-300, 1e300)


def test_overflowing_moduli_raise_numeric_overflow():
    # a and b are finite, but |b| and a - b overflow, or a + b does, or |a| does: one domain
    # error, where abs() used to raise OverflowError
    for a, b, label in ((1e308, complex(-1e308, 1.7e308), "b"), (1e308, 1e308, "alpha"),
                        (1e308, -1e308, "beta"), (complex(1.7e308, 1.7e308), 1.0, "a")):
        with pytest.raises(NumericOverflow, match=f"^\\|{label}\\| overflows"):
            from_ab(a, b)
    # at the edge, finite moduli still give every form
    f = from_ab(1e308, 1e308j)
    assert (f.alpha, f.beta, f.c) == (complex(5e307, 5e307), complex(5e307, -5e307), 1j)
    assert f.theta is None and not is_invertible_1d(f)


def test_scalar_forms_built_directly_refuse_an_overflowing_modulus():
    # ScalarForms is public: a finite field whose modulus overflows raises the same domain
    # error as from_ab, where abs() in its checks used to raise OverflowError
    with pytest.raises(NumericOverflow, match="^\\|a\\| overflows; rescale the map first$"):
        ScalarForms(a=complex(1.7e308, 1.7e308), b=1, alpha=1, beta=1, c=None, theta=None, mu=None)
    with pytest.raises(NumericOverflow, match="^\\|beta\\| overflows"):
        ScalarForms(a=1, b=1, alpha=1, beta=complex(-1e308, 1.7e308), c=None, theta=None, mu=None)


def test_scalar_forms_drift_whose_modulus_overflows_is_a_drift():
    # finite fields whose moduli are finite but inconsistent: |alpha + beta - a| is past the
    # largest double, which abs() raised as OverflowError; it is a drift past every bound
    with pytest.raises(InternalCheckError, match="^alpha \\+ beta drifted from a$"):
        ScalarForms(a=0, b=0, alpha=complex(1e308, 1e308), beta=complex(0.7e308, 0.7e308),
                    c=None, theta=None, mu=None)
    # |mu| past the largest double fails |mu| < 1 the same way
    with pytest.raises(InternalCheckError, match="^theta form requires theta != 0 and \\|mu\\| < 1$"):
        ScalarForms(a=1, b=1, alpha=1, beta=0, c=1, theta=1, mu=complex(1.5e308, 1.5e308))


def test_scalar_forms_invariants_enforced():
    with pytest.raises(InternalCheckError):
        ScalarForms(a=1, b=1, alpha=1, beta=1, c=None, theta=None, mu=None)
    with pytest.raises(InternalCheckError):
        ScalarForms(a=0, b=0, alpha=0, beta=0, c=1, theta=None, mu=None)
    with pytest.raises(InternalCheckError):
        ScalarForms(a=1, b=1, alpha=1, beta=0, c=1, theta=1, mu=None)
    with pytest.raises(InternalCheckError):
        # |mu| >= 1 is not a valid normalized form
        ScalarForms(a=2, b=0, alpha=1, beta=1, c=0, theta=1, mu=1)


@given(a=scalars, b=scalars)
@settings(max_examples=150, deadline=None)
def test_trichotomy(a, b):
    f = from_ab(a, b)
    invertible = is_invertible_1d(f)
    dominant = f.theta is not None
    if dominant:
        # holomorphic-dominant maps are invertible with |mu| < 1
        assert invertible
        assert abs(f.mu) < 1
        theta, mu = to_thetamu(f)
        assert theta == f.theta and mu == f.mu
    else:
        with pytest.raises(MajorizationFails):
            to_thetamu(f)
    if not invertible:
        assert not dominant


@given(a=scalars, b=scalars)
@settings(max_examples=150, deadline=None)
def test_re_c_criterion(a, b):
    # det of the realification is |a|^2 Re(c); stay out of the margin band
    f = from_ab(a, b)
    gap = abs(abs(f.alpha) - abs(f.beta))
    scale = abs(f.alpha) + abs(f.beta)
    if gap <= 1e-6 * scale:
        return
    assert is_invertible_1d(f) == (abs(f.c.real) > 0)


def test_re_c_zero_means_singular():
    # b = i t a for real t gives purely imaginary c, hence singular maps
    for a, t in [(1 + 2j, 0.7), (3j, -2.0), (0.5 - 0.5j, 1.0)]:
        f = from_ab(a, 1j * t * a)
        assert f.c == pytest.approx(1j * t, abs=1e-15)
        assert not is_invertible_1d(f)


@given(a=scalars, b=scalars, z=scalars)
@settings(max_examples=100, deadline=None)
def test_agrees_with_general_apply(a, b, z):
    f = from_ab(a, b)
    cp = as_conjugate_pair(f)
    got = complex(apply(cp, np.array([z]))[0])
    want = evaluate(f, z)
    assert abs(got - want) <= 1e-12 * (abs(want) + abs(a) + abs(b))


@given(a=scalars, b=scalars)
@settings(max_examples=150, deadline=None)
def test_agrees_with_general_invertibility(a, b):
    f = from_ab(a, b)
    gap = abs(abs(f.alpha) - abs(f.beta))
    scale = abs(f.alpha) + abs(f.beta)
    if gap <= 1e-6 * max(scale, 1e-6):
        return
    assert is_invertible_1d(f) == is_invertible(as_conjugate_pair(f))


@given(a=scalars, b=scalars)
@settings(max_examples=100, deadline=None)
def test_majorization_matches_theta_form(a, b):
    f = from_ab(a, b)
    gap = abs(abs(f.alpha) - abs(f.beta))
    scale = abs(f.alpha) + abs(f.beta)
    if gap <= 1e-6 * scale:
        return
    assert majorizes(as_conjugate_pair(f)) == (f.theta is not None)


def test_normalized_factor_is_conj_mu():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        f = from_ab(a, b)
        if f.theta is None:
            continue
        g, norm = normalize_post_composition(as_conjugate_pair(f))
        assert complex(g[0, 0]) == pytest.approx(f.alpha, rel=1e-12)
        assert complex(norm.e[0, 0]) == pytest.approx(f.mu.conjugate(), rel=1e-10, abs=1e-12)
        assert contraction_check(norm)


def test_contraction_check_passes_for_theta_form():
    f = from_ab(1, 0.5 + 0.25j)
    assert f.mu is not None
    assert contraction_check(NormalizedForm([[f.mu.conjugate()]]))


def test_wide_tolerance_widens_margin():
    # alpha = 1, beta = 1 - 1e-6: invertible at default tol, not at rel = 1e-3
    delta = 1e-6
    f = from_ab(2 - delta, delta)
    assert is_invertible_1d(f)
    wide = Tolerance(rel=1e-3, abs=1e-6)
    assert not is_invertible_1d(from_ab(2 - delta, delta, tol=wide), tol=wide)


def test_thetamu_respects_tolerance_margin():
    # alpha = 1, beta = 1 - 5e-3: the gap sits inside a 1e-2 relative margin
    delta = 5e-3
    wide = Tolerance(rel=1e-2, abs=1e-6)
    f = from_ab(2 - delta, delta, tol=wide)
    assert f.theta is None
    with pytest.raises(MajorizationFails):
        to_thetamu(f, tol=wide)
    # same numbers clear the default margin easily
    assert from_ab(2 - delta, delta).theta is not None


def test_to_thetamu_on_subnormal_pairs_raises_only_majorization_fails():
    # alpha, beta and mu are rounded in the subnormal range; the theta/mu form is
    # alpha, beta / alpha, gated by from_ab's test, with no second evaluation check
    rng = np.random.default_rng(5)
    refused = 0
    for _ in range(2000):
        r = math.ldexp(1.0, -int(rng.integers(1015, 1075)))
        a, b = (rho * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi)) for rho in (r, 0.5 * r))
        f = from_ab(a, b)
        try:
            theta, mu = to_thetamu(f)
        except MajorizationFails:
            refused += 1
            continue
        assert (theta, mu) == (f.alpha, f.beta / f.alpha)
    assert 0 < refused < 2000
