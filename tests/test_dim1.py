"""Scalar (n = 1) forms: closed-form values, trichotomy, and agreement
with the general-dimension machinery."""

import cmath
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cxlattices
from cxlattices import jsonio
from cxlattices.dim1 import (
    ScalarForms,
    _margin,
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
EPS = sys.float_info.epsilon


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


def test_scalar_forms_drift_is_bounded_relative_to_the_maps_size():
    # at a = 1e-12, b = 0, alpha + beta = 0 misses a by 100 %: T(i) would read 1e-9 i where
    # i b = 0.  A bound with an absolute 1e-9 in it accepted this form
    with pytest.raises(InternalCheckError, match="^alpha \\+ beta drifted from a$"):
        ScalarForms(a=1e-12, b=0, alpha=5e-10, beta=-5e-10, c=0, theta=None, mu=None)
    # the same form scaled to unit size, and a drift of a few units of the smallest subnormal
    with pytest.raises(InternalCheckError, match="^alpha \\+ beta drifted from a$"):
        ScalarForms(a=1.0, b=0, alpha=500.0, beta=-500.0, c=0, theta=None, mu=None)
    ScalarForms(a=0, b=0, alpha=1e-323, beta=-5e-324, c=None, theta=None, mu=None)
    # from_ab's own forms pass, also where b / a is rounded through a subnormal denominator
    # (about 4e-6 off here) and where alpha and beta round on the subnormal grid
    for a, b in (
        (complex(2.98564e-319, -4.12955e-319), complex(2.3905017731885474e-11, -1.9756501598015582e-11)),
        (complex(-4.7243792e-316, -6.1706121e-316), complex(5.4e-323, -4e-323)),
        (5e-324, 5e-324),
    ):
        dataclasses.replace(from_ab(a, b))


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


def test_to_thetamu_of_a_hand_built_form_with_zero_alpha_raises_majorization_fails():
    # alpha = beta = 0 is within the constructor's drift bound, a few units of the smallest
    # subnormal, of a = b = 5e-324: the margin of a and b is 1, yet beta / alpha has no value
    f = ScalarForms(a=5e-324, b=5e-324, alpha=0, beta=0, c=1, theta=None, mu=None)
    with pytest.raises(MajorizationFails):
        to_thetamu(f)


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



def _exact_margin(a: complex, b: complex) -> Decimal:
    """(|alpha|^2 - |beta|^2) / (|alpha| + |beta|)^2 of the doubles a, b in exact arithmetic:
    Re(a conj(b)) as a Fraction, the moduli |a + b| and |a - b| to 100 digits."""
    (ar, ai), (br, bi) = ((Fraction(z.real), Fraction(z.imag)) for z in (a, b))
    with localcontext() as ctx:
        ctx.prec = 100

        def decimal(q: Fraction) -> Decimal:
            return Decimal(q.numerator) / Decimal(q.denominator)

        s = (decimal((ar + br) ** 2 + (ai + bi) ** 2).sqrt()
             + decimal((ar - br) ** 2 + (ai - bi) ** 2).sqrt()) / 2
        return decimal(ar * br + ai * bi) / (s * s) if s else Decimal(0)


def _gaussian(rng) -> complex:
    return complex(*rng.standard_normal(2))


def _draws(family: str, rng, count: int):
    """Seeded (a, b) pairs of one family."""
    for _ in range(count):
        if family == "gaussian":
            yield _gaussian(rng), _gaussian(rng)
        elif family == "near-equal moduli":  # |beta| = |alpha| (1 + delta), 1e-16 <= |delta| <= 1e-2
            alpha = _gaussian(rng)
            delta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16, -2)
            beta = abs(alpha) * (1 + delta) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            yield alpha + beta, alpha - beta
        elif family == "powers of two":  # 2^k, k in [-1070, 1020]: subnormals included
            yield tuple(_gaussian(rng) * math.ldexp(1.0, int(rng.integers(-1070, 1021))) for _ in "ab")
        else:  # a = 1 against |b| up to 1e308
            yield 1.0 + 0j, 10.0 ** rng.uniform(0, 308) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


@pytest.mark.parametrize("family", ["gaussian", "near-equal moduli", "powers of two", "a = 1 against huge b"])
def test_margin_and_verdicts_agree_with_exact_arithmetic(family):
    rng = np.random.default_rng(34)
    tols = [Tolerance(rel=rel) for rel in (1e-9, 1e-3, 1e-15)]
    for a, b in _draws(family, rng, 1500):
        exact = _exact_margin(a, b)
        assert abs(Decimal(_margin(a, b)) - exact) <= 4 * Decimal(EPS), (a, b, exact)
        try:
            forms = [from_ab(a, b, tol) for tol in tols]
        except ValueError:
            # from_ab refuses a quotient b / a past the largest double; the margin still holds
            assert not cmath.isfinite(b / a), (a, b)
            continue
        normal = all(p == 0 or abs(p) >= sys.float_info.min
                     for z in (a, b, forms[0].alpha, forms[0].beta) for p in (z.real, z.imag))
        for tol, f in zip(tols, forms):
            dataclasses.replace(f)  # the hand-built constructor accepts from_ab's forms
            rel = Decimal(tol.rel)
            if abs(abs(exact) - rel) <= 4 * Decimal(EPS):
                continue  # within rounding of the threshold: either verdict is right
            assert is_invertible_1d(f, tol) == (abs(exact) > rel), (a, b, tol, exact)
            if f.theta is not None:
                assert exact > rel and abs(f.mu) < 1, (a, b, tol, exact)
            elif normal:
                assert not exact > rel, (a, b, tol, exact)


# each once exited 1 with InternalCheckError from the scalar / realified cross-check: a
# subnormal pair at the default tolerance (exact margin -2.13e-9), and two pairs whose
# margin is about 5.9e-309 at the smallest tol.rel
REPROS = [
    ('{"a": [-4.7243792e-316, -6.1706121e-316], "b": [5.4e-323, -4e-323]}', []),
    ('{"a": [1, 0], "b": [1.7e308, 0]}', ["--tol-rel", "5e-324"]),
    ('{"a": [1, 1.7e+308], "b": [0, 1]}', ["--tol-rel", "5e-324"]),
]


@pytest.mark.parametrize("text, options", REPROS)
def test_repros_give_the_exact_verdict_in_the_library_and_the_command_line(text, options):
    a, b = (complex(*json.loads(text)[key]) for key in "ab")
    tol = Tolerance(rel=float(options[1])) if options else Tolerance()
    exact = _exact_margin(a, b)
    f = from_ab(a, b, tol)
    assert abs(exact) > Decimal(tol.rel) and is_invertible_1d(f, tol)
    src = str(pathlib.Path(cxlattices.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "cxlattices.cli", "dim1-forms", *options],
                          input=text, capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    out = json.loads(proc.stdout)
    assert proc.stdout == jsonio.dumps_canonical(out)  # one canonical line
    assert out["status"] == "ok" and out["payload"]["invertible"] is True
    assert out["payload"]["mu"] == (None if f.mu is None else [f.mu.real, f.mu.imag])


@pytest.mark.parametrize("a, b", [(1, 1j + 1e-17), (1, 1.7e308), (complex(1, 1.7e308), 1j)])
def test_theta_mu_is_kept_only_where_the_computed_mu_is_below_one(a, b):
    # |alpha| > |beta| in exact arithmetic, by a margin under eps / 4: alpha and beta round
    # to equal moduli, so beta / alpha would have |mu| = 1.  The map is invertible, with no
    # theta/mu form, and the hand-built constructor accepts the forms
    tol = Tolerance(rel=5e-324)
    assert 0 < _exact_margin(complex(a), complex(b)) < EPS / 4
    f = from_ab(a, b, tol)
    assert abs(f.beta / f.alpha) == 1.0
    assert (f.theta, f.mu) == (None, None)
    assert is_invertible_1d(f, tol)
    with pytest.raises(MajorizationFails):
        to_thetamu(f, tol)
    assert dataclasses.replace(f) == f
