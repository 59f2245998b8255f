"""Tests for polar decomposition, gram invariants, and determinant scaling."""

import math

import numpy as np
import pytest

from cxlattices import Tolerance
from cxlattices.errors import (
    DimensionMismatch,
    NotInSL,
    NotPositiveDefinite,
    NotSelfAdjoint,
    NumericOverflow,
    SingularMatrix,
)
from cxlattices.kernel import DEFAULT_TOL, fro, hermitian_eig, invertibility_margin
from cxlattices.polar import (
    GramForm,
    as_gram_form,
    classify,
    gram,
    polar,
    sl_normalize,
    spd_sqrt,
    su_sl_canonical,
    unitarily_equivalent,
)


def random_invertible(rng, n, min_cond=1e-3):
    while True:
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] / s[0] > min_cond:
            return a


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def svd_polar_oracle(a):
    # independent route: A = W S Vh gives U = W Vh, P = Vh* S Vh
    w, s, vh = np.linalg.svd(a)
    return w @ vh, vh.conj().T @ np.diag(s) @ vh


# --- frozen examples ---


def test_polar_scalar_example():
    u, p = polar([[2j]])
    assert u[0, 0] == pytest.approx(1j)
    assert p.matrix[0, 0] == pytest.approx(2.0)


def test_spd_sqrt_frozen_2x2():
    # eigenpairs of [[2,1],[1,2]] are (1, (1,-1)) and (3, (1,1)); the root
    # therefore has entries ((sqrt3+1)/2, (sqrt3-1)/2) on/off the diagonal
    q = spd_sqrt(GramForm([[2.0, 1.0], [1.0, 2.0]]))
    expected = np.array(
        [[1.3660254037844386, 0.3660254037844386], [0.3660254037844386, 1.3660254037844386]]
    )
    assert np.allclose(q.matrix, expected, atol=1e-12)


def test_gram_frozen_example():
    p = gram([[0.0, 2.0], [1.0, 0.0]])
    assert np.allclose(p.matrix, np.diag([1.0, 4.0]), atol=1e-12)


def test_sl_normalize_principal_branch_diag():
    out, delta = sl_normalize(np.diag([1j, 1.0]))
    assert delta == pytest.approx(np.exp(1j * np.pi / 4))
    assert np.allclose(np.diag(out), [np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])


def test_sl_normalize_negative_determinant_lands_on_branch_edge():
    # det = -1, argument pi; the principal square root keeps arg pi/2, so delta = i
    out, delta = sl_normalize(np.diag([1.0, -1.0]))
    assert delta == pytest.approx(1j)
    assert np.allclose(np.diag(out), [-1j, 1j])


# --- classify ---


def test_classify_rotation_is_special_unitary():
    c, s = np.cos(0.3), np.sin(0.3)
    m = classify([[c, -s], [s, c]])
    assert m.in_gl and m.in_u and m.in_sl and m.in_su
    assert m.abs_det == pytest.approx(1.0)
    assert m.unitarity_defect < 1e-12


def test_classify_diagonal_stretch():
    m = classify(np.diag([2.0, 1.0]))
    assert m.in_gl
    assert not m.in_u and not m.in_sl and not m.in_su
    assert m.abs_det == pytest.approx(2.0)


def test_classify_unit_determinant_but_not_unitary():
    m = classify(np.diag([2.0, 0.5]))
    assert m.in_sl and m.in_gl
    assert not m.in_u and not m.in_su
    assert m.det_distance < 1e-12


def test_classify_unitary_phase_not_special():
    m = classify([[1j]])
    assert m.in_u and not m.in_sl and not m.in_su


def test_classify_singular():
    m = classify([[1.0, 1.0], [1.0, 1.0]])
    assert not (m.in_gl or m.in_sl or m.in_u or m.in_su)


def test_classify_reads_a_determinant_past_the_doubles():
    # numpy's det of the first is nan+nanj and of the second (1e400) inf+nanj; classify
    # retakes each on A 2^-e by the kernel's scale rule, without a warning
    a = np.array([[0, 5e-324], [5e-324, 0]])
    m = classify(a)
    assert m.in_gl and not m.in_sl
    assert (m.abs_det, m.det_distance) == (0.0, 1.0)
    with pytest.raises(NotInSL, match="distance from one is 1.000e\\+00$"):
        su_sl_canonical(a)
    m = classify(np.eye(8) * 1e50)
    assert m.in_gl and not m.in_sl
    assert (m.abs_det, m.det_distance) == (np.inf, np.inf)


def test_classify_keeps_the_determinants_bits_where_it_is_a_finite_normal_double():
    rng = np.random.default_rng(71)
    for n in (1, 2, 3, 8):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        d = complex(np.linalg.det(a))
        m = classify(a)
        assert (m.abs_det, m.det_distance) == (abs(d), abs(d - 1.0))


def test_classify_reads_a_unitarity_defect_past_the_doubles_without_a_warning():
    # A* A of 1e200 I overflows: the defect is taken on A 2^-e and scaled back by 4^e, inf
    # here; a matrix whose A* A would hold inf - inf reads inf too, never NaN
    for a in (np.eye(2) * 1e200, np.array([[1e200, 1e200], [1e200, -1e200]]),
              np.array([[1e308, 1e308j], [-1e308, 1e308]])):
        m = classify(a)
        assert not m.in_u and not m.in_su
        assert m.unitarity_defect == np.inf
    # from sigma_max = 2^511 on, the scaled route; the defect sqrt(2) (4^511 - 1) is finite
    assert classify(np.eye(2) * 2.0**511).unitarity_defect == math.sqrt(2.0) * (4.0**511 - 1.0)


def test_classify_keeps_the_defects_bits_below_the_scaled_route():
    rng = np.random.default_rng(72)
    for n in (1, 2, 3, 8):
        for scale in (1.0, 1e-150, 1e150, 2.0**510):
            a = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * scale
            a *= 2.0**510 / np.linalg.norm(a, 2) if scale == 2.0**510 else 1.0
            assert classify(a).unitarity_defect == fro(a.conj().T @ a - np.eye(n))


def test_classify_implication_chain_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = classify(a)
        assert m.in_su == (m.in_u and m.in_sl)
        if m.in_sl or m.in_u:
            assert m.in_gl


# --- polar ---


def test_polar_matches_svd_oracle():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 5, 8):
        for _ in range(20):
            a = random_invertible(rng, n)
            u, p = polar(a)
            uo, po = svd_polar_oracle(a)
            scale = np.linalg.norm(a)
            assert np.linalg.norm(u - uo) <= 1e-8 * max(scale, 1.0)
            assert np.linalg.norm(p.matrix - po) <= 1e-8 * max(scale, 1.0)


def test_polar_factors_are_sound():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        a = random_invertible(rng, n)
        u, p = polar(a)
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) < 1e-9 * n
        assert np.min(np.linalg.eigvalsh(p.matrix)) > 0
        assert np.linalg.norm(u @ p.matrix - a) <= 1e-9 * max(np.linalg.norm(a), 1.0)


def test_polar_of_unitary_has_identity_stretch():
    rng = np.random.default_rng(13)
    q = random_unitary(rng, 4)
    u, p = polar(q)
    assert np.allclose(p.matrix, np.eye(4), atol=1e-10)
    assert np.allclose(u, q, atol=1e-10)


def test_polar_of_spd_has_identity_direction():
    b = np.array([[3.0, 1.0], [1.0, 2.0]])
    u, p = polar(b)
    assert np.allclose(u, np.eye(2), atol=1e-10)
    assert np.allclose(p.matrix, b, atol=1e-10)


def test_polar_ill_conditioned_fallback():
    # condition numbers 1e4 to 1e8 square to 1e8 to 1e16 in A* A, past the positivity
    # gate of a Gram-matrix route; polar must still deliver machine-precision factors
    rng = np.random.default_rng(14)
    q1 = random_unitary(rng, 3)
    q2 = random_unitary(rng, 3)
    a = q1 @ np.diag([1.0, 1e-2, 1e-6]) @ q2
    u, p = polar(a)
    assert np.linalg.norm(u.conj().T @ u - np.eye(3)) < 1e-10
    assert np.linalg.norm(u @ p.matrix - a) <= 1e-9
    uo, _ = svd_polar_oracle(a)
    assert np.linalg.norm(u - uo) < 1e-7
    for n in (2, 3, 8):
        for _ in range(20):
            ratio = 10.0 ** rng.uniform(-8.0, -4.0)
            s = np.sort(10.0 ** rng.uniform(np.log10(ratio), 0.0, n))[::-1]
            s[0], s[-1] = 1.0, ratio
            a = random_unitary(rng, n) @ np.diag(s) @ random_unitary(rng, n)
            u, p = polar(a)
            uo, po = svd_polar_oracle(a)
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) < 1e-10
            assert np.linalg.norm(u @ p.matrix - a) <= 1e-9
            assert np.linalg.norm(p.matrix - po) <= 1e-9
            assert np.linalg.norm(u - uo) < 1e-7
            assert np.min(np.linalg.eigvalsh(p.matrix)) > 0.0


def test_polar_deterministic():
    rng = np.random.default_rng(15)
    a = random_invertible(rng, 4)
    u1, p1 = polar(a)
    u2, p2 = polar(a)
    assert np.array_equal(u1, u2)
    assert np.array_equal(p1.matrix, p2.matrix)


def test_polar_rejects_singular():
    with pytest.raises(SingularMatrix):
        polar([[1.0, 1.0], [1.0, 1.0]])


def test_polar_output_locked():
    u, p = polar([[2j]])
    assert not u.flags.writeable
    assert not p.matrix.flags.writeable


# --- gram and unitary equivalence ---


def test_gram_left_unitary_invariance():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        a = random_invertible(rng, n)
        q = random_unitary(rng, n)
        p1 = gram(a)
        p2 = gram(q @ a)
        assert np.linalg.norm(p1.matrix - p2.matrix) <= 1e-9 * np.linalg.norm(a) ** 2


def with_ratio(rng, n, ratio):
    """Random n x n complex matrix with Haar factors, sigma_max = 1 and sigma_min = ratio."""
    s = np.sort(10.0 ** rng.uniform(np.log10(ratio), 0.0, n))[::-1]
    s[0], s[-1] = 1.0, ratio
    return random_unitary(rng, n) @ np.diag(s) @ random_unitary(rng, n).conj().T


def test_gram_succeeds_exactly_when_the_gate_accepts():
    # sigma_min / sigma_max log-uniform in [1e-12, 1e-3]: A* A has eigenvalue ratio down to
    # 1e-24, and one positivity rule (the root margin) makes gram agree with the gate
    tol = Tolerance()
    rng = np.random.default_rng(4601)
    disagree = []
    for k in range(300):
        n = int(rng.integers(2, 7))
        a = with_ratio(rng, n, 10.0 ** rng.uniform(-12.0, -3.0))
        ok, _ = invertibility_margin(a, tol)
        try:
            gram(a, tol)
            built = True
        except SingularMatrix:
            built = False
        if built != ok:
            disagree.append(k)
    assert disagree == []


def test_spd_sqrt_accepts_every_form_gram_certified():
    # spd_sqrt reads positivity from the root that certified P, not from eigenvalues of
    # P's entries, which lose lambda_min below ~eps lambda_max: it refused 15 of these
    # forms when it did.  gram's root is A itself, so the square root is polar's P
    rng = np.random.default_rng(5)
    refused = []
    for k in range(200):
        n = int(rng.integers(2, 7))
        a = with_ratio(rng, n, 10.0 ** rng.uniform(-9.0, -4.0))
        try:
            q = spd_sqrt(gram(a))
        except NotPositiveDefinite:
            refused.append(k)
            continue
        assert np.array_equal(q.matrix, polar(a)[1].matrix)
    assert refused == []
    a = np.diag([1.0, 1.6e-9]) @ np.array([[1.0, 0.3], [0.2, 1.0]])
    assert np.array_equal(spd_sqrt(gram(a)).matrix, polar(a)[1].matrix)
    # the gate still refuses a root at the caller's tol
    with pytest.raises(NotPositiveDefinite, match="^root margin 1.000e-06 not above tolerance$"):
        spd_sqrt(gram(np.diag([1.0, 1e-6])), Tolerance(rel=1e-5))


def test_polar_and_gram_at_n8_match_svd_oracle_down_to_the_gate():
    rng = np.random.default_rng(4602)
    for _ in range(30):
        a = with_ratio(rng, 8, 10.0 ** rng.uniform(-8.0, -3.0))
        _, s, vh = np.linalg.svd(a)
        u, p = polar(a)
        g = gram(a)
        assert np.linalg.norm(p.matrix - (vh.conj().T * s) @ vh) <= 1e-12
        assert np.linalg.norm(g.matrix - (vh.conj().T * s**2) @ vh) <= 1e-12
        assert np.linalg.norm(u @ p.matrix - a) <= 1e-12


def test_gram_callers_accept_what_the_gate_accepts():
    # Gram eigenvalue ratio 1e-12, root margin 1e-6
    a = np.diag([1e3, 1e-3])
    np.testing.assert_allclose(su_sl_canonical(a).matrix, np.diag([1e6, 1e-6]), rtol=1e-15)
    q = random_unitary(np.random.default_rng(4603), 2)
    ok, t = unitarily_equivalent(a, q @ a)
    assert ok and np.linalg.norm(t - q) <= 1e-9


def test_gram_rejects_singular():
    with pytest.raises(SingularMatrix):
        gram(np.zeros((2, 2)))


def test_gram_reports_overflow_as_overflow():
    # finite, well-conditioned entries whose A* A overflows
    for a in (np.eye(2) * 1e300, np.array([[1e160, 0.0], [0.0, 1e160]]), np.full((1, 1), 1e155j)):
        with pytest.raises(NumericOverflow):
            gram(a)
    assert np.isfinite(gram(np.eye(2) * 1e75).matrix).all()


def test_gram_reports_underflow_as_overflow():
    # invertible inputs whose A* A has a diagonal entry below the smallest normal double:
    # the form underflowed (to zero, or to subnormals that carry no precision)
    for a in ([[1e-310]], np.eye(2) * 1e-160, np.array([[1e-155, 1e-155j], [1e-155, -1e-155j]])):
        with pytest.raises(NumericOverflow, match="^gram form A\\* A underflowed"):
            gram(a)
    p = gram(np.eye(2) * 1e-150).matrix
    assert np.array_equal(p, np.eye(2) * 1e-300)
    assert spd_sqrt(GramForm._certified(p, np.eye(2) * 1e-150)).matrix[0, 0] == pytest.approx(1e-150)


def test_sl_normalize_retakes_a_determinant_that_under_or_overflowed():
    # det(1e-170 I) underflows to 0, det(1e200 I) overflows and det([[0, t], [t, 0]]) at
    # t = 5e-324 comes back NaN: each is taken again on A 2^-e, and the result has the bits
    # of A 2^-e's own, with delta that result's root times 2^e; no numpy warning
    for a in (np.eye(2) * 1e-170, np.eye(2) * 1e200, np.array([[0, 5e-324], [5e-324, 0]])):
        e = np.frexp(np.abs(a).max())[1] - 1
        unit_out, unit_delta = sl_normalize(np.ldexp(a, -e))
        out, delta = sl_normalize(a)
        assert np.array_equal(out, unit_out)
        assert delta == complex(np.ldexp(unit_delta.real, e), np.ldexp(unit_delta.imag, e))
        assert abs(np.linalg.det(out) - 1.0) < 1e-15
    assert sl_normalize(np.array([[0, 5e-324], [5e-324, 0]]))[1] == 5e-324j
    # a determinant that underflows on A 2^-e too leaves A / delta not finite: NumericOverflow
    # (not malformed input), never returned
    for scale in (1.0, 1e300):
        with pytest.raises(NumericOverflow, match="^A / det\\(A\\)\\^\\(1/n\\) is not finite"):
            sl_normalize(np.diag([1.0, 1e-170, 1e-170]) * scale, Tolerance(rel=1e-300))


def test_sl_normalize_divides_at_unit_scale_where_the_quotient_overflowed():
    # numpy divides by delta = 1.2e308 (1 + i) with Smith's method, whose re + im (im / re)
    # overflows: A 2^-e over delta 2^-e gives a finite A / delta, here [[1]] up to rounding
    for a in (np.array([[1.2e308 + 1.2e308j]]), np.eye(2) * (1.2e308 + 1.2e308j)):
        out, delta = sl_normalize(a)
        e = np.frexp(np.linalg.norm(a, 2))[1] - 1
        assert np.array_equal(out, np.ldexp(a.view(float), -e).view(complex)
                              / complex(np.ldexp(delta.real, -e), np.ldexp(delta.imag, -e)))
        assert np.abs(out - np.eye(len(a))).max() < 1e-12
        assert abs(delta - (1.2e308 + 1.2e308j)) < 1e-12 * abs(delta)


def reference_sl_normalize(a):
    """sl_normalize's formula where no division overflows: A / delta with LAPACK's det (the
    entry itself at n = 1) where it is a finite normal double, else A 2^-e over the root of
    det(A 2^-e), e putting sigma_max 2^-e in [1, 2), and delta that root times 2^e."""
    n, e = len(a), 0

    def det(m):
        return complex(m[0, 0]) if n == 1 else complex(np.linalg.det(m))

    with np.errstate(all="ignore"):
        d = det(a)
        if not np.finfo(float).tiny <= abs(d) < math.inf:
            e = math.frexp(np.linalg.svd(a, compute_uv=False)[0])[1] - 1
            d = det(np.ldexp(a.view(float), -e).view(complex))
    root = complex(abs(d) ** (1.0 / n) * np.exp(1j * np.angle(d) / n))
    out = np.ldexp(a.view(float), -e).view(complex) / root
    return out, complex(math.ldexp(root.real, e), math.ldexp(root.imag, e))


@pytest.mark.parametrize("scale", [-600, 0, 600])
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_sl_normalize_keeps_the_bits_of_one_division(n, scale):
    # the one division, A 2^-f over delta 2^-f, has the bits of A / delta short of underflow
    rng = np.random.default_rng([n, scale + 600])
    for _ in range(10):
        a = np.ldexp(random_invertible(rng, n).view(float), scale).view(complex)
        out, delta = sl_normalize(a)
        want_out, want_delta = reference_sl_normalize(a)
        assert out.tobytes() == want_out.tobytes()
        assert delta == want_delta


def test_transposed_inputs_are_scaled_as_their_copies():
    # a transposed array keeps its memory order through validation, and has no float64
    # view: the scale rule scales it on a C copy
    a = np.array([[1.0, 2.0], [0.5, 3.0j]]).T * 1e200
    assert not a.flags.c_contiguous
    c = np.ascontiguousarray(a)
    assert sl_normalize(a)[0].tobytes() == sl_normalize(c)[0].tobytes()
    assert classify(a) == classify(c)
    assert unitarily_equivalent(a, a)[0] and unitarily_equivalent(c, c)[0]


def test_each_polar_entry_validates_the_callers_arrays_once(validation_calls, singular_value_calls):
    # one validation per array the caller passes; classify's body, the Gram form and the
    # kernel bodies run on the validated copies
    rng = np.random.default_rng(2911)
    a = random_invertible(rng, 3)
    b, _ = sl_normalize(a)
    counts = {}
    for fn in (polar, gram, classify, sl_normalize, su_sl_canonical):
        validation_calls.clear()
        singular_value_calls.clear()
        fn(b if fn is su_sl_canonical else a)
        counts[fn.__name__] = len(validation_calls)
    # su_sl_canonical's Gram form is certified by classify's gate: one SVD, not two
    assert singular_value_calls == [(3, 3)]
    validation_calls.clear()
    singular_value_calls.clear()
    same, _ = unitarily_equivalent(a, random_unitary(rng, 3) @ a)
    assert same
    counts["unitarily_equivalent"] = len(validation_calls)
    assert counts == {
        "polar": 1, "gram": 1, "classify": 1, "sl_normalize": 1, "su_sl_canonical": 1, "unitarily_equivalent": 2
    }
    # the two Gram forms' gates, and nothing on the witness, which the Gram rule decides:
    # A1's gate also gates the solve on A1*, which has the same singular values
    assert singular_value_calls == [(3, 3)] * 2


def test_unitarily_equivalent_planted():
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        a = random_invertible(rng, n)
        q = random_unitary(rng, n)
        same, witness = unitarily_equivalent(a, q @ a)
        assert same
        assert np.linalg.norm(witness - q) <= 1e-7 * np.sqrt(n)
        assert np.linalg.norm(witness.conj().T @ witness - np.eye(n)) < 1e-9 * n


def test_unitarily_equivalent_rejects_scaling():
    rng = np.random.default_rng(23)
    a = random_invertible(rng, 3)
    same, witness = unitarily_equivalent(a, 2.0 * a)
    assert not same
    assert witness is None


def test_unitarily_equivalent_is_symmetric():
    rng = np.random.default_rng(24)
    a = random_invertible(rng, 3)
    q = random_unitary(rng, 3)
    assert unitarily_equivalent(a, q @ a)[0]
    assert unitarily_equivalent(q @ a, a)[0]
    b = random_invertible(rng, 3)
    assert unitarily_equivalent(a, a + 10.0 * b)[0] == unitarily_equivalent(a + 10.0 * b, a)[0]


def test_unitarily_equivalent_does_not_change_under_a_power_of_two_scale():
    # the pair is compared at unit scale, so tol.abs never swamps two small Gram forms:
    # diag(1, 2) against diag(1, 3) stays apart, and a unitary pair keeps its witness bytes
    q = random_unitary(np.random.default_rng(25), 2)
    a = np.diag([1.0, 2.0]).astype(complex)
    _, reference = unitarily_equivalent(a, q @ a)
    for k in range(-60, 61):
        s = 2.0**-k
        assert unitarily_equivalent(s * a, np.diag([s, 3.0 * s]))[0] is False, k
        same, witness = unitarily_equivalent(s * a, s * (q @ a))
        assert same and witness.tobytes() == reference.tobytes(), k


# a cond-2 pair whose Gram forms differ by 1e-9 in one entry, within the default tol
SHEAR_PAIR = (np.array([[1, 0], [0, 0.5]], complex), np.array([[1, 1e-9], [0, 0.5]], complex))


def test_the_gram_rule_alone_decides_unitary_equivalence():
    # T = A2 A1^-1 = [[1, 2e-9], [0, 1]] has |T* T - I|_F ~2.8e-9, past n tol.rel: the Gram
    # test does not bound T's defect, and the verdict is the Gram rule's, not T's
    same, t = unitarily_equivalent(*SHEAR_PAIR)
    assert same
    np.testing.assert_allclose(t, [[1, 2e-9], [0, 1]], rtol=0, atol=1e-15)
    assert fro(t.conj().T @ t - np.eye(2)) > 2 * DEFAULT_TOL.rel


def test_unitarily_equivalent_accepts_exactly_planted_ill_conditioned_pairs():
    # A2 = U A1 with U a permutation times units, formed exactly; sigma_min / sigma_max =
    # 1e-8, which the gate admits.  T* T - I = A1^-* (P2 - P1) A1^-1, so T's defect stays
    # within |P1 - P2| / sigma_min(A1)^2 plus the solve's rounding, n eps cond(A1)
    rng = np.random.default_rng(32)
    n, eps = 2, np.finfo(np.float64).eps
    for _ in range(50):
        a1 = (random_unitary(rng, n) * [1.0, 1e-8]) @ random_unitary(rng, n)
        units = np.array([1, 1j, -1, -1j])[rng.integers(0, 4, n)]
        a2 = units[:, None] * a1[rng.permutation(n)]
        same, t = unitarily_equivalent(a1, a2)
        assert same
        s = np.linalg.svd(a1, compute_uv=False)
        gap = fro(a1.conj().T @ a1 - a2.conj().T @ a2)
        assert fro(t.conj().T @ t - np.eye(n)) <= gap / s[-1] ** 2 + n * eps * s[0] / s[-1]


def test_unitarily_equivalent_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        unitarily_equivalent(np.eye(2), np.eye(3))


# --- gram form validation ---


def test_gram_form_rejects_non_self_adjoint():
    with pytest.raises(NotSelfAdjoint):
        GramForm([[1.0, 1.0], [0.0, 1.0]])


def test_one_self_adjointness_verdict():
    # P = H + c S with H Hermitian positive definite and S anti-Hermitian, |S| = 1: the defect
    # |P - P*| is 2c and |P|^2 = |H|^2 + c^2, so c puts the defect at a chosen factor of the
    # bound tol.rel |P| + tol.abs.  hermitian_eig, GramForm (at the default tolerance) and
    # as_gram_form raise NotSelfAdjoint together, exactly when the factor exceeds 1
    rng = np.random.default_rng(2407)

    def refuses(f, p, tol):
        try:
            f(p, tol)
        except NotSelfAdjoint:
            return True
        return False

    cases = [(np.array([[0.5, 6e-10], [0.0, 0.5]]), DEFAULT_TOL, True)]
    for rel in (1e-12, 1e-9, 1e-6):
        tol = Tolerance(rel=rel)
        for scale in (1e-3, 1e-1, 1.0, 1e1, 1e3):
            for factor in (0.5, 0.9, 1.1, 2.0):
                n = int(rng.integers(1, 5))
                x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                h = x.conj().T @ x + n * np.eye(n)
                h = 0.5 * (h + h.conj().T)
                h *= scale / np.linalg.norm(h)
                s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                s = (s - s.conj().T) / np.linalg.norm(s - s.conj().T)
                # 2c = factor (rel sqrt(scale^2 + c^2) + abs), solved for c >= 0
                k, b = factor * rel / 2, factor * tol.abs / 2
                c = (b + k * np.sqrt(b * b + (1 - k * k) * scale * scale)) / (1 - k * k)
                cases.append((h + c * s, tol, factor > 1))
    for p, tol, want in cases:
        assert refuses(hermitian_eig, p, tol) == want
        assert refuses(as_gram_form, p, tol) == want
        if tol == DEFAULT_TOL:
            assert refuses(lambda q, _: GramForm(q), p, tol) == want


def test_gram_form_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        GramForm(np.diag([1.0, -1.0]))


def test_gram_form_rejects_semidefinite():
    with pytest.raises(NotPositiveDefinite):
        GramForm(np.diag([1.0, 0.0]))


def test_gram_form_positivity_is_the_root_margin():
    # root margin 1e-6 passes tol.rel = 1e-9, though the eigenvalue ratio 1e-12 does not
    for ok in (np.diag([1.0, 1e-12]), np.diag([2.0, 3.0])):
        assert np.array_equal(GramForm(ok).matrix, ok)
    np.testing.assert_allclose(spd_sqrt(np.diag([1.0, 1e-12])).matrix, np.diag([1.0, 1e-6]), rtol=1e-15)
    # root margins 1e-10, 0, none; and 1e-8, whose square is below the rounding level
    for bad in (np.diag([1.0, 1e-20]), np.diag([1.0, 0.0]), np.diag([1.0, -1.0]), np.diag([1.0, 1e-16])):
        with pytest.raises(NotPositiveDefinite):
            GramForm(bad)


def test_gram_form_refuses_numerically_semidefinite_forms():
    # B* B of a rank-deficient B, formed in floating point, often has a Cholesky factor,
    # with a root margin up to ~1e-8 that comes from rounding, not positivity
    rng = np.random.default_rng(4605)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        b = rng.normal(size=(n - 1, n)) + 1j * rng.normal(size=(n - 1, n))
        with pytest.raises(NotPositiveDefinite):
            GramForm(b.conj().T @ b)


def test_gram_form_rejects_non_self_adjoint_beyond_the_square_overflow():
    # squares of 1e155 overflow; the self-adjoint defect must still count
    with np.errstate(over="ignore"):
        with pytest.raises(NotSelfAdjoint):
            GramForm([[1e155, 2e155], [0.0, 1e155]])


def test_gram_form_rejects_nonfinite():
    with pytest.raises(ValueError):
        GramForm([[np.nan, 0.0], [0.0, 1.0]])


def test_gram_form_symmetrizes_storage():
    p = GramForm([[2.0, 1.0 + 1e-13j], [1.0 - 1e-13j, 2.0]])
    assert np.array_equal(p.matrix, p.matrix.conj().T)
    assert not p.matrix.flags.writeable


def test_spd_sqrt_squares_back():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        p = b.conj().T @ b + 0.1 * np.eye(n)
        q = spd_sqrt(GramForm(p))
        assert np.linalg.norm(q.matrix @ q.matrix - p) <= 1e-9 * np.linalg.norm(p)
        assert np.min(np.linalg.eigvalsh(q.matrix)) > 0


# --- determinant-one scaling ---


def test_sl_normalize_properties():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        a = random_invertible(rng, n)
        out, delta = sl_normalize(a)
        assert abs(np.linalg.det(out) - 1.0) < 1e-8
        assert np.allclose(out * delta, a)
        # principal branch: argument of delta in (-pi/n, pi/n]
        assert -np.pi / n < np.angle(delta) <= np.pi / n + 1e-15


def test_sl_normalize_returns_at_cond_1e8_and_at_a_tight_tol_rel():
    # det(A / delta) is one in exact arithmetic; the LU determinant of the rounded quotient
    # misses it by rounding that grows with kappa = sigma_max / sigma_min, within
    # 4 n eps kappa here (a backward-stable LU reads det to about n eps kappa relative,
    # and each entry of A / delta is rounded once)
    eps = np.finfo(float).eps
    cases = []
    for n in (2, 3):
        rng = np.random.default_rng(20 + n)
        cases += [(with_ratio(rng, n, 1e-8), DEFAULT_TOL) for _ in range(20)]
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        cases.append((rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), Tolerance(rel=1e-15)))
    for a, tol in cases:
        n = a.shape[0]
        s = np.linalg.svd(a, compute_uv=False)
        out, delta = sl_normalize(a, tol)
        assert abs(np.linalg.det(out) - 1.0) <= 4 * n * eps * s[0] / s[-1], (a, tol)
        assert np.allclose(out * delta, a, rtol=1e-12, atol=0.0)


def test_sl_normalize_rejects_singular():
    with pytest.raises(SingularMatrix):
        sl_normalize([[0.0]])


def test_su_sl_canonical_requires_unit_determinant():
    with pytest.raises(NotInSL):
        su_sl_canonical(np.diag([2.0, 1.0]))


def test_su_sl_canonical_invariant_under_special_unitary():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        b, _ = sl_normalize(random_invertible(rng, n))
        s, _ = sl_normalize(random_unitary(rng, n))  # unit-modulus det, so s stays unitary
        p1 = su_sl_canonical(b)
        p2 = su_sl_canonical(s @ b)
        assert np.linalg.norm(p1.matrix - p2.matrix) <= 1e-8 * max(np.linalg.norm(b) ** 2, 1.0)
        assert abs(np.linalg.det(p1.matrix) - 1.0) < 1e-8


def test_su_sl_canonical_trusts_its_sl_verdict_on_ill_conditioned_matrices():
    # classify's SL verdict implies det(B* B) = |det B|^2 ~ 1; an LU determinant of B* B,
    # whose condition number is cond(B)^2, would read it again less exactly
    rng = np.random.default_rng(31)
    for n in (2, 3, 8):
        for cond in (1e5, 1e7):
            for _ in range(20):
                u, v = (q / np.linalg.det(q) ** (1 / n) for q in (random_unitary(rng, n), random_unitary(rng, n)))
                s = np.geomspace(1.0, 1.0 / cond, n)
                b = (u * (s / np.prod(s) ** (1 / n))) @ v
                p = su_sl_canonical(b)
                assert isinstance(p, GramForm), (n, cond)
                np.testing.assert_array_equal(p.matrix, gram(b).matrix)


def test_su_sl_canonical_separates_distinct_gram_forms():
    p1 = su_sl_canonical(np.diag([2.0, 0.5]))
    p2 = su_sl_canonical(np.diag([4.0, 0.25]))
    assert np.linalg.norm(p1.matrix - p2.matrix) > 1.0


def test_tight_tolerance_still_sound():
    rng = np.random.default_rng(43)
    tol = Tolerance(rel=1e-12, abs=1e-15)
    a = random_invertible(rng, 3, min_cond=1e-1)
    u, p = polar(a, tol)
    assert np.linalg.norm(u @ p.matrix - a) <= 1e-11 * np.linalg.norm(a)


def test_polar_returns_at_the_smallest_tol_rel():
    # nothing is tested again on the way out, so a tol.rel of 5e-324 only widens the gate;
    # the factors are LAPACK's, sound to rounding
    rng = np.random.default_rng(44)
    tol = Tolerance(rel=5e-324)
    for n in (1, 2, 3, 8):
        a = random_invertible(rng, n)
        u, p = polar(a, tol)
        assert np.linalg.norm(u @ p.matrix - a) <= 1e-13 * np.linalg.norm(a)
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-13


def test_a_well_conditioned_matrix_past_the_largest_double_is_invertible():
    # sigma_max = sqrt(2) 1.7e308 passes the largest double; the gate reads the margin at
    # unit scale, so the pair is invertible with margin 1 and unitarily equivalent
    a = np.array([[1.7e308, 1.7e308], [1.7e308, -1.7e308]])
    ok, margin = invertibility_margin(a)
    assert ok and margin == pytest.approx(1.0, rel=1e-15)
    same, t = unitarily_equivalent(a, a[::-1])
    assert same and np.allclose(t, [[0, 1], [1, 0]], atol=1e-15)
    with pytest.raises(NumericOverflow):  # A* A and V S V* overflow
        gram(a)
    with pytest.raises(NumericOverflow):
        polar(a)


@pytest.mark.filterwarnings("error")
def test_gram_form_of_a_finite_form_near_the_largest_double_is_certified():
    # its Hermitian part overflowed to inf, and the Cholesky root's margin read 0
    p = GramForm([[1.5e308, 0], [0, 1.5e308]])
    assert p.matrix.tolist() == [[1.5e308, 0], [0, 1.5e308]]
    assert as_gram_form([[1.5e308, 0], [0, 1.5e308]]).matrix.tolist() == p.matrix.tolist()
    with pytest.raises(NotSelfAdjoint):
        GramForm([[1e308, 1e308], [-1e308, 1e308]])


@pytest.mark.filterwarnings("error")
def test_gram_form_of_the_smallest_subnormal_diagonal_is_certified():
    # a Hermitian part that halved the subnormal entries first was the zero matrix here
    p = GramForm([[5e-324, 0], [0, 5e-324]])
    assert p.matrix.tolist() == [[5e-324, 0], [0, 5e-324]]
