"""Representation, conversion, and domination tests for real-linear maps."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from cxlattices import InternalCheckError, NotInSplitClass, NumericOverflow, SingularM, Tolerance
from cxlattices.kernel import frozen
from cxlattices.realmaps import (
    BlockForm,
    ConjugatePairForm,
    NormalizedForm,
    SplitForm,
    apply,
    contraction_check,
    convert,
    domination_ratio,
    invertibility,
    is_invertible,
    majorizes,
    normalize_post_composition,
    realify,
)

KINDS = ("block", "split", "conjugate_pair", "normalized")


def random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def random_points(rng, n, k):
    return rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))


def random_split(rng, n):
    # B kept away from singular so the map is decisively invertible
    while True:
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        if np.linalg.cond(b) < 1e3:
            return SplitForm(a, b)


def random_contraction(rng, n, norm):
    e = random_complex(rng, n)
    return e * (norm / np.linalg.svd(e, compute_uv=False)[0])


def block_apply_oracle(t: BlockForm, z: np.ndarray) -> np.ndarray:
    """Evaluate through the assembled 2n-by-2n real matrix, the defining picture."""
    n = t.dim
    r = np.zeros((2 * n, 2 * n))
    r[:n, :n], r[:n, n:], r[n:, :n], r[n:, n:] = t.e1, t.e2, t.e3, t.e4
    xy = np.concatenate([z.real, z.imag])
    out = r @ xy
    return out[:n] + 1j * out[n:]


# ---------------------------------------------------------------- apply


def test_apply_identity_normalized():
    t = NormalizedForm(np.zeros((2, 2)))
    z = np.array([1 + 2j, -3j])
    np.testing.assert_array_equal(apply(t, z), z)


def test_apply_conjugate_pair_collapses_imaginary():
    # T(z) = z + conj(z) = 2 Re z, so T(i) = 0
    t = ConjugatePairForm([[1.0]], [[1.0]])
    np.testing.assert_allclose(apply(t, [1j]), [0j], atol=0)


def test_apply_block_matches_realified_oracle():
    rng = np.random.default_rng(201)
    for _ in range(20):
        t = BlockForm(*(rng.standard_normal((3, 3)) for _ in range(4)))
        z = random_points(rng, 3, 1)[:, 0]
        np.testing.assert_allclose(apply(t, z), block_apply_oracle(t, z), rtol=1e-13, atol=1e-13)


def test_apply_split_definition():
    rng = np.random.default_rng(202)
    t = random_split(rng, 2)
    z = random_points(rng, 2, 1)[:, 0]
    expected = z.real + t.a @ z.imag + 1j * (t.b @ z.imag)
    np.testing.assert_allclose(apply(t, z), expected, atol=0)


def test_apply_is_real_linear_not_complex_linear():
    t = ConjugatePairForm([[0.0]], [[1.0]])  # T(z) = conj(z)
    z = np.array([1 + 1j])
    np.testing.assert_allclose(apply(t, 2.0 * z), 2.0 * apply(t, z), atol=0)
    assert not np.allclose(apply(t, 1j * z), 1j * apply(t, z))


# ---------------------------------------------------------------- realify


def test_realify_identity():
    np.testing.assert_array_equal(realify(NormalizedForm([[0.0]])), np.eye(2))


def test_realify_conjugation():
    t = ConjugatePairForm([[0.0]], [[1.0]])
    np.testing.assert_array_equal(realify(t), np.diag([1.0, -1.0]))


def test_realify_block_recovers_blocks_exactly():
    rng = np.random.default_rng(203)
    blocks = [rng.standard_normal((2, 2)) for _ in range(4)]
    r = realify(BlockForm(*blocks))
    np.testing.assert_array_equal(r[:2, :2], blocks[0])
    np.testing.assert_array_equal(r[:2, 2:], blocks[1])
    np.testing.assert_array_equal(r[2:, :2], blocks[2])
    np.testing.assert_array_equal(r[2:, 2:], blocks[3])


def test_realify_split_has_identity_and_zero_blocks():
    rng = np.random.default_rng(204)
    t = random_split(rng, 3)
    r = realify(t)
    np.testing.assert_array_equal(r[:3, :3], np.eye(3))
    np.testing.assert_array_equal(r[3:, :3], np.zeros((3, 3)))
    np.testing.assert_array_equal(r[:3, 3:], t.a)
    np.testing.assert_array_equal(r[3:, 3:], t.b)


def test_realify_respects_composition():
    rng = np.random.default_rng(205)
    for _ in range(10):
        s = ConjugatePairForm(random_complex(rng, 3), random_complex(rng, 3))
        t = ConjugatePairForm(random_complex(rng, 3), random_complex(rng, 3))
        basis = np.hstack([np.eye(3), 1j * np.eye(3)])
        w = apply(t, apply(s, basis))
        composed = np.vstack([w.real, w.imag])
        np.testing.assert_allclose(composed, realify(t) @ realify(s), rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------- convert


def test_convert_split_to_conjugate_pair_identity_case():
    t = SplitForm(np.zeros((2, 2)), np.eye(2))
    cp = convert(t, "conjugate_pair")
    np.testing.assert_allclose(cp.m, np.eye(2), atol=0)
    np.testing.assert_allclose(cp.n, np.zeros((2, 2)), atol=0)


def test_convert_conjugation_to_block():
    t = ConjugatePairForm([[0.0]], [[1.0]])
    blk = convert(t, "block")
    assert blk.e1[0, 0] == 1.0 and blk.e4[0, 0] == -1.0
    assert blk.e2[0, 0] == 0.0 and blk.e3[0, 0] == 0.0


def test_convert_block_to_conjugate_pair_sign_sensitive():
    # T(z) = conj(i z): E1 = 0, E2 = -1, E3 = -1, E4 = 0; the true N is i
    t = BlockForm([[0.0]], [[-1.0]], [[-1.0]], [[0.0]])
    cp = convert(t, "conjugate_pair")
    np.testing.assert_allclose(cp.m, [[0.0]], atol=1e-15)
    np.testing.assert_allclose(cp.n, [[1j]], atol=1e-15)


def test_convert_round_trips_split():
    rng = np.random.default_rng(206)
    for _ in range(20):
        t = random_split(rng, 3)
        back = convert(convert(convert(t, "conjugate_pair"), "block"), "split")
        np.testing.assert_allclose(back.a, t.a, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(back.b, t.b, rtol=1e-10, atol=1e-12)


def test_convert_round_trips_normalized():
    rng = np.random.default_rng(207)
    for _ in range(20):
        t = NormalizedForm(random_complex(rng, 2))
        back = convert(convert(convert(t, "conjugate_pair"), "block"), "normalized")
        np.testing.assert_allclose(back.e, t.e, rtol=1e-10, atol=1e-12)


def test_convert_preserves_action_on_random_points():
    rng = np.random.default_rng(208)
    for _ in range(10):
        t = ConjugatePairForm(random_complex(rng, 3), random_complex(rng, 3))
        z = random_points(rng, 3, 100)
        for target in ("block", "conjugate_pair"):
            s = convert(t, target)
            np.testing.assert_allclose(apply(s, z), apply(t, z), rtol=1e-9, atol=1e-9)


def test_convert_to_split_requires_structure():
    with pytest.raises(NotInSplitClass):
        convert(BlockForm([[2.0]], [[0.0]], [[0.0]], [[1.0]]), "split")


def test_convert_to_normalized_requires_invertible_m():
    with pytest.raises(SingularM):
        convert(ConjugatePairForm(np.zeros((2, 2)), np.eye(2)), "normalized")


def test_convert_normalized_target_is_the_canonical_factor():
    rng = np.random.default_rng(209)
    m = random_complex(rng, 2)
    e = random_contraction(rng, 2, 0.5)
    t = ConjugatePairForm(m, np.conj(m) @ e)
    normal = convert(t, "normalized")
    np.testing.assert_allclose(normal.e, e, rtol=1e-9, atol=1e-12)


def test_convert_rejects_unknown_target():
    with pytest.raises(ValueError):
        convert(NormalizedForm([[0.0]]), "polar")


# ---------------------------------------------------------------- invertibility


def test_identity_invertible():
    assert is_invertible(NormalizedForm(np.zeros((3, 3))))


def test_doubling_real_part_map_not_invertible():
    # T(z) = z + conj(z) kills the imaginary axis
    assert not is_invertible(ConjugatePairForm([[1.0]], [[1.0]]))


def test_split_invertibility_tracks_b():
    rng = np.random.default_rng(210)
    for _ in range(50):
        t = random_split(rng, 3)
        s_min = np.linalg.svd(t.b, compute_uv=False)
        assert is_invertible(t) == (s_min[-1] / s_min[0] > 1e-9)


def test_split_engineered_near_singular_b():
    rng = np.random.default_rng(211)
    q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    b = q1 @ np.diag([1.0, 1.0, 1e-15]) @ q2
    assert not is_invertible(SplitForm(rng.standard_normal((3, 3)), b))


def test_split_invertibility_is_the_realified_verdict_alone(singular_value_calls):
    # R = [[I, A], [0, B]] has margin(R) <= margin(B), and about 1 / A^2 here: B = 1 is
    # invertible, yet the map is not at the working margin, and that is the verdict, from
    # one SVD per call (a verdict read from B could only agree with R's or be wrong)
    for a, margin in ((1e5, 1e-10), (1e10, 1e-20)):
        singular_value_calls.clear()
        ok, got = invertibility(SplitForm([[a]], [[1.0]]))
        assert not ok and got == pytest.approx(margin, rel=1e-9)
        assert singular_value_calls == [(2, 2)]
    rng = np.random.default_rng(233)
    for _ in range(50):
        t = random_split(rng, 3)
        r = np.linalg.svd(realify(t), compute_uv=False)
        ok, margin = invertibility(t)
        assert ok and margin == pytest.approx(r[-1] / r[0], rel=1e-12)
        b = np.linalg.svd(t.b, compute_uv=False)
        assert r[-1] / r[0] <= b[-1] / b[0] * (1 + 1e-12)


# ---------------------------------------------------------------- majorization


def test_majorizes_zero_conjugate_part():
    assert majorizes(ConjugatePairForm(np.eye(2), np.zeros((2, 2))))


def test_majorizes_fails_at_equality():
    assert not majorizes(ConjugatePairForm(np.eye(2), np.eye(2)))


def test_majorizes_fails_for_singular_m():
    assert not majorizes(ConjugatePairForm(np.zeros((2, 2)), 0.5 * np.eye(2)))


def test_majorizes_scalar_case():
    assert majorizes(ConjugatePairForm([[1.0]], [[0.5]]))
    assert not majorizes(ConjugatePairForm([[0.5]], [[1.0]]))


def test_majorizes_fails_when_n_m_inverse_overflows():
    # a subnormal M passes the gate (its 1 x 1 margin is 1), but N M^-1 is past the largest double
    t = ConjugatePairForm([[1.1125369292536e-309j]], [[-1.0]])
    assert domination_ratio(t) == float("inf")
    assert not majorizes(t)


def test_majorizes_through_an_lu_that_overflows():
    # LAPACK's LU of this M overflows, yet N M^-1 = [[-0.1, 0.9], [0, 0]] is finite
    # (norm ~0.906): the ratio is read on M and N scaled by a power of two
    t = ConjugatePairForm([[1e308, 1e308], [1e308, -1e308]], [[0.8e308, -1e308], [0.0, 0.0]])
    assert domination_ratio(t) == pytest.approx(np.hypot(0.1, 0.9), rel=1e-12)
    assert majorizes(t)


def test_domination_ratio_of_a_tiny_m_against_a_huge_n_is_none():
    # at the unit scale of N = 1e300, M = 1e-321 underflows to 0: solve's gate calls it
    # singular and the ratio is None
    t = ConjugatePairForm([[1e-321]], [[1e300]])
    assert domination_ratio(t) is None
    assert not majorizes(t)


def test_domination_ratio_of_a_subnormal_m_and_n_is_read_at_unit_scale():
    # LAPACK's complex solve on M = 132 2^-1074 itself gives NaN (an overflow in between),
    # but at unit scale N M^-1 = 110 / 132 is exact: M majorizes N
    u = 2.0**-1074
    t = ConjugatePairForm([[132 * u]], [[110 * u]])
    assert domination_ratio(t) == 110 / 132
    assert majorizes(t)


def test_domination_ratio_takes_one_solve(solve_calls):
    # the one solve runs at unit scale, where the LU of the first M does not overflow, and a
    # subnormal M with N M^-1 past the doubles overflows there too (the ratio is inf)
    for m, n in (([[1e308, 1e308], [1e308, -1e308]], [[0.8e308, -1e308], [0.0, 0.0]]),
                 ([[1.1125369292536e-309j]], [[-1.0]]), ([[1.0, 2.0], [0.5, 3.0]], np.eye(2))):
        solve_calls.clear()
        domination_ratio(ConjugatePairForm(m, n))
        assert solve_calls == [(len(m), len(m))]


@pytest.mark.parametrize("scale", [-600, 0, 600])
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_domination_ratio_keeps_the_bits_of_the_unscaled_solve(n, scale):
    # N M^-1 is the same for M and N times a common power of two, bit for bit short of
    # underflow: the ratio is the operator norm of LAPACK's solve on the caller's M and N
    rng = np.random.default_rng(1000 * n + scale)
    for _ in range(10):
        m = np.ldexp(random_complex(rng, n).view(float), scale).view(complex)
        k = np.ldexp((rng.uniform(0.1, 2.0) * random_complex(rng, n)).view(float), scale).view(complex)
        want = float(np.linalg.svd(np.linalg.solve(m.T, k.T).T, compute_uv=False)[0])
        assert domination_ratio(ConjugatePairForm(m, k)) == want


def test_majorization_implies_invertibility():
    rng = np.random.default_rng(212)
    for n in (1, 2, 3, 4):
        for _ in range(100):
            m = random_complex(rng, n)
            k = random_contraction(rng, n, rng.uniform(0.05, 0.95))
            t = ConjugatePairForm(m, k @ m)
            assert majorizes(t)
            assert is_invertible(t)


def test_majorized_vectors_strictly_dominated():
    rng = np.random.default_rng(213)
    m = random_complex(rng, 2)
    t = ConjugatePairForm(m, random_contraction(rng, 2, 0.8) @ m)
    assert majorizes(t)
    for _ in range(200):
        z = random_points(rng, 2, 1)[:, 0]
        assert np.linalg.norm(t.n @ z) < np.linalg.norm(t.m @ z)


# ---------------------------------------------------------------- normalization


def test_normalize_post_composition_scalar_complex_linear():
    g, normal = normalize_post_composition(ConjugatePairForm(2.0 * np.eye(2), np.zeros((2, 2))))
    np.testing.assert_allclose(g, 2.0 * np.eye(2), atol=0)
    np.testing.assert_allclose(normal.e, np.zeros((2, 2)), atol=0)


def test_normalize_post_composition_scalar_example():
    g, normal = normalize_post_composition(ConjugatePairForm([[1.0]], [[0.5]]))
    np.testing.assert_allclose(g, [[1.0]], atol=0)
    np.testing.assert_allclose(normal.e, [[0.5]], atol=1e-15)


def test_normalize_post_composition_identity_on_points():
    rng = np.random.default_rng(214)
    for _ in range(10):
        m = random_complex(rng, 3)
        t = ConjugatePairForm(m, random_contraction(rng, 3, 0.7) @ m)
        g, normal = normalize_post_composition(t)
        z = random_points(rng, 3, 1000)
        np.testing.assert_allclose(g @ apply(normal, z), apply(t, z), rtol=1e-9, atol=1e-9)


def test_normalize_post_composition_at_cond_1e8_reproduces_the_map():
    # M at sigma_min / sigma_max = 1e-8 and the default tolerance: T(w) - M (w + conj(E w))
    # = conj((N - conj(M) E) w) is the residual of the solve for E, so on the 2n real basis
    # directions the factorization misses T by at most sqrt(2) times solve's residual bound,
    # tol.rel |M| max(|E|, 1) + tol.abs, plus the rounding of evaluating both sides,
    # 8 n eps |M| (1 + |E|) (Frobenius norms)
    tol, eps = Tolerance(), np.finfo(float).eps
    for n in (2, 3):
        rng = np.random.default_rng(30 + n)
        basis = np.hstack([np.eye(n), 1j * np.eye(n)])
        for _ in range(20):
            u, _ = np.linalg.qr(random_complex(rng, n))
            v, _ = np.linalg.qr(random_complex(rng, n))
            m = (u * np.geomspace(1.0, 1e-8, n)) @ v
            t = ConjugatePairForm(m, random_complex(rng, n))
            g, normal = normalize_post_composition(t, tol)
            size_m, size_e = np.linalg.norm(g), np.linalg.norm(normal.e)
            bound = np.sqrt(2.0) * (tol.rel * size_m * max(size_e, 1.0) + tol.abs)
            bound += 8 * n * eps * size_m * (1.0 + size_e)
            miss = np.linalg.norm(apply(t, basis) - g @ apply(normal, basis))
            assert miss <= bound, (n, miss, bound)


def test_normalize_requires_invertible_m():
    with pytest.raises(SingularM):
        normalize_post_composition(ConjugatePairForm(np.zeros((1, 1)), np.ones((1, 1))))


def test_planted_contraction_survives_normalization():
    # build T = M o (z + conj(E z)) directly, so N = conj(M) E with ||E|| < 1
    rng = np.random.default_rng(215)
    for _ in range(25):
        m = random_complex(rng, 2)
        e = random_contraction(rng, 2, rng.uniform(0.1, 0.9))
        _, normal = normalize_post_composition(ConjugatePairForm(m, np.conj(m) @ e))
        np.testing.assert_allclose(normal.e, e, rtol=1e-9, atol=1e-12)
        assert contraction_check(normal)


def test_majorization_does_not_force_contractive_factor():
    # domination bounds N M^-1, not conj(M)^-1 N; the two differ for n > 1
    rng = np.random.default_rng(218)
    found = False
    for _ in range(50):
        m = random_complex(rng, 2)
        t = ConjugatePairForm(m, random_contraction(rng, 2, 0.9) @ m)
        assert majorizes(t)
        _, normal = normalize_post_composition(t)
        if not contraction_check(normal):
            found = True
            break
    assert found


# ---------------------------------------------------------------- contraction


def test_contraction_zero_true():
    assert contraction_check(NormalizedForm(np.zeros((2, 2))))


def test_contraction_identity_false():
    assert not contraction_check(NormalizedForm(np.eye(2)))


def test_contraction_scaled_unitary():
    rng = np.random.default_rng(216)
    q, _ = np.linalg.qr(random_complex(rng, 3))
    t = NormalizedForm(0.9 * q)
    assert contraction_check(t)
    h = np.eye(3) - t.e.conj().T @ t.e
    assert np.linalg.eigvalsh(h)[0] == pytest.approx(0.19, abs=1e-9)


def test_contractive_map_moves_lattice_points_little():
    rng = np.random.default_rng(217)
    side = np.arange(-10, 11)
    re, im = np.meshgrid(side, side)
    grid = (re + 1j * im).ravel()
    grid = grid[(np.abs(grid) <= 10) & (grid != 0)][None, :]
    for _ in range(25):
        e = random_contraction(rng, 1, rng.uniform(0.05, 0.95))
        t = NormalizedForm(e)
        moved = np.abs(apply(t, grid) - grid)[0]
        bound = np.abs(e[0, 0]) * np.abs(grid[0])
        assert np.all(moved <= bound * (1 + 1e-12) + 1e-15)


def test_contraction_check_type_error():
    with pytest.raises(TypeError):
        contraction_check(ConjugatePairForm([[1.0]], [[0.0]]))


# ---------------------------------------------------------------- construction hygiene


def test_block_rejects_complex_coefficients():
    with pytest.raises(ValueError):
        BlockForm([[1j]], [[0.0]], [[0.0]], [[0.0]])


def test_block_rejects_mismatched_shapes():
    from cxlattices import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        BlockForm(np.eye(2), np.eye(3), np.eye(2), np.eye(2))


def test_forms_are_immutable():
    t = NormalizedForm(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        t.e[0, 0] = 1.0


def test_each_map_operation_runs_one_gate(singular_value_calls):
    # solve's gate decides whether M is singular; nothing asks the margin first
    rng = np.random.default_rng(7301)
    t = ConjugatePairForm(random_complex(rng, 3), 0.2 * random_complex(rng, 3))
    operations = {
        "normalize_post_composition": lambda u: normalize_post_composition(u),
        "convert": lambda u: convert(u, "normalized"),
        "domination_ratio": lambda u: domination_ratio(u),
        "majorizes": lambda u: majorizes(u),
    }
    counts = {}
    for name, op in operations.items():
        singular_value_calls.clear()
        op(t)
        counts[name] = len(singular_value_calls)
    # one SVD for solve's gate, and one more for the operator norm of N M^-1
    assert counts == {"normalize_post_composition": 1, "convert": 1, "domination_ratio": 2, "majorizes": 2}
    singular = ConjugatePairForm(np.diag([1.0, 1e-12]), np.eye(2))
    message = "^complex-linear part M is singular; cannot normalize$"
    with pytest.raises(SingularM, match=message):
        normalize_post_composition(singular)
    with pytest.raises(SingularM, match=message):
        convert(singular, "normalized")
    assert domination_ratio(singular) is None
    assert majorizes(singular) is False


def test_operations_on_a_built_form_validate_nothing(validation_calls):
    # a form's constructor validated its coefficients; the forms the library builds from
    # them (conversions, the normalized factor) and every operation on them take no copy
    rng = np.random.default_rng(7307)
    t = ConjugatePairForm(random_complex(rng, 3), 0.2 * random_complex(rng, 3))
    forms = [t, convert(t, "block"), random_split(rng, 3), NormalizedForm(0.2 * random_complex(rng, 3))]
    validation_calls.clear()
    for u in forms:
        majorizes(u)
        domination_ratio(u)
        assert is_invertible(u)
        realify(u)
        _, normal = normalize_post_composition(u)
        contraction_check(normal)
        for kind in KINDS:
            try:
                convert(u, kind)
            except NotInSplitClass:
                assert kind == "split"
    assert validation_calls == []
    apply(t, random_points(rng, 3, 2))
    assert validation_calls == ["as_columns"]  # the caller's points, once


def test_an_overflowing_intermediate_is_refused_as_a_non_finite_matrix():
    # I - E* E overflows for a large E, and realify's M z + conj(N z) and convert's M + N
    # past the largest double: NumericOverflow, not the ValueError of a caller's own
    # non-finite matrix, and without a numpy warning
    for e in ([[1e200]], [[1e200, 1e200], [1e200, -1e200]]):
        with pytest.raises(NumericOverflow, match="^I - E\\* E is not finite"):
            contraction_check(NormalizedForm(e))
    huge = ConjugatePairForm([[1e308]], [[1e308]])
    with pytest.raises(NumericOverflow, match="^realified map is not finite"):
        is_invertible(huge)
    for kind in ("block", "split"):
        with pytest.raises(NumericOverflow, match="^M \\+ N is not finite"):
            convert(huge, kind)
    # and the conjugate pair of a block form whose E1 + E4 overflows
    huge_block = BlockForm([[1e308]], [[0.0]], [[0.0]], [[1e308]])
    for kind in ("conjugate_pair", "split", "normalized"):
        with pytest.raises(NumericOverflow, match="^conjugate-pair coefficient M is not finite"):
            convert(huge_block, kind)


# ---------------------------------------------------------------- real blocks: one validation, in float64


def old_real_block(x, n=None):
    """A real block as the constructors read one before they validated in float64:
    a complex128 copy, its checks, and then its real part."""
    from cxlattices import DimensionMismatch

    c = np.array(x, dtype=np.complex128, copy=True)
    if c.ndim != 2 or c.shape[0] == 0 or c.shape[1] == 0:
        raise DimensionMismatch(f"expected a nonempty 2-d matrix, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    if c.shape[0] != c.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {c.shape}")
    if n is not None and c.shape[0] != n:
        raise DimensionMismatch(f"coefficient blocks disagree: {c.shape[0]} vs {n}")
    if np.any(c.imag != 0.0):
        raise ValueError("coefficient block must be real (imaginary parts exactly zero)")
    return c.real.copy()


def real_block_inputs():
    rng = np.random.default_rng(2511)
    x = rng.standard_normal((3, 3))
    return {
        "float64": x,
        "float32": x.astype(np.float32),
        "int": rng.integers(-5, 6, (3, 3)),
        "bool": rng.integers(0, 2, (3, 3)).astype(bool),
        "list": x.tolist(),
        "int list": [[1, -2, 3], [0, 4, 5], [7, 8, -9]],
        "complex +0": x + 0j,
        "complex -0": np.vectorize(lambda v: complex(v, -0.0))(x),
        "complex list": [[complex(v, -0.0) for v in row] for row in x.tolist()],
        "transposed": x.T,
        "strided": rng.standard_normal((6, 6))[::2, ::2],
        "read-only": frozen(x.copy()),
        "subnormal": x * 2.0**-1070,
        "huge": x * 2.0**1020,
    }


@pytest.mark.parametrize("name", sorted(real_block_inputs()))
def test_real_blocks_hold_the_bytes_of_the_complex_round_trip(name):
    x = real_block_inputs()[name]
    if name == "complex -0":
        assert np.signbit(x.imag).all()
    want = old_real_block(x)
    forms = [BlockForm(x, x, x, x), SplitForm(x, x)]
    for t in forms:
        for block in (getattr(t, f) for f in ("e1", "e2", "e3", "e4", "a", "b") if hasattr(t, f)):
            assert block.dtype == np.float64 and block.shape == want.shape
            assert block.tobytes() == want.tobytes()
            assert block.flags.c_contiguous and not block.flags.writeable
            assert not np.shares_memory(block, np.asarray(x))


def invalid_real_blocks():
    nan = float("nan")
    return {
        "nan": [[1.0, nan], [0.0, 1.0]],
        "inf": np.array([[np.inf]]),
        "imaginary": [[1.0, 1e-300j], [0.0, 1.0]],
        "nan and imaginary": [[nan, 1j], [0.0, 1.0]],
        "1-d": np.ones(2),
        "3-d": np.ones((1, 2, 2)),
        "empty": np.zeros((0, 0)),
        "empty list": [],
        "scalar": 1.0,
        "non-square": [[1.0, 2.0]],
        "non-square imaginary": [[1.0, 2j]],
        "other size": np.eye(3),
        "other size imaginary": np.eye(3) * 1j,
        "other size nan": np.full((3, 3), nan),
        "string": [["1", "2"], ["3", "x"]],
    }


@pytest.mark.parametrize("name", sorted(invalid_real_blocks()))
def test_invalid_real_blocks_raise_the_complex_round_trips_error_first(name):
    # conversion, then the shape, finiteness, squareness, block sizes and finally the
    # imaginary test, each with its class and message, with the bad block first or last
    bad, good = invalid_real_blocks()[name], np.eye(2)
    for form, blocks in (
        (BlockForm, (bad, good, good, good)),
        (BlockForm, (good, good, good, bad)),
        (SplitForm, (bad, good)),
        (SplitForm, (good, bad)),
    ):
        with pytest.raises(Exception) as want:
            n = None
            for block in blocks:
                n = old_real_block(block, n).shape[0]
        with pytest.raises(want.type) as got:
            form(*blocks)
        assert str(got.value) == str(want.value), (name, form.__name__)


def test_each_form_constructor_validates_each_block_once(validation_calls):
    rng = np.random.default_rng(2513)
    x = rng.standard_normal((3, 3))
    for blocks in ((x, x), (x + 0j, x.tolist()), (x.astype(np.float32), x.T)):
        validation_calls.clear()
        SplitForm(*blocks)
        assert validation_calls == ["as_matrix"] * 2
        validation_calls.clear()
        BlockForm(*blocks, *blocks)
        assert validation_calls == ["as_matrix"] * 4
    validation_calls.clear()
    ConjugatePairForm(x + 1j * x, x)
    NormalizedForm(x)
    assert validation_calls == ["as_matrix"] * 3


def test_per_dimension_constants_are_built_once_and_read_only():
    from cxlattices.realmaps import _real_basis

    assert _real_basis(3) is _real_basis(3)
    basis = _real_basis(3)
    assert basis.tobytes() == np.hstack([np.eye(3), 1j * np.eye(3)]).tobytes()
    with pytest.raises(ValueError):
        basis[0, 0] = 2.0
    # nothing returned shares memory with the constant
    rng = np.random.default_rng(2517)
    forms = [
        random_split(rng, 3),
        BlockForm(*(rng.standard_normal((3, 3)) for _ in range(4))),
        NormalizedForm(0.2 * random_complex(rng, 3)),
    ]
    returned = []
    for t in forms:
        g, normal = normalize_post_composition(t)
        returned += [realify(t), apply(t, random_points(rng, 3, 2)), g, normal.e]
        for kind in KINDS:
            try:
                u = convert(t, kind)
            except NotInSplitClass:
                continue
            returned += [getattr(u, f.name) for f in dataclasses.fields(u)]
    assert not any(np.shares_memory(out, basis) for out in returned)
    # and no operation wrote into it
    assert _real_basis(3).tobytes() == np.hstack([np.eye(3), 1j * np.eye(3)]).tobytes()
