"""Representation, conversion, and domination tests for real-linear maps."""

from __future__ import annotations

import numpy as np
import pytest

from cxlattices import InternalCheckError, NotInSplitClass, SingularM, Tolerance
from cxlattices.realmaps import (
    BlockForm,
    ConjugatePairForm,
    NormalizedForm,
    SplitForm,
    apply,
    contraction_check,
    convert,
    domination_ratio,
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

