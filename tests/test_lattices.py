"""Tests for lattice bases, integer witnesses, and the normalization pipeline."""

import numpy as np
import pytest

from cxlattices.errors import (
    AmbiguousIntegrality,
    DeterminantNotOne,
    DimensionMismatch,
    FirstBlockSingular,
    InternalCheckError,
    NonIntegralEntry,
    RankDeficient,
)
from cxlattices.lattices import (
    GaussianUnimodular,
    LatticeBasis,
    PeriodMatrix,
    covolume,
    from_generators,
    gaussian_lattice,
    normalize_to_Lstarstar,
    permute_to_L1,
    rank_margin,
    same_lattice,
    sigma_membership,
    standard_lattice,
    to_split_form,
)
from cxlattices.realmaps import apply, is_invertible


def random_basis(rng, n, min_cond=1e-3):
    while True:
        g = rng.normal(size=(n, 2 * n)) + 1j * rng.normal(size=(n, 2 * n))
        r = np.vstack([g.real, g.imag])
        s = np.linalg.svd(r, compute_uv=False)
        if s[-1] / s[0] > min_cond:
            return from_generators(g)


def random_int_unimodular(rng, m, steps=4):
    # product of integer transvections and sign flips, det stays +-1;
    # few small steps keep entries modest so float solves certify cleanly
    x = np.eye(m, dtype=np.int64)
    for _ in range(steps):
        i, j = rng.choice(m, size=2, replace=False)
        x[:, j] += int(rng.integers(-1, 2)) * x[:, i]
        if rng.integers(2):
            k = int(rng.integers(m))
            x[:, k] = -x[:, k]
    return x


def random_gaussian_unimodular(rng, n, steps=6):
    units = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    rows = [[(1, 0) if i == j else (0, 0) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        if n == 1:
            break
        i, j = rng.choice(n, size=2, replace=False)
        za, zb = units[int(rng.integers(4))]
        for r in range(n):
            a, b = rows[r][i]
            c, d = rows[r][j]
            rows[r][j] = (c + za * a - zb * b, d + za * b + zb * a)
    return GaussianUnimodular(tuple(tuple(row) for row in rows))


def basis_times_int(lat, x):
    # new generators whose realification is R @ X
    r2 = lat.realified @ x
    n = lat.n
    return from_generators(r2[:n, :] + 1j * r2[n:, :])


# --- construction and validation ---


def test_standard_lattice_shape():
    lat = standard_lattice(2)
    assert lat.n == 2
    assert np.array_equal(lat.realified, np.eye(4))


def test_from_generators_valid_tau():
    lat = from_generators([[1.0, 0.3 + 1.7j]])
    assert lat.n == 1


def test_from_generators_rank_deficient():
    with pytest.raises(RankDeficient):
        from_generators([[1.0, 1.0]])


def test_from_generators_shape_errors():
    with pytest.raises(DimensionMismatch):
        from_generators([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        from_generators([[np.nan, 1j]])


def test_basis_is_locked():
    lat = standard_lattice(1)
    assert not lat.g.flags.writeable
    assert not lat.realified.flags.writeable


# --- rank margin ---


def test_rank_margin_standard_is_one():
    assert rank_margin(np.hstack([np.eye(2), 1j * np.eye(2)])) == pytest.approx(1.0)


def test_rank_margin_near_degenerate():
    eps = 1e-3
    g = np.array([[1.0, 1.0 + eps * 1j]])
    margin = rank_margin(g)
    oracle = np.linalg.svd(np.array([[1.0, 1.0], [0.0, eps]]), compute_uv=False)[-1]
    assert margin == pytest.approx(oracle, rel=1e-9)
    assert 1e-4 < margin < 1e-2


def test_rank_margin_rank_deficient_is_tiny():
    assert rank_margin([[1.0, 1.0]]) < 1e-12


def test_rank_margin_partial_columns():
    # fewer than 2n columns is allowed; more is a dimension violation
    assert rank_margin(np.array([[1.0], [0.0]])) == pytest.approx(1.0)
    with pytest.raises(DimensionMismatch):
        rank_margin(np.ones((1, 3)))


def test_rank_margin_openness():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        lat = random_basis(rng, n)
        margin = rank_margin(lat.g)
        pert = rng.normal(size=(n, 2 * n)) + 1j * rng.normal(size=(n, 2 * n))
        pr = np.vstack([pert.real, pert.imag])
        pert *= margin / (3.0 * np.linalg.svd(pr, compute_uv=False)[0])
        assert rank_margin(lat.g + pert) > margin / 3.0


# --- covolume ---


def test_covolume_standard():
    assert covolume(standard_lattice(3)) == pytest.approx(1.0)


def test_covolume_scaled_square():
    assert covolume(from_generators([[2.0, 2.0j]])) == pytest.approx(4.0)


def test_covolume_tau():
    tau = 0.3 + 1.7j
    assert covolume(from_generators([[1.0, tau]])) == pytest.approx(abs(tau.imag))


# --- same_lattice ---


def test_same_lattice_column_swap():
    lat1 = standard_lattice(2)
    g = lat1.g[:, [1, 0, 2, 3]]
    same, witness = same_lattice(lat1, from_generators(g))
    assert same
    assert abs(round(np.linalg.det(witness.astype(float)))) == 1


def test_same_lattice_sheared_generator():
    lat1 = standard_lattice(1)
    lat2 = from_generators([[1.0 + 1.0j, 1.0j]])
    same, witness = same_lattice(lat1, lat2)
    assert same
    assert np.array_equal(witness, np.array([[1, 0], [1, 1]]))


def test_same_lattice_rejects_scaling():
    lat1 = standard_lattice(1)
    same, witness = same_lattice(lat1, from_generators([[2.0, 2.0j]]))
    assert not same
    assert witness is None


def test_same_lattice_rejects_sublattice():
    # integral coordinates but determinant 2: a strict sublattice
    lat1 = standard_lattice(1)
    same, _ = same_lattice(lat1, from_generators([[2.0, 1.0j]]))
    assert not same


def test_same_lattice_ambiguous_band():
    lat1 = standard_lattice(1)
    g = np.array([[1.0 + 3e-12, 1.0j]])
    with pytest.raises(AmbiguousIntegrality):
        same_lattice(lat1, from_generators(g))


def test_same_lattice_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        same_lattice(standard_lattice(1), standard_lattice(2))


def test_same_lattice_equivalence_relation():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        lat1 = random_basis(rng, n, min_cond=3e-2)
        x12 = random_int_unimodular(rng, 2 * n)
        x23 = random_int_unimodular(rng, 2 * n)
        lat2 = basis_times_int(lat1, x12)
        lat3 = basis_times_int(lat2, x23)
        same, w11 = same_lattice(lat1, lat1)
        assert same and np.array_equal(w11, np.eye(2 * n, dtype=np.int64))
        same12, w12 = same_lattice(lat1, lat2)
        same21, w21 = same_lattice(lat2, lat1)
        same13, w13 = same_lattice(lat1, lat3)
        assert same12 and same21 and same13
        # witnesses compose and invert exactly
        assert np.array_equal(w12 @ w21, np.eye(2 * n, dtype=np.int64))
        assert np.array_equal(w13, w12 @ same_lattice(lat2, lat3)[1])


def test_same_lattice_covolume_invariance():
    rng = np.random.default_rng(18)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        lat1 = random_basis(rng, n, min_cond=3e-2)
        lat2 = basis_times_int(lat1, random_int_unimodular(rng, 2 * n))
        assert same_lattice(lat1, lat2)[0]
        c1, c2 = covolume(lat1), covolume(lat2)
        assert abs(c1 - c2) <= 1e-9 * max(c1, c2)


# --- sigma membership ---


def test_sigma_identity():
    member = sigma_membership(np.eye(2))
    assert member.entries == (((1, 0), (0, 0)), ((0, 0), (1, 0)))


def test_sigma_unipotent():
    member = sigma_membership([[1.0, 1.0j], [0.0, 1.0]])
    assert member.entries[0][1] == (0, 1)


def test_sigma_determinant_two():
    with pytest.raises(DeterminantNotOne):
        sigma_membership(np.diag([1.0, 2.0]))


def test_sigma_non_integral():
    with pytest.raises(NonIntegralEntry):
        sigma_membership([[0.5, 0.0], [0.0, 2.0]])


def test_sigma_ambiguous():
    with pytest.raises(AmbiguousIntegrality):
        sigma_membership([[1.0 + 5e-12, 0.0], [0.0, 1.0]])


def test_sigma_unit_determinant_but_not_one():
    # det = i is a Gaussian unit yet not 1; membership requires exactly 1
    with pytest.raises(DeterminantNotOne):
        sigma_membership([[1.0j]])


def test_gaussian_unimodular_inverse_is_exact():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        b = random_gaussian_unimodular(rng, n)
        prod = b.matrix @ b.inverse_matrix()
        assert np.array_equal(prod, np.eye(n).astype(complex))


def test_gaussian_unimodular_inverse_reuses_the_verified_adjugate(monkeypatch):
    from cxlattices import lattices
    from cxlattices.gaussian import gadjugate

    rng = np.random.default_rng(21)
    for n in (1, 2, 3):
        b = random_gaussian_unimodular(rng, n)
        want = np.array([[complex(*e) for e in row] for row in gadjugate(b.entries)])
        monkeypatch.setattr(lattices, "gadjugate", None)  # a second adjugate would fail here
        assert np.array_equal(b.inverse_matrix(), want)
        monkeypatch.undo()
        # the kept adjugate is not part of the value
        assert b == GaussianUnimodular(b.entries) and "_adjugate" not in repr(b)


def test_gaussian_unimodular_stabilizes_standard_lattice():
    rng = np.random.default_rng(20)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        b = random_gaussian_unimodular(rng, n)
        same, _ = same_lattice(standard_lattice(n), gaussian_lattice(b))
        assert same


# --- permutation to a C-independent leading block ---


def test_permute_standard_is_identity():
    lat2, perm = permute_to_L1(standard_lattice(3))
    assert perm == (0, 1, 2, 3, 4, 5)
    assert np.array_equal(lat2.g, standard_lattice(3).g)


def test_permute_single_generator_first():
    lat = from_generators([[2.0j, 1.0]])
    _, perm = permute_to_L1(lat)
    assert perm == (0, 1)


def test_permute_moves_parallel_column_back():
    # second generator is i times the first: C-parallel, so a later one must advance
    g = np.array(
        [[1.0, 1.0j, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0j]]
    )
    lat2, perm = permute_to_L1(from_generators(g))
    assert perm == (0, 2, 1, 3)
    s = np.linalg.svd(lat2.g[:, :2], compute_uv=False)
    assert s[-1] > 0.5


def test_permute_leading_block_always_invertible():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        lat = random_basis(rng, n)
        lat2, perm = permute_to_L1(lat)
        assert sorted(perm) == list(range(2 * n))
        s = np.linalg.svd(lat2.g[:, :n], compute_uv=False)
        assert s[-1] / s[0] > 1e-9
        # permuted basis generates the same lattice
        assert same_lattice(lat, lat2)[0]


# --- normalization to [I | Z] ---


def test_normalize_standard():
    a, pm = normalize_to_Lstarstar(standard_lattice(2))
    assert np.allclose(a, np.eye(2))
    assert np.allclose(pm.z, 1j * np.eye(2))


def test_normalize_scaling_cancels():
    tau = 0.3 + 1.7j
    a, pm = normalize_to_Lstarstar(from_generators([[2.0, 2.0 * tau]]))
    assert a[0, 0] == pytest.approx(0.5)
    assert pm.z[0, 0] == pytest.approx(tau)


def test_normalize_requires_independent_block():
    g = np.array([[1.0, 1.0j, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0j]])
    with pytest.raises(FirstBlockSingular):
        normalize_to_Lstarstar(from_generators(g))


def test_normalize_reconstruction():
    rng = np.random.default_rng(22)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        lat, _ = permute_to_L1(random_basis(rng, n))
        a, pm = normalize_to_Lstarstar(lat)
        g1 = lat.g[:, :n]
        rebuilt = g1 @ np.hstack([np.eye(n), pm.z])
        assert np.linalg.norm(rebuilt - lat.g) <= 1e-9 * np.linalg.norm(lat.g)


def test_each_lattice_step_runs_one_gate(singular_value_calls):
    # permute_to_L1 checks its pivoted block and permutes a validated basis; normalize_to_Lstarstar
    # gates G1, takes A and Z from one solve behind that gate, and certifies Im Z
    rng = np.random.default_rng(24)
    lat = random_basis(rng, 3)
    singular_value_calls.clear()
    permuted, _ = permute_to_L1(lat)
    assert singular_value_calls == [(3, 3)]
    singular_value_calls.clear()
    a, pm = normalize_to_Lstarstar(permuted)
    assert singular_value_calls == [(3, 3)] * 2
    g1 = permuted.g[:, :3]
    inv = np.linalg.inv(g1)
    assert np.linalg.norm(a - inv) <= 1e-10 * np.linalg.norm(inv)
    z = inv @ permuted.g[:, 3:]
    assert np.linalg.norm(pm.z - z) <= 1e-10 * np.linalg.norm(z)


def test_pipeline_lands_on_transformed_lattice():
    # [I | Z] must generate exactly A applied to the original lattice
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        lat = random_basis(rng, n)
        lat1, _ = permute_to_L1(lat)
        a, pm = normalize_to_Lstarstar(lat1)
        transformed = from_generators(a @ lat.g)
        normalized = from_generators(np.hstack([np.eye(n), pm.z]))
        assert same_lattice(transformed, normalized)[0]


def test_period_matrix_requires_invertible_imag():
    with pytest.raises(RankDeficient):
        PeriodMatrix([[0.5]])
    with pytest.raises(DimensionMismatch):
        PeriodMatrix([[0.5j, 1.0j]])


# --- bridge to real-linear maps ---


def test_to_split_form_identity():
    split = to_split_form(PeriodMatrix(1j * np.eye(2)))
    assert np.allclose(split.a, 0.0)
    assert np.allclose(split.b, np.eye(2))
    z = np.array([0.3 + 0.4j, -1.0 + 2.0j])
    assert np.allclose(apply(split, z), z)


def test_to_split_form_componentwise():
    split = to_split_form(PeriodMatrix([[0.3 + 1.7j]]))
    assert split.a[0, 0] == pytest.approx(0.3)
    assert split.b[0, 0] == pytest.approx(1.7)


def test_to_split_form_always_invertible():
    rng = np.random.default_rng(24)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        lat, _ = permute_to_L1(random_basis(rng, n))
        _, pm = normalize_to_Lstarstar(lat)
        assert is_invertible(to_split_form(pm))
