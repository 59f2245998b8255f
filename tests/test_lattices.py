"""Tests for lattice bases, integer witnesses, and the normalization pipeline."""

import warnings

import numpy as np
import pytest

from cxlattices import lattices
from cxlattices.errors import (
    AmbiguousIntegrality,
    DeterminantNotOne,
    DimensionMismatch,
    FirstBlockSingular,
    InternalCheckError,
    NonIntegralEntry,
    NumericOverflow,
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
from cxlattices.gaussian import gdet
from cxlattices.kernel import DEFAULT_TOL, Tolerance, invertibility_margin
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


def test_covolume_past_the_doubles_is_an_overflow_or_an_underflow():
    # the determinant is retaken at unit scale, so an underflow is told from an overflow
    # and from a singular basis, and no path warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflow, match="underflowed"):
            covolume(from_generators([[5e-324j, 5e-324]]))
        with pytest.raises(NumericOverflow, match="underflowed"):
            covolume(from_generators([[1e-160, 1e-160j]]))
        assert covolume(from_generators([[1e200, 1e200j]])) == np.inf
        assert covolume(from_generators([[1e-150, 1e-150j]])) == pytest.approx(1e-300)
        assert covolume(from_generators([[1e150, 1e150j]])) == pytest.approx(1e300)
        assert covolume(LatticeBasis(np.array([[1.0, 2.0]]))) == 0.0


def test_covolume_in_range_is_the_plain_determinant():
    # the retake at unit scale runs only past the doubles: elsewhere the bytes are those of
    # the one determinant of the realification, as LU in complex arithmetic gives it
    rng = np.random.default_rng(15)
    for n in (1, 2, 3, 8):
        for _ in range(10):
            lat = from_generators(random_basis(rng, n).g * 2.0 ** int(rng.integers(-40, 40)))
            assert covolume(lat) == abs(np.linalg.det(lat.realified.astype(complex)))


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


@pytest.mark.filterwarnings("error")
def test_same_lattice_refuses_witness_entries_without_a_fractional_bit():
    # past 2^63 the int64 cast wrapped: [[2^63, ..], ..] (det 2^64 + 1, a strict sublattice) was
    # reported the same lattice with the entry -2^63; from 2^52 on an entry is refused, as reduce does
    wide = Tolerance(rel=1e-40)
    standard = standard_lattice(1)

    def realified(r):
        r = np.array(r, dtype=np.float64)
        return from_generators(r[:1] + 1j * r[1:], wide)

    for r in ([[2.0**63, 119537721], [-77158673929, 1]], [[1, 2.0**52], [0, 1]], [[1, -(2.0**52)], [0, 1]]):
        with pytest.raises(AmbiguousIntegrality, match="keeps no fractional bit"):
            same_lattice(standard, realified(r), wide)
    same, w = same_lattice(standard, realified([[1, 2.0**52 - 1], [0, 1]]), wide)
    assert same and w.tolist() == [[1, 2**52 - 1], [0, 1]]


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


# --- the exact-inverse certificate behind same_lattice ---


@pytest.fixture
def int_det_calls(monkeypatch):
    """The size of every integer witness same_lattice hands to gdet as Gaussian pairs."""
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return gdet(rows)

    monkeypatch.setattr(lattices, "gdet", counted)
    return calls


def bareiss_same_lattice(monkeypatch, lat1, lat2):
    """same_lattice with the certificate switched off, so that gdet decides every witness."""
    with monkeypatch.context() as m:
        m.setattr(lattices, "_inverse_certified", lambda w: False)
        return outcome(same_lattice, lat1, lat2)


def outcome(f, *args):
    """(verdict, witness) of f, or the type and message of the domain error it raises."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - the comparison covers every raise
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    assert type(got) is type(want) and len(got) == len(want) == 2
    if got[1] is None or isinstance(got[1], str):
        assert got == want
    else:
        assert got[0] == want[0]
        assert got[1].dtype == want[1].dtype == np.int64 and np.array_equal(got[1], want[1])
        assert not got[1].flags.writeable


def orthonormal_basis(rng, n):
    # a realification with orthonormal columns: solving against it is accurate to a few ulps
    q, _ = np.linalg.qr(rng.normal(size=(2 * n, 2 * n)))
    return from_generators(q[:n, :] + 1j * q[n:, :])


def elementary_product(rng, m, steps):
    # transvections by +-1, swaps and sign flips of columns: an integer matrix of det +-1
    x = np.eye(m, dtype=np.int64)
    for _ in range(steps):
        i, j = (int(k) for k in rng.choice(m, size=2, replace=False))
        op = int(rng.integers(3))
        if op == 0:
            x[:, j] += int(rng.choice([-1, 1])) * x[:, i]
        elif op == 1:
            x[:, [i, j]] = x[:, [j, i]]
        else:
            x[:, j] = -x[:, j]
    return x


@pytest.mark.filterwarnings("error")
def test_certificate_matches_bareiss_on_unimodular_witnesses(monkeypatch, int_det_calls):
    rng = np.random.default_rng(180)
    for n in range(1, 9):
        for _ in range(6):
            lat1 = orthonormal_basis(rng, n)
            x = elementary_product(rng, 2 * n, 3 * n)
            lat2 = basis_times_int(lat1, x)
            want = bareiss_same_lattice(monkeypatch, lat1, lat2)
            int_det_calls.clear()
            got = same_lattice(lat1, lat2)
            assert int_det_calls == []  # the certificate settles every one of them
            assert_same_outcome(got, want)
            assert got[0] and np.array_equal(got[1], x)


@pytest.mark.filterwarnings("error")
def test_certificate_leaves_non_unimodular_witnesses_to_bareiss(monkeypatch, int_det_calls):
    # det 0, +-2 and +-3: the rounded inverse cannot be an exact integer inverse, so gdet decides
    rng = np.random.default_rng(181)
    for n in (1, 2, 3, 5, 8):
        m = 2 * n
        for d in (0, 2, -2, 3, -3):
            lat1 = orthonormal_basis(rng, n)
            x = elementary_product(rng, m, 2 * n) @ np.diag([d] + [1] * (m - 1))
            x = x @ elementary_product(rng, m, 2 * n)
            r2 = lat1.realified @ x
            lat2 = LatticeBasis(r2[:n, :] + 1j * r2[n:, :])  # a det-0 witness has no valid second basis
            assert lattices._inverse_certified(x) is False
            want = bareiss_same_lattice(monkeypatch, lat1, lat2)
            int_det_calls.clear()
            got = same_lattice(lat1, lat2)
            assert int_det_calls == [m]
            assert_same_outcome(got, want)
            assert got == (False, None)


def power_of_two_pair(n, big, x_small):
    """Bases R1 = diag(1, .., 2^27 at n, .., 1) and R2 = R1 W, W = (I + big E_{0,n}) x_small.

    R1's LU is exact, so the solve returns W itself, and both bases pass from_generators
    although W's entry big puts max|W| max|W^-1| 2n past 2^53.
    """
    m = 2 * n
    r1 = np.eye(m)
    r1[n, n] = 2.0**27
    w = np.eye(m, dtype=np.int64)
    w[0, n] = big
    w = w @ x_small
    r2 = r1 @ w
    return from_generators(r1[:n] + 1j * r1[n:]), from_generators(r2[:n] + 1j * r2[n:]), w


@pytest.mark.filterwarnings("error")
def test_witnesses_past_the_guard_fall_back_to_bareiss(monkeypatch, int_det_calls):
    rng = np.random.default_rng(182)
    for n in (1, 3, 8):
        m = 2 * n
        others = np.array([k for k in range(m) if k not in (0, n)], dtype=np.intp)
        for d in (1, 2):
            # a signed permutation of the other columns keeps both bases as well conditioned
            x_small = np.eye(m, dtype=np.int64)
            x_small[:, others] = x_small[:, rng.permutation(others)] * rng.choice([-1, 1], size=len(others))
            x_small[0, 0] = d
            lat1, lat2, w = power_of_two_pair(n, 2**27, x_small)
            assert np.abs(w).max() == 2**27
            want = bareiss_same_lattice(monkeypatch, lat1, lat2)
            int_det_calls.clear()
            got = same_lattice(lat1, lat2)
            assert int_det_calls == [m]
            assert_same_outcome(got, want)
            assert got[0] == (d == 1)
            if d == 1:
                assert np.array_equal(got[1], w)


@pytest.mark.filterwarnings("error")
def test_certificate_is_exact_or_declines():
    # True only with an exact integer inverse; singular, non-unimodular and past-guard inputs say False
    assert lattices._inverse_certified(np.array([[2, 1], [1, 1]]))
    assert lattices._inverse_certified(np.array([[0, 1], [1, 0]]))  # det -1
    assert not lattices._inverse_certified(np.zeros((3, 3), dtype=np.int64))
    assert not lattices._inverse_certified(np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))
    assert not lattices._inverse_certified(np.array([[1, 2], [3, 4]]))  # det -2
    assert not lattices._inverse_certified(np.array([[1, 2**27], [0, 1]]))  # guard 2^55
    assert lattices._inverse_certified(np.array([[1, 2**25], [0, 1]]))  # guard 2^51
    assert not lattices._inverse_certified(np.array([[1, 2**62], [0, 1]]))
    huge = np.array([[2**62, 1], [1, 0]])  # det -1, but no float64 inverse is exact
    assert not lattices._inverse_certified(huge)
    assert gdet([[(e, 0) for e in row] for row in huge.tolist()]) == (-1, 0)


def test_a_16_by_16_unimodular_pair_runs_no_bareiss_and_a_sublattice_runs_it_once(int_det_calls):
    rng = np.random.default_rng(183)
    lat1 = orthonormal_basis(rng, 8)
    x = elementary_product(rng, 16, 48)
    assert same_lattice(lat1, basis_times_int(lat1, x))[0]
    assert int_det_calls == []
    assert not same_lattice(lat1, basis_times_int(lat1, x @ np.diag([2] + [1] * 15)))[0]
    assert int_det_calls == [16]


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


def reference_permute_to_L1(lat, tol=DEFAULT_TOL):
    """permute_to_L1's greedy loop as first written: the alive columns gathered again at each step."""
    g = lat.g
    n = g.shape[0]
    work = g.copy()
    alive = list(range(2 * n))
    chosen = []
    for _ in range(n):
        norms = np.linalg.norm(work[:, alive], axis=0)
        best = int(np.argmax(norms))
        if norms[best] <= tol.abs:
            raise InternalCheckError("generators of a valid basis cannot all be dependent")
        j = alive.pop(best)
        chosen.append(j)
        q = work[:, j] / np.linalg.norm(work[:, j])
        work = work - np.outer(q, q.conj() @ work)
    perm = tuple(chosen + sorted(alive))
    ok, margin = invertibility_margin(g[:, perm[:n]], tol)
    if not ok:
        raise InternalCheckError(f"pivoted first block is singular (margin {margin:.3e})")
    return g[:, perm], perm, margin


def tie_heavy_generators(rng, n):
    """Generators whose columns tie in norm: [I | iI] with its columns permuted, times units
    or 2, plus duplicated and scaled copies of one column (unvalidated: some are rank deficient)."""
    eye = np.eye(n)
    g = np.hstack([eye, 1j * eye])[:, rng.permutation(2 * n)]
    g = g * rng.choice([1, -1, 1j, -1j, 2], size=2 * n)
    if n > 1 and rng.integers(2):
        i, j = (int(k) for k in rng.choice(2 * n, size=2, replace=False))
        g[:, j] = g[:, i] * rng.choice([1, -1, 1j, 2, 0.5])
    return g


@pytest.mark.parametrize("n", range(1, 9))
def test_permute_matches_the_first_written_loop(n):
    rng = np.random.default_rng(190 + n)
    gens = []
    for _ in range(8):
        g = rng.normal(size=(n, 2 * n)) + 1j * rng.normal(size=(n, 2 * n))
        # one column at 1e8, the rest at 1e-9: once chosen, its rounding residual outweighs the rest
        scale = np.full(2 * n, 1e-9)
        scale[rng.integers(2 * n)] = 1e8
        ill = g * scale
        gens += [g, np.rint(3 * g), tie_heavy_generators(rng, n), ill]
    gens.append(standard_lattice(n).g)
    for g in gens:
        lat = LatticeBasis(g)
        want = outcome(reference_permute_to_L1, lat)
        got = outcome(permute_to_L1, lat)
        if isinstance(want[1], str):  # both refuse, with the same error
            assert got == want
            continue
        permuted, perm = got
        assert perm == want[1]
        assert permuted.g.tobytes() == want[0].tobytes() and not permuted.g.flags.writeable
        assert permuted._block_margin == want[2]


def test_permute_then_normalize_takes_the_block_svd_once(singular_value_calls):
    # the basis permute_to_L1 returns keeps the margin of its first block, which
    # normalize_to_Lstarstar reads: 2 SVDs in all (the block, Im Z), where there were 3
    rng = np.random.default_rng(26)
    for n in (1, 3, 8):
        lat = random_basis(rng, n)
        singular_value_calls.clear()
        permuted, perm = permute_to_L1(lat)
        normalize_to_Lstarstar(permuted)
        assert singular_value_calls == [(n, n)] * 2
        assert permuted._block_margin == invertibility_margin(lat.g[:, list(perm[:n])])[1]
        # the carried margin is still gated by the caller's tolerance
        with pytest.raises(FirstBlockSingular):
            normalize_to_Lstarstar(permuted, Tolerance(rel=permuted._block_margin))
    # a basis built otherwise takes its block SVD on the first normalize and keeps it
    lat = from_generators([[2.0, 1.0, 0.0, 1.0j], [0.0, 1.0j, 1.0, 0.0]])
    singular_value_calls.clear()
    normalize_to_Lstarstar(lat)
    normalize_to_Lstarstar(lat)
    assert singular_value_calls == [(2, 2)] * 3


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
    # permute_to_L1 gates its pivoted block through the basis it returns, which keeps that margin;
    # normalize_to_Lstarstar reads it, takes A and Z from one solve behind that gate, and certifies Im Z
    rng = np.random.default_rng(24)
    lat = random_basis(rng, 3)
    singular_value_calls.clear()
    permuted, _ = permute_to_L1(lat)
    assert singular_value_calls == [(3, 3)]
    singular_value_calls.clear()
    a, pm = normalize_to_Lstarstar(permuted)
    assert singular_value_calls == [(3, 3)]  # Im Z only: the block's SVD is the one permute_to_L1 took
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
