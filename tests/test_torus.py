"""Tests for torus points: reduction, group laws, and cross-basis equality."""

import gc
import weakref

import numpy as np
import pytest

from cxlattices import Tolerance
from cxlattices.errors import (
    AmbiguousIntegrality,
    DimensionMismatch,
    InternalCheckError,
    LatticeMismatch,
    NumericOverflow,
    SingularMatrix,
)
from cxlattices.kernel import DEFAULT_TOL, invertibility_margin, real_columns, solve
from cxlattices.lattices import (
    covolume,
    from_generators,
    normalize_to_Lstarstar,
    permute_to_L1,
    same_lattice,
    standard_lattice,
)
from cxlattices.torus import TorusPoint, reduce, torus_add, torus_eq, torus_neg

WIDE = Tolerance(rel=1e-9, abs=1e-9)  # for stress tests that accumulate error


def random_basis(rng, n, min_cond=1e-2):
    while True:
        g = rng.normal(size=(n, 2 * n)) + 1j * rng.normal(size=(n, 2 * n))
        r = np.vstack([g.real, g.imag])
        s = np.linalg.svd(r, compute_uv=False)
        if s[-1] / s[0] > min_cond:
            return from_generators(g)


def random_point(rng, lat):
    z = rng.normal(size=lat.n) + 1j * rng.normal(size=lat.n)
    return reduce(lat, 3.0 * z)


# --- reduction ---


def test_reduce_refuses_coordinates_without_a_fractional_bit():
    # from 2^52 on a double has no fractional bit: 1e17 + 0.5i used to reduce to [0, 0.5]
    lat = standard_lattice(1)
    for z in (2.0**52, -(2.0**52), 1e17 + 0.5j, 1e300, 0.25 + 2.0**52 * 1j):
        with pytest.raises(NumericOverflow, match="keeps no fractional bit"):
            reduce(lat, [z])
    # at 2^51 the spacing is 0.5: one fractional bit is left, and it is kept
    p = reduce(lat, [2.0**51 + 0.5 + 0.25j])
    assert p.coords.tolist() == [0.5, 0.25]


def test_reduce_standard_fractional_parts():
    p = reduce(standard_lattice(1), [2.5 + 3.25j])
    assert p.rep[0] == pytest.approx(0.5 + 0.25j)
    assert np.allclose(p.coords, [0.5, 0.25])


def test_reduce_lattice_point_to_origin():
    lat = standard_lattice(2)
    p = reduce(lat, [3.0 + 4.0j, -2.0 + 7.0j])
    assert np.allclose(p.rep, 0.0, atol=1e-12)
    assert np.array_equal(p.coords, np.zeros(4))


def test_reduce_tau_lattice():
    tau = 0.3 + 1.7j
    lat = from_generators([[1.0, tau]])
    p = reduce(lat, [3.0 + 2.0 * tau + 0.25 + 0.5 * tau])
    assert p.rep[0] == pytest.approx(0.25 + 0.5 * tau)
    assert np.allclose(p.coords, [0.25, 0.5])


def test_reduce_negative_coordinates():
    p = reduce(standard_lattice(1), [-0.25 - 0.5j])
    assert np.allclose(p.coords, [0.75, 0.5])


def test_reduce_wraps_near_one():
    p = reduce(standard_lattice(1), [1.0 - 1e-13 + 0.0j])
    assert p.coords[0] == 0.0
    assert torus_eq(p, reduce(standard_lattice(1), [0.0 + 0.0j]))


def test_reduce_idempotent():
    rng = np.random.default_rng(50)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        lat = random_basis(rng, n)
        p = random_point(rng, lat)
        again = reduce(lat, p.rep)
        dist = np.abs(again.coords - p.coords)
        dist = np.minimum(dist, 1.0 - dist)  # wraparound-aware
        assert np.all(dist <= 1e-12)
        assert torus_eq(p, again)


def test_reduce_rejects_bad_vector():
    lat = standard_lattice(2)
    with pytest.raises(DimensionMismatch):
        reduce(lat, [1.0 + 0.0j])
    with pytest.raises(ValueError):
        reduce(lat, [np.nan + 0.0j, 0.0 + 0.0j])


def test_point_invariants_enforced():
    lat = standard_lattice(1)
    with pytest.raises(InternalCheckError):
        TorusPoint(lat, [0.5 + 0.0j], [0.5, 1.0])
    with pytest.raises(InternalCheckError):
        TorusPoint(lat, [0.9 + 0.0j], [0.5, 0.0])
    with pytest.raises(DimensionMismatch):
        TorusPoint(lat, [0.5 + 0.0j], [0.5])
    p = TorusPoint(lat, [0.5 + 0.25j], [0.5, 0.25])
    assert not p.rep.flags.writeable


def test_point_built_by_hand_refuses_nan():
    # NaN fails every comparison of the invariants, so it is refused before them
    lat = standard_lattice(1)
    for rep, coords in (([np.nan], [0.5, 0.5]), ([0.5 + 0.5j], [np.nan, 0.5]),
                        ([complex(0.5, np.inf)], [0.5, 0.5])):
        with pytest.raises(ValueError, match="^vector entries must be finite \\(no NaN/Inf\\)$"):
            TorusPoint(lat, rep, coords)


def test_reduce_self_check_allows_the_rounding_of_the_wrap_at_zero_abs():
    # c = -1e-20: c - floor(c) rounds to 1.0 and wraps to 0, so the dropped part is -1e-20,
    # off the integer 0 by |c|, which only the rounding term of the bound allows
    p = reduce(standard_lattice(1), [-1e-20 + 0.5j], Tolerance(abs=0.0))
    assert p.coords.tolist() == [0.0, 0.5]
    assert p.rep.tolist() == [0.5j]


@pytest.mark.parametrize("drift", [1e-12, 1e-9])
def test_reduce_self_check_still_catches_a_drift_above_its_bound(monkeypatch, drift):
    # at tol.abs = 0 and |c| <= 1 the bound is 2 eps + (1e-12 + eps) |c| < 6e-13
    from cxlattices import torus

    point = torus._point

    def drifted(lat, c, tol):
        p = point(lat, c, tol)
        return torus._built(TorusPoint, lattice=lat, rep=p.rep, coords=p.coords + [drift, 0.0])

    monkeypatch.setattr(torus, "_point", drifted)
    with pytest.raises(InternalCheckError, match="drifted off the integers"):
        reduce(standard_lattice(1), [0.25 + 0.5j], Tolerance(abs=0.0))


# --- group laws ---


def test_add_identity():
    rng = np.random.default_rng(51)
    lat = random_basis(rng, 2)
    p = random_point(rng, lat)
    zero = reduce(lat, np.zeros(2, dtype=complex))
    assert torus_eq(torus_add(p, zero), p)


def test_add_wraps():
    lat = standard_lattice(1)
    half = reduce(lat, [0.5 + 0.0j])
    total = torus_add(half, half)
    assert torus_eq(total, reduce(lat, [0.0 + 0.0j]))


def test_add_commutative_and_associative():
    rng = np.random.default_rng(52)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        lat = random_basis(rng, n)
        p, q, r = (random_point(rng, lat) for _ in range(3))
        assert torus_eq(torus_add(p, q), torus_add(q, p))
        left = torus_add(torus_add(p, q), r)
        right = torus_add(p, torus_add(q, r))
        assert torus_eq(left, right)


def test_inverse():
    rng = np.random.default_rng(53)
    for _ in range(20):
        lat = random_basis(rng, 2)
        p = random_point(rng, lat)
        zero = reduce(lat, np.zeros(2, dtype=complex))
        assert torus_eq(torus_add(p, torus_neg(p)), zero)


def test_lattice_periodicity_stress():
    # shifting by large lattice vectors must not move the reduced point
    rng = np.random.default_rng(54)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        lat = random_basis(rng, n)
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        lam = rng.integers(-100, 101, size=2 * n).astype(np.float64)
        shifted = z + lat.g @ lam
        assert torus_eq(reduce(lat, z, WIDE), reduce(lat, shifted, WIDE), WIDE)


def unimodular(rng, m):
    """A product of 2m elementary integer column operations: another basis of the same lattice."""
    x = np.eye(m)
    for _ in range(2 * m):
        i, j = rng.choice(m, size=2, replace=False)
        x[:, j] += rng.choice([-1.0, 1.0]) * x[:, i]
    return x


def two_bases(rng, n):
    g = conditioned_basis(rng, n, 1e2)
    return from_generators(g), from_generators(g @ unimodular(rng, 2 * n))


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_group_law_on_coordinates_agrees_with_reducing_representatives(n):
    rng = np.random.default_rng(70 + n)
    lat, lat2 = two_bases(rng, n)
    for _ in range(10):
        p, q, r = random_point(rng, lat), random_point(rng, lat), random_point(rng, lat2)
        zero = reduce(lat, np.zeros(n, dtype=complex))
        for a, b in ((p, q), (p, r), (r, p)):
            assert torus_eq(torus_add(a, b), reduce(a.lattice, a.rep + b.rep))
            assert torus_eq(torus_add(a, b), torus_add(b, a))
        # one basis: the sum is bitwise commutative and p + (-p) is the origin exactly
        pq, qp = torus_add(p, q), torus_add(q, p)
        assert np.array_equal(pq.coords, qp.coords) and np.array_equal(pq.rep, qp.rep)
        assert np.array_equal(torus_add(p, torus_neg(p)).coords, np.zeros(2 * n))
        assert torus_eq(torus_neg(torus_neg(p)), p)
        assert torus_eq(torus_add(torus_add(p, q), r), torus_add(p, torus_add(q, r)))
        # across bases: p + (-p') is the origin up to the one solve of -p' in p's basis
        p2 = reduce(lat2, p.rep)
        across = torus_add(p, torus_neg(p2))
        assert torus_eq(across, zero)
        assert np.all(np.minimum(across.coords, 1.0 - across.coords) <= 1e-12)
        assert torus_eq(p, p2) and torus_eq(p2, p)
        assert not torus_eq(p, torus_add(p2, reduce(lat2, 0.5 * lat2.g[:, 0])))


# --- equality ---


def test_eq_boundary_wraparound():
    lat = standard_lattice(1)
    a = reduce(lat, [0.0 + 0.0j])
    b = reduce(lat, [1.0 - 5e-13 + 0.0j])
    assert torus_eq(a, b)


def test_eq_distinguishes_points():
    lat = standard_lattice(1)
    assert not torus_eq(reduce(lat, [0.25 + 0.0j]), reduce(lat, [0.5 + 0.0j]))


def test_eq_across_bases_of_same_lattice():
    # same lattice, sheared presentation: points still compare equal
    lat1 = standard_lattice(1)
    lat2 = from_generators([[1.0 + 1.0j, 1.0j]])
    z = [0.3 + 0.4j]
    p = reduce(lat1, z)
    q = reduce(lat2, z)
    assert torus_eq(p, q)
    assert torus_eq(torus_add(p, q), torus_add(q, p))


def test_mismatched_lattices_raise():
    p = reduce(standard_lattice(1), [0.25 + 0.0j])
    q = reduce(from_generators([[2.0, 2.0j]]), [0.25 + 0.0j])
    with pytest.raises(LatticeMismatch):
        torus_add(p, q)
    with pytest.raises(LatticeMismatch):
        torus_eq(p, q)
    r = reduce(standard_lattice(2), [0.0j, 0.0j])
    with pytest.raises(LatticeMismatch):
        torus_eq(p, r)


# --- one gate per basis ---


def conditioned_basis(rng, n, cond):
    # realification U diag(s) V^T with sigma_max / sigma_min = cond
    u, _ = np.linalg.qr(rng.normal(size=(2 * n, 2 * n)))
    v, _ = np.linalg.qr(rng.normal(size=(2 * n, 2 * n)))
    r = u @ np.diag(np.geomspace(1.0, 1.0 / cond, 2 * n)) @ v.T
    return r[:n] + 1j * r[n:]


def test_basis_runs_its_gate_once(singular_value_calls):
    rng = np.random.default_rng(56)
    n = 3
    g = conditioned_basis(rng, n, 1e3)
    x = np.eye(2 * n)
    x[:, 1] += 2 * x[:, 0]
    x[:, 4] -= x[:, 5]
    singular_value_calls.clear()
    lat = from_generators(g)
    assert singular_value_calls == [(2 * n, 2 * n)]
    lat2 = from_generators(g @ x)  # another basis of the same lattice
    singular_value_calls.clear()
    z, w = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    p, q, r = reduce(lat, z), reduce(lat, w), reduce(lat2, z)
    torus_add(p, q)
    torus_neg(p)
    assert torus_eq(p, r)
    assert same_lattice(lat, lat2)[0]
    permuted, _ = permute_to_L1(lat)
    standard = standard_lattice(n)
    assert singular_value_calls == [(n, n)]  # the pivoted block only: a basis takes its SVD when first read
    assert standard.margin == 1.0
    assert permuted.margin == pytest.approx(lat.margin, rel=1e-12)
    permuted.margin, standard.margin, lat.margin
    assert singular_value_calls == [(n, n), (2 * n, 2 * n), (2 * n, 2 * n)]  # and keeps it
    assert permuted.margin == invertibility_margin(permuted.realified)[1]


def test_group_operations_on_one_basis_run_no_solve(solve_calls):
    rng = np.random.default_rng(62)
    for n in (1, 2, 3, 8):
        lat, lat2 = two_bases(rng, n)
        p, q, r = random_point(rng, lat), random_point(rng, lat), random_point(rng, lat2)
        torus_eq(p, r)  # decides, and remembers, that the two bases present one lattice
        solve_calls.clear()
        torus_add(p, q)
        torus_neg(p)
        torus_eq(p, q)
        assert solve_calls == []
        torus_eq(p, r)
        assert solve_calls == [(2 * n, 1)]  # r's representative in p's basis
        torus_add(p, r)
        assert solve_calls == [(2 * n, 1)] * 2
        reduce(lat, p.rep)
        assert solve_calls == [(2 * n, 1)] * 3


def test_torus_and_basis_steps_validate_only_the_callers_arrays(validation_calls):
    # the generators and each point the caller passes are validated once; the representatives
    # and the bases the library builds go to the basis's solve as they are
    rng = np.random.default_rng(57)
    n = 2
    g = conditioned_basis(rng, n, 1e2)
    x = np.eye(2 * n)
    x[:, 0] += x[:, 3]
    validation_calls.clear()
    lat, lat2 = from_generators(g), from_generators(g @ x)
    assert validation_calls == ["as_matrix"] * 2
    z, w = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    validation_calls.clear()
    p, q, r = reduce(lat, z), reduce(lat, w), reduce(lat2, z)
    assert validation_calls == ["as_vector"] * 3
    validation_calls.clear()
    torus_add(p, q)
    torus_neg(p)
    assert torus_eq(p, r)
    assert same_lattice(lat, lat2)[0]
    permuted, _ = permute_to_L1(lat)
    normalize_to_Lstarstar(permuted)
    covolume(lat)
    standard_lattice(n)
    assert validation_calls == []


def test_carried_margin_is_still_gated_by_the_callers_tolerance():
    rng = np.random.default_rng(57)
    lat = from_generators(conditioned_basis(rng, 2, 1e6))
    assert lat.margin == invertibility_margin(lat.realified)[1]
    z = [0.3 + 0.1j, -0.2 + 0.7j]
    loose = Tolerance(rel=0.5 * lat.margin)
    p = reduce(lat, z, loose)
    assert torus_eq(torus_add(p, torus_neg(p, loose), loose), reduce(lat, [0.0, 0.0]), loose)
    for rel in (lat.margin, 2.0 * lat.margin):
        tight = Tolerance(rel=rel)
        with pytest.raises(SingularMatrix):
            reduce(lat, z, tight)
        for op in (lambda: torus_add(p, p, tight), lambda: torus_neg(p, tight), lambda: torus_eq(p, p, tight)):
            with pytest.raises(SingularMatrix):  # the group operations run no solve, yet gate the margin
                op()
        with pytest.raises(SingularMatrix):
            same_lattice(lat, lat, tight)
        with pytest.raises(SingularMatrix):
            solve(lat.realified, real_columns(np.asarray(z)), tight)


def test_basis_coordinates_refuse_what_solve_refuses():
    lat = from_generators(conditioned_basis(np.random.default_rng(59), 2, 10.0))
    for w in ([[np.inf], [0.0], [0.0], [0.0]], [[np.nan], [0.0], [0.0], [0.0]]):
        with pytest.raises(ValueError, match="must be finite"):
            solve(lat.realified, w)
        with pytest.raises(ValueError, match="must be finite"):
            lat.coordinates(w)
    with pytest.raises(DimensionMismatch):
        lat.coordinates(np.zeros((3, 1)))


def test_torus_eq_refuses_a_representative_that_overflowed():
    # the coordinates (-0.1, 0.9) reduce to (0.9, 0.9), yet G @ coords overflows: reduce refuses the point
    lat = from_generators([[1e308 + 1e300j, 1e308 - 1e300j]])
    assert np.allclose(lat.coordinates(real_columns(np.array([0.8e308 - 1e300j]))), [-0.1, 0.9])
    with pytest.raises(NumericOverflow, match="overflowed"):
        reduce(lat, [0.8e308 - 1e300j])


def test_sum_of_finite_points_is_finite_and_only_its_representative_can_overflow():
    # coordinates add without forming rep_p + rep_q, so a sum of representatives past the
    # largest double is a finite point; G @ coords past it is still NumericOverflow
    lat = from_generators([[1e308, 1e308j]])
    p = reduce(lat, [0.9e308 + 0.9e308j])
    sheared = from_generators([[1e308, -1e308 + 1e308j]])
    a, b = reduce(sheared, [0.95e308]), reduce(sheared, [0.9 * (-1e308 + 1e308j)])
    tight = from_generators([[1e308 + 1e300j, 1e308 - 1e300j]])
    half, tenth = reduce(tight, [0.9e308]), reduce(tight, [0.2e308])
    assert np.allclose(half.coords, [0.45, 0.45]) and np.allclose(tenth.coords, [0.1, 0.1])
    with np.errstate(all="raise"):  # nothing is warned on the way to a result or an error
        total = torus_add(p, p)
        assert np.allclose(total.coords, [0.8, 0.8], rtol=0.0, atol=1e-15)
        assert np.isfinite(total.rep).all() and np.array_equal(total.rep, lat.g @ total.coords)
        assert torus_eq(total, reduce(lat, [0.8e308 + 0.8e308j]))
        assert torus_eq(torus_neg(p), reduce(lat, [0.1e308 + 0.1e308j]))
        assert torus_eq(torus_add(a, a), reduce(sheared, [0.9e308]))
        assert not torus_eq(a, b) and torus_eq(a, a)
        assert torus_eq(torus_add(a, b), reduce(sheared, [0.05e308 + 0.9e308j]))
        # coordinates (0.9, 0.9) on generators near 1e308: G @ coords overflows
        with pytest.raises(NumericOverflow, match="representative G @ coords overflowed"):
            torus_add(half, half)
        with pytest.raises(NumericOverflow, match="representative G @ coords overflowed"):
            torus_neg(tenth)


def test_basis_coordinates_are_solves_bits():
    # ill-conditioned bases pass the gate too; their LU route keeps its residual bound
    rng = np.random.default_rng(58)
    for cond in (1e1, 1e4, 1e7, 1e8):
        for n in (1, 2, 4, 8):
            lat = from_generators(conditioned_basis(rng, n, cond))
            other = from_generators(conditioned_basis(rng, n, 10.0))
            zs = rng.normal(size=(n, 5)) + 1j * rng.normal(size=(n, 5))
            for k in range(5):
                w = real_columns(zs[:, k])
                assert np.array_equal(lat.coordinates(w), solve(lat.realified, w))
            assert np.array_equal(lat.coordinates(other.realified), solve(lat.realified, other.realified))
            c = solve(lat.realified, real_columns(zs[:, 0])).real
            if np.abs(c).max() < 2.0**52:
                p = reduce(lat, zs[:, 0])
                frac = c - np.floor(c)
                frac[1.0 - frac <= 1e-12] = 0.0
                assert np.array_equal(p.coords, frac)


# --- a point is proved once ---


def test_reduced_points_are_read_only_and_exact():
    # reduce runs no re-check of rep against its coordinates: this is that check, bit for bit
    rng = np.random.default_rng(60)
    for cond in (1e1, 1e4, 1e8):
        for n in (1, 2, 3, 5, 8):
            lat = from_generators(conditioned_basis(rng, n, cond))
            zs = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
            points = [reduce(lat, 3.0 * zs[:, k]) for k in range(4)]
            points += [torus_add(points[0], points[1]), torus_neg(points[2])]
            for p in points:
                assert np.array_equal(p.rep, lat.g @ p.coords)
                assert np.all((p.coords >= 0.0) & (p.coords < 1.0))
                assert p.rep.shape == (n,) and p.coords.shape == (2 * n,)
                assert not p.rep.flags.writeable and not p.coords.flags.writeable
                with pytest.raises(ValueError):
                    p.coords[0] = 0.5
                with pytest.raises(AttributeError):
                    p.rep = p.rep


def test_solve_refuses_an_overflowed_solution():
    # LAPACK's LU overflows to NaN, whose residual a comparison cannot flag
    lat = from_generators([[1e308 + 1e308j, 1e308 - 1e308j]])  # realified: the matrix solved below
    for call in (
        lambda: solve([[1e308, 1e308], [1e308, -1e308]], [0.8e308, -1e308]),
        lambda: lat.coordinates([0.8e308, -1e308]),
        lambda: reduce(lat, [0.8e308 - 1e308j]),
    ):
        with pytest.raises(NumericOverflow, match="not finite"):
            call()


@pytest.fixture
def same_lattice_calls(monkeypatch):
    import cxlattices.torus

    calls = []

    def counted(lat1, lat2, tol=None):
        calls.append(tol)
        return same_lattice(lat1, lat2, tol)

    monkeypatch.setattr(cxlattices.torus, "same_lattice", counted)
    return calls


def test_pair_verdict_is_remembered_per_tolerance(same_lattice_calls):
    # lat2's coordinates in lat1 sit 5e-12 off the integers: same lattice at abs 1e-9,
    # ambiguous at the default 1e-12, different at 1e-13
    lat1 = standard_lattice(1)
    lat2 = from_generators([[1.0 + 5e-12, 1.0j]])
    p, q = reduce(lat1, [0.25 + 0.5j]), reduce(lat2, [0.25 + 0.5j])
    loose, tight = Tolerance(abs=1e-9), Tolerance(abs=1e-13)
    for _ in range(3):
        assert torus_eq(p, q, loose)
        torus_add(p, q, loose)
    assert same_lattice_calls == [loose]
    for _ in range(2):
        with pytest.raises(AmbiguousIntegrality):
            torus_eq(p, q)
    assert same_lattice_calls == [loose, DEFAULT_TOL, DEFAULT_TOL]  # a raise is never remembered
    for _ in range(2):
        with pytest.raises(LatticeMismatch):
            torus_eq(p, q, tight)
    assert same_lattice_calls == [loose, DEFAULT_TOL, DEFAULT_TOL, tight]  # a refusal is
    assert torus_eq(q, p, loose)  # the other order is its own pair: lat2's gate decides it
    assert same_lattice_calls[-1] == loose and len(same_lattice_calls) == 5


def test_pair_verdict_keeps_no_basis_alive():
    rng = np.random.default_rng(61)
    lat1 = random_basis(rng, 2)
    lat2 = from_generators(lat1.g[:, [1, 0, 2, 3]])
    assert torus_eq(reduce(lat1, [0.5, 0.25j]), reduce(lat2, [0.5, 0.25j]))
    gone1, gone2 = weakref.ref(lat1), weakref.ref(lat2)
    del lat2  # lat1 remembers its verdict on lat2, yet lat2 goes
    gc.collect()
    assert gone2() is None and gone1() is lat1
    del lat1
    gc.collect()
    assert gone1() is None
