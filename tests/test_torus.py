"""Tests for torus points: reduction, group laws, and cross-basis equality."""

import numpy as np
import pytest

from cxlattices import Tolerance
from cxlattices.errors import DimensionMismatch, InternalCheckError, LatticeMismatch, NumericOverflow
from cxlattices.lattices import from_generators, standard_lattice
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
