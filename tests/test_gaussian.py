"""Tests for exact Gaussian-integer arithmetic."""

import itertools

import numpy as np
import pytest

from cxlattices.errors import InternalCheckError
from cxlattices.gaussian import (
    ONE,
    ZERO,
    gabs2,
    gadd,
    gadjugate,
    gconj,
    gdet,
    gdiv_exact,
    gidentity,
    gmat,
    gmatmul,
    gmul,
    gneg,
    gsub,
    int_det,
)


def leibniz_det(a):
    # independent oracle: permutation expansion, still exact over int pairs
    n = len(a)
    total = ZERO
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for x in range(n) for y in range(x + 1, n) if perm[x] > perm[y]
        )
        term = ONE
        for i in range(n):
            term = gmul(term, a[i][perm[i]])
        total = gadd(total, term if inversions % 2 == 0 else gneg(term))
    return total


def random_gmat(rng, n, lo=-5, hi=6):
    return gmat(
        [[(int(rng.integers(lo, hi)), int(rng.integers(lo, hi))) for _ in range(n)] for _ in range(n)]
    )


def test_scalar_ops():
    assert gmul((1, 1), (1, -1)) == (2, 0)
    assert gmul((0, 1), (0, 1)) == (-1, 0)
    assert gadd((3, -2), (-1, 5)) == (2, 3)
    assert gsub((3, -2), (-1, 5)) == (4, -7)
    assert gconj((3, 4)) == (3, -4)
    assert gneg((3, 4)) == (-3, -4)
    assert gabs2((3, 4)) == 25


def test_exact_division():
    assert gdiv_exact((2, 0), (1, -1)) == (1, 1)
    assert gdiv_exact((-5, 10), (1, 2)) == (3, 4)
    with pytest.raises(InternalCheckError):
        gdiv_exact((1, 0), (2, 0))
    with pytest.raises(ZeroDivisionError):
        gdiv_exact((1, 0), (0, 0))


def test_det_frozen_examples():
    assert gdet(gmat([[(1, 1), (0, 0)], [(0, 0), (1, -1)]])) == (2, 0)
    assert gdet(gmat([[(0, 1)]])) == (0, 1)
    # rows proportional over Z[i]: second row is i times the first
    assert gdet(gmat([[(1, 0), (2, 0)], [(0, 1), (0, 2)]])) == ZERO


def test_det_zero_pivot_needs_row_swap():
    a = gmat([[(0, 0), (1, 0)], [(1, 0), (0, 0)]])
    assert gdet(a) == (-1, 0)


def test_det_matches_leibniz():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4):
        for _ in range(60):
            a = random_gmat(rng, n)
            assert gdet(a) == leibniz_det(a)


def test_det_large_entries_stay_exact():
    # floats would lose these digits; int pairs must not
    big = 10**12
    a = gmat([[(big, 1), (0, 0)], [(0, 0), (big, -1)]])
    assert gdet(a) == (big * big + 1, 0)


def test_adjugate_identity_2x2():
    a = gmat([[(1, 0), (2, 3)], [(0, -1), (4, 0)]])
    adj = gadjugate(a)
    assert adj == (((4, 0), (-2, -3)), ((0, 1), (1, 0)))


def test_adjugate_product_property():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 4):
        for _ in range(30):
            a = random_gmat(rng, n, lo=-3, hi=4)
            d = gdet(a)
            prod = gmatmul(a, gadjugate(a))
            expected = tuple(
                tuple(d if i == j else ZERO for j in range(n)) for i in range(n)
            )
            assert prod == expected


def test_matmul_against_numpy():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        a = random_gmat(rng, n)
        b = random_gmat(rng, n)
        ca = np.array([[complex(*e) for e in row] for row in a])
        cb = np.array([[complex(*e) for e in row] for row in b])
        cp = ca @ cb
        prod = gmatmul(a, b)
        for i in range(n):
            for j in range(n):
                assert complex(*prod[i][j]) == cp[i, j]


def test_identity_is_neutral():
    rng = np.random.default_rng(8)
    a = random_gmat(rng, 3)
    assert gmatmul(a, gidentity(3)) == a
    assert gmatmul(gidentity(3), a) == a


def test_int_det():
    assert int_det([[2, 1], [1, 1]]) == 1
    assert int_det([[1, 2], [3, 4]]) == -2
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        m = rng.integers(-4, 5, size=(n, n))
        assert int_det(m.tolist()) == round(float(np.linalg.det(m)))


def as_pairs(rows):
    return [[(int(e), 0) for e in row] for row in rows]


def leibniz_int_det(rows):
    d = leibniz_det(as_pairs(rows))
    assert d[1] == 0
    return d[0]


def test_int_det_matches_leibniz_and_gdet():
    rng = np.random.default_rng(10)
    for _ in range(120):
        n = int(rng.integers(1, 7))
        m = rng.integers(-6, 7, size=(n, n)).tolist()
        d = int_det(m)
        assert d == leibniz_int_det(m)
        assert (d, 0) == gdet(gmat(as_pairs(m)))


def test_int_det_row_swaps_on_zero_pivots():
    # a permutation matrix zeroes every leading pivot it can: the sign follows the swaps
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        perm = rng.permutation(n)
        m = np.eye(n, dtype=np.int64)[perm]
        parity = sum(1 for x in range(n) for y in range(x + 1, n) if perm[x] > perm[y])
        assert int_det(m.tolist()) == (-1) ** parity
    assert int_det([[0, 1], [1, 0]]) == -1
    # a zero pivot that appears only after elimination, not in the input
    assert int_det([[1, 2, 3], [2, 4, 5], [1, 3, 4]]) == leibniz_int_det([[1, 2, 3], [2, 4, 5], [1, 3, 4]])
    for _ in range(40):
        n = int(rng.integers(2, 6))
        m = rng.integers(-3, 4, size=(n, n))
        m[0, 0] = 0
        m[int(rng.integers(1, n)), 1 % n] = 0
        assert int_det(m.tolist()) == leibniz_int_det(m.tolist())


def test_int_det_singular_is_zero():
    assert int_det([[0, 0], [0, 0]]) == 0
    assert int_det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    assert int_det([[1, 0, 2], [3, 0, 4], [5, 0, 6]]) == 0  # a zero column past the first pivot
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        m = rng.integers(-5, 6, size=(n, n))
        i, j = rng.choice(n, size=2, replace=False)
        m[j] = int(rng.integers(-3, 4)) * m[i]  # a dependent row
        assert int_det(m.tolist()) == 0


def test_int_det_is_exact_past_two_to_the_63():
    big = 2**70
    assert int_det([[big, 1], [1, big]]) == big * big - 1
    assert int_det([[big, big + 1], [big - 1, big]]) == 1
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        m = [[int(rng.integers(-(2**62), 2**62)) * 2**9 + int(rng.integers(-9, 10)) for _ in range(n)]
             for _ in range(n)]
        assert int_det(m) == leibniz_int_det(m)


def test_int_det_of_16_by_16_unimodular_matrices():
    # the size of an n = 8 same_lattice witness: transvections and sign flips keep det +-1
    rng = np.random.default_rng(14)
    for _ in range(10):
        x = np.eye(16, dtype=np.int64)
        flips = 0
        for _ in range(60):
            i, j = rng.choice(16, size=2, replace=False)
            x[:, j] += int(rng.integers(-2, 3)) * x[:, i]
            if rng.integers(4) == 0:
                x[:, int(rng.integers(16))] *= -1
                flips += 1
        rows = x.tolist()
        assert int_det(rows) == (-1) ** flips
        assert (int_det(rows), 0) == gdet(gmat(as_pairs(rows)))


def test_int_det_validates_shape():
    with pytest.raises(ValueError):
        int_det([])
    with pytest.raises(ValueError):
        int_det([[1, 2]])


def test_gmat_validates_shape():
    with pytest.raises(ValueError):
        gmat([[(1, 0)], [(1, 0), (2, 0)]])
    with pytest.raises(ValueError):
        gdet(gmat([[(1, 0), (2, 0)]]))
