"""Kernel tests: every numeric primitive is checked against an independent oracle."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from cxlattices import (
    DimensionMismatch,
    InternalCheckError,
    NotSelfAdjoint,
    SingularMatrix,
    Tolerance,
    adjoint,
    det,
    hermitian_eig,
    inverse,
    invertibility_margin,
    matmul,
    operator_norm,
    singular_values,
    solve,
)
from cxlattices import kernel
from cxlattices.kernel import GRAY_ZONE, fro, gated_solve, in_gray_zone, real_columns


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Naive triple-loop product; the reference the fast path must match."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=complex)
    for i in range(n):
        for j in range(m):
            acc = 0j
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def det3_oracle(a: np.ndarray) -> complex:
    """Leibniz expansion for 3x3, written out term by term."""
    return (
        a[0, 0] * a[1, 1] * a[2, 2]
        + a[0, 1] * a[1, 2] * a[2, 0]
        + a[0, 2] * a[1, 0] * a[2, 1]
        - a[0, 2] * a[1, 1] * a[2, 0]
        - a[0, 1] * a[1, 0] * a[2, 2]
        - a[0, 0] * a[1, 2] * a[2, 1]
    )


def random_complex(rng: np.random.Generator, n: int, m: int | None = None) -> np.ndarray:
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = random_complex(rng, n)
    return 0.5 * (a + a.conj().T)


# ---------------------------------------------------------------- matmul


def test_matmul_identity():
    x = np.array([[1 + 2j, 3], [0, 4j]])
    assert np.array_equal(matmul(np.eye(2), x), x)


def test_matmul_imaginary_unit_squares_to_minus_one():
    out = matmul([[1j]], [[1j]])
    assert out[0, 0] == -1 + 0j


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(101)
    for _ in range(25):
        a = random_complex(rng, 3, 4)
        b = random_complex(rng, 4, 2)
        np.testing.assert_allclose(matmul(a, b), matmul_oracle(a, b), rtol=1e-13, atol=1e-13)


def test_matmul_associative():
    rng = np.random.default_rng(102)
    for _ in range(25):
        a, b, c = (random_complex(rng, 4) for _ in range(3))
        np.testing.assert_allclose(matmul(matmul(a, b), c), matmul(a, matmul(b, c)), rtol=1e-12, atol=1e-12)


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        matmul(np.eye(2), np.eye(3))


# ---------------------------------------------------------------- adjoint


def test_adjoint_conjugates():
    assert adjoint([[1j]])[0, 0] == -1j


def test_adjoint_involution_and_product_reversal():
    rng = np.random.default_rng(103)
    a = random_complex(rng, 4)
    b = random_complex(rng, 4)
    np.testing.assert_array_equal(adjoint(adjoint(a)), a)
    np.testing.assert_allclose(adjoint(matmul(a, b)), matmul(adjoint(b), adjoint(a)), rtol=1e-13)


# ---------------------------------------------------------------- solve / det


def test_solve_identity_returns_rhs():
    b = np.array([1 + 1j, 2, 3j])
    np.testing.assert_allclose(solve(np.eye(3), b), b, rtol=0, atol=0)


def test_solve_scalar():
    np.testing.assert_allclose(solve([[2]], [[4]]), [[2]])


def test_solve_residual_bound():
    rng = np.random.default_rng(104)
    for _ in range(50):
        a = random_complex(rng, 5)
        b = random_complex(rng, 5, 2)
        x = solve(a, b)
        residual = np.linalg.norm(a @ x - b)
        assert residual <= 1e-9 * np.linalg.norm(a) * max(np.linalg.norm(x), 1.0) + 1e-12


def test_solve_matches_numpy():
    rng = np.random.default_rng(105)
    a = random_complex(rng, 6)
    b = random_complex(rng, 6, 3)
    np.testing.assert_allclose(solve(a, b), np.linalg.solve(a, b), rtol=1e-9, atol=1e-12)


def test_solve_singular_raises():
    with pytest.raises(SingularMatrix):
        solve([[1, 1], [1, 1]], [1, 2])


def test_solve_near_singular_raises():
    a = np.array([[1.0, 0.0], [0.0, 1e-15]])
    with pytest.raises(SingularMatrix):
        solve(a, [1, 1])


def test_inverse_roundtrip():
    rng = np.random.default_rng(106)
    a = random_complex(rng, 4)
    np.testing.assert_allclose(a @ inverse(a), np.eye(4), rtol=0, atol=1e-12)


def test_det_identity_and_diagonal():
    assert det(np.eye(4)) == pytest.approx(1.0)
    assert det(np.diag([2, 3j])) == pytest.approx(6j)


def test_det_against_leibniz():
    rng = np.random.default_rng(107)
    for _ in range(50):
        a = random_complex(rng, 3)
        assert det(a) == pytest.approx(det3_oracle(a), rel=1e-12)


def test_det_multiplicative():
    rng = np.random.default_rng(108)
    for _ in range(25):
        a = random_complex(rng, 4)
        b = random_complex(rng, 4)
        assert det(a @ b) == pytest.approx(det(a) * det(b), rel=1e-9)


def test_det_singular_is_tiny():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert abs(det(a)) < 1e-14


def test_det_keeps_lapacks_bits_wherever_they_are_a_finite_normal_double():
    # from n = 2 on; at n = 1 the det is the entry itself (next test)
    rng = np.random.default_rng(109)
    for n in (2, 3, 8):
        for scale in (1.0, 1e-30, 1e30):
            a = random_complex(rng, n) * scale
            want = np.linalg.det(a.astype(complex))
            assert np.complex128(det(a)).tobytes() == want.tobytes()


def test_the_det_of_a_1x1_matrix_is_its_entry_bit_for_bit():
    # numpy's det is sign exp(log |a|): 1.2000000000000646e308 (1 + i) for the entry
    # 1.2e308 (1 + i), with a warning; the kernel gives the entry, alone and in a stack,
    # also where it is subnormal (taken again at unit scale, exactly)
    rng = np.random.default_rng(110)
    entries = [complex(1.2e308, 1.2e308), complex(-0.0, 5e-324), complex(3e-310, -1.0e-311)]
    entries += [complex(*x) for x in rng.standard_normal((20, 2)) * 10.0 ** rng.integers(-300, 300, (20, 1))]
    for z in entries:
        d, e = kernel._unit_det(np.array([[z]]))
        assert det([[z]]) == z and kernel._ldexp(d, e) == z, z
    stack = np.array(entries).reshape(-1, 1, 1)
    got = kernel._unit_det(stack)
    assert [kernel._ldexp(d, e) for d, e in got] == entries
    assert repr(got) == repr([kernel._unit_det(x) for x in stack])


def test_det_past_the_doubles_is_a_number_and_never_warns():
    # numpy's own det gives nan+nanj, inf+nanj and inf+nanj on the first three, with
    # warnings; the kernel's scale rule retakes each on A 2^-e (tier-1 turns a warning into
    # an error, so each call below is also a check that none is raised)
    zero = det([[0, 5e-324], [5e-324, 0]])
    assert zero == 0 and not np.isnan(zero.real) and not np.isnan(zero.imag)
    for a, want in (
        (np.eye(2) * 1e200, complex(np.inf, 0.0)),
        (np.eye(3) * -1e200, complex(-np.inf, 0.0)),
        (np.array([[1e308, 1e308], [1e308, -1e308]]), complex(-np.inf, 0.0)),  # sigma_max is inf
        (np.eye(2) * 1e-170, 0j),
        (np.zeros((2, 2)), 0j),
    ):
        d = det(a)
        assert d == want and not np.isnan(d.imag), (a, d)
    # a determinant below the smallest normal double is rounded from the one at unit scale
    assert det(np.eye(2) * 1e-160) == pytest.approx(1e-320, rel=1e-3)


def test_unit_det_of_a_stack_is_each_matrixs_bit_for_bit():
    # one LAPACK call for the stack, and only a det that is not a finite normal double is
    # taken again, at that matrix's own unit scale
    rng = np.random.default_rng(113)
    odd = [np.array([[0, 5e-324], [5e-324, 0]]), np.eye(2) * 1e200, np.eye(2) * 1e-170, np.zeros((2, 2))]
    for i, m in enumerate(odd):
        stack = np.array([random_complex(rng, 2), m, random_complex(rng, 2)][i % 2:], dtype=complex)
        got = kernel._unit_det(stack)
        assert repr(got) == repr([kernel._unit_det(x) for x in stack]), i
        assert all(isinstance(d, complex) and isinstance(e, int) for d, e in got)
        assert got[-2][1] != 0 and not np.isnan(got[-2][0])


def _closed_form_population(rng):
    """2 x 2 complex matrices for the closed form: sigma_min / sigma_max from 1 to 1e-12 at
    scales 2^k, |k| <= 1000, matrices of subnormal entries, and matrices whose largest part
    is near the largest double."""
    eps, big = np.finfo(float).eps, np.finfo(float).max
    mats = []
    for k in rng.integers(-1000, 1001, 300):
        q1, _ = np.linalg.qr(random_complex(rng, 2))
        q2, _ = np.linalg.qr(random_complex(rng, 2))
        a = q1 * np.array([1.0, 10.0 ** -rng.uniform(0.0, 12.0)]) @ q2
        mats.append(np.ldexp(a.view(float), int(k)).view(complex))
    for _ in range(100):
        parts = rng.integers(-9, 10, (2, 4)).astype(float) * 5e-324  # subnormal, exact
        mats.append(parts[:, :2] + 1j * parts[:, 2:])
        a = random_complex(rng, 2)
        a *= (1.0 - 4 * eps) * (big / np.abs(a.view(float)).max().clip(1.0))
        mats.append(a)
    return [m for m in mats if np.any(m)]


def test_the_closed_form_at_n_le_2_agrees_with_lapack():
    # kernel._small_form reads X at its own unit scale, its largest part in [1, 2): there
    # sigma_max agrees with LAPACK's SVD to a few eps relative, and sigma_min and |det| /
    # sigma_max (det against LAPACK's LU) to a few eps sigma_max absolute, at every scale
    eps = np.finfo(float).eps
    for m in _closed_form_population(np.random.default_rng(121)):
        form = kernel._small_form(m.tolist())
        unit = np.ldexp(m.view(float), -form.scale).view(complex)  # exact: no part underflows
        assert 1.0 <= np.abs(unit.view(float)).max() < 2.0
        assert np.array_equal(np.ldexp(unit.view(float), form.scale).view(complex), m)
        s = np.linalg.svd(unit, compute_uv=False)
        d = complex(np.linalg.det(unit))
        assert abs(form.sigma_max - s[0]) <= 4 * eps * s[0], m
        assert abs(form.sigma_min - s[1]) <= 4 * eps * s[0], m
        assert abs(abs(form.det) - abs(d)) <= 4 * eps * s[0] ** 2, m
        g = unit.conj().T @ unit
        assert np.allclose(form.gram, (g[0, 0].real, g[1, 1].real, g[0, 1]), rtol=0, atol=4 * eps * s[0] ** 2)
    for z in (3 + 4j, 5e-324j, -1.7e308 + 1e308j):
        form = kernel._small_form([[z]])
        unit = kernel._ldexp(z, -form.scale)
        assert (form.sigma_max, form.sigma_min, form.det) == (abs(unit), abs(unit), unit)


# ---------------------------------------------------------------- hermitian_eig


def test_hermitian_eig_diagonal():
    w, v = hermitian_eig(np.diag([4.0, 1.0]))
    np.testing.assert_allclose(w, [1.0, 4.0], rtol=0, atol=0)
    np.testing.assert_allclose(np.abs(v), [[0, 1], [1, 0]], atol=1e-15)


def test_hermitian_eig_2x2_characteristic_polynomial():
    # det([[2-t, 1], [1, 2-t]]) = t^2 - 4t + 3 = (t-1)(t-3), roots frozen below
    w, v = hermitian_eig([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(w, [1.0, 3.0], rtol=1e-14)
    p = np.array([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(p @ v, v @ np.diag(w), atol=1e-13)


def test_hermitian_eig_reconstruction_random():
    rng = np.random.default_rng(109)
    for n in (1, 2, 3, 5, 8):
        for _ in range(10):
            p = random_hermitian(rng, n)
            w, v = hermitian_eig(p)
            scale = max(np.linalg.norm(p), 1e-300)
            assert np.linalg.norm(p @ v - v @ np.diag(w)) <= 1e-10 * scale
            assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-10
            assert np.all(np.diff(w) >= -1e-14 * scale)


def test_hermitian_eig_matches_numpy_eigvalsh():
    rng = np.random.default_rng(110)
    for _ in range(20):
        p = random_hermitian(rng, 6)
        w, _ = hermitian_eig(p)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(p), rtol=1e-10, atol=1e-10)


def test_fro_scales_only_when_the_plain_sum_fails():
    rng = np.random.default_rng(4604)
    for _ in range(20):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        # the common path is the unscaled sum, bit for bit
        assert fro(a) == float(np.sqrt(np.sum(np.abs(a) ** 2)))
        with np.errstate(over="ignore"):
            assert fro(1e160 * a) == pytest.approx(1e160 * fro(a), rel=1e-14)
        assert fro(1e-170 * a) == pytest.approx(1e-170 * fro(a), rel=1e-14)
    assert fro(np.zeros((2, 2))) == 0.0


def test_fro_sets_off_no_overflow_warning():
    a = np.array([[1e160, 2e160], [3.0, 1e-170]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fro(a) == pytest.approx(np.sqrt(5.0) * 1e160, rel=1e-15)
        # a solve whose solution is ~1e197 checks its residual with fro
        assert np.abs(solve([[5e-201j]], [0.001])) == pytest.approx(2e197)
    assert np.isnan(fro([np.nan, 1.0])) and fro([np.inf, 1.0]) == np.inf


def test_gray_zone_is_the_factor_around_the_threshold():
    assert in_gray_zone(1e-9, 1e-9)
    assert in_gray_zone(GRAY_ZONE * 1e-9, 1e-9) and in_gray_zone(1e-9 / GRAY_ZONE, 1e-9)
    assert not in_gray_zone(1.1 * GRAY_ZONE * 1e-9, 1e-9)
    assert not in_gray_zone(0.9e-9 / GRAY_ZONE, 1e-9)


def test_real_columns_stacks_real_over_imaginary_parts():
    w = np.array([[1 + 2j, 3 - 1j], [0.5j, -4.0]])
    np.testing.assert_array_equal(real_columns(w), [[1, 3], [0, -4], [2, -1], [0.5, 0]])
    np.testing.assert_array_equal(real_columns(np.array([1 + 2j, 3j])), [1, 0, 2, 3])


def test_hermitian_eig_beyond_the_square_overflow():
    p = np.array([[1e155, 2e155], [2e155, 1e155]])
    w, _ = hermitian_eig(p)
    np.testing.assert_allclose(w, np.linalg.eigvalsh(p), rtol=1e-12)


def test_hermitian_eig_rejects_non_selfadjoint():
    with pytest.raises(NotSelfAdjoint):
        hermitian_eig([[0.0, 1.0], [0.0, 0.0]])


# ---------------------------------------------------------------- singular values


def test_singular_values_identity():
    np.testing.assert_allclose(singular_values(np.eye(3)), [1.0, 1.0, 1.0], atol=1e-14)


def test_singular_values_nilpotent():
    np.testing.assert_allclose(singular_values([[0.0, 2.0], [0.0, 0.0]]), [2.0, 0.0], atol=1e-14)


def test_singular_values_descending_and_adjoint_invariant():
    rng = np.random.default_rng(111)
    for _ in range(10):
        a = random_complex(rng, 4)
        s = singular_values(a)
        assert np.all(np.diff(s) <= 1e-12)
        np.testing.assert_allclose(s, singular_values(a.conj().T), rtol=1e-10, atol=1e-10)


def test_largest_singular_value_dominates_random_directions():
    rng = np.random.default_rng(112)
    a = random_complex(rng, 3)
    s1 = operator_norm(a)
    for _ in range(1000):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z /= np.linalg.norm(z)
        assert np.linalg.norm(a @ z) <= s1 * (1 + 1e-10)


def test_singular_values_match_numpy_svd():
    rng = np.random.default_rng(113)
    for _ in range(10):
        a = random_complex(rng, 5, 3)
        np.testing.assert_allclose(singular_values(a), np.linalg.svd(a, compute_uv=False), rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_singular_values_agree_with_lapack_to_1e12(n):
    rng = np.random.default_rng(114 + n)
    for _ in range(20):
        a = random_complex(rng, n)
        s = singular_values(a)
        ref = np.linalg.svd(a, compute_uv=False)
        assert s.shape == (n,)
        assert np.all(np.diff(s) <= 0.0)
        np.testing.assert_allclose(s, ref, rtol=1e-12, atol=1e-12 * ref[0])


def test_singular_values_of_singular_input():
    rng = np.random.default_rng(115)
    for n in (2, 3, 4, 8):
        a = random_complex(rng, n)
        a[:, 0] = 0.0  # a zero column: the rank loss is exact, so is the zero
        assert singular_values(a)[-1] == 0.0
        b = random_complex(rng, n)
        b[-1] = b[0]  # a repeated row: zero up to rounding in A, not in A* A
        for c in (a.conj().T, b):
            s = singular_values(c)
            assert s[-1] <= 4.0 * n * np.finfo(float).eps * s[0]
    np.testing.assert_array_equal(singular_values(np.zeros((3, 3))), [0.0, 0.0, 0.0])


def test_wide_input_keeps_one_value_per_column():
    np.testing.assert_allclose(singular_values(np.ones((1, 2))), [np.sqrt(2.0), 0.0], rtol=1e-15)
    s = singular_values([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert s.shape == (3,) and s[-1] == 0.0
    np.testing.assert_allclose(s[:2], np.linalg.svd([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], compute_uv=False))
    assert singular_values(np.ones((3, 1))).shape == (1,)


# ---------------------------------------------------------------- misc


def test_invertibility_margin():
    ok, margin = invertibility_margin(np.eye(3))
    assert ok and margin == pytest.approx(1.0)
    ok, margin = invertibility_margin([[1.0, 1.0], [1.0, 1.0]])
    assert not ok and margin < 1e-12


def test_invertibility_margin_wide_and_tall():
    # a wide matrix has a kernel, so it is never invertible; a tall one can be injective
    assert invertibility_margin(np.ones((1, 2))) == (False, 0.0)
    assert invertibility_margin(np.ones((2, 3))) == (False, 0.0)
    assert invertibility_margin(np.ones((3, 1))) == (True, 1.0)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, n) / np.sqrt(2.0))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def with_ratio(rng: np.random.Generator, n: int, ratio: float) -> np.ndarray:
    """Random n x n complex matrix with sigma_max = 1 and sigma_min = ratio."""
    s = np.sort(10.0 ** rng.uniform(np.log10(ratio), 0.0, n))[::-1]
    s[0], s[-1] = 1.0, ratio
    return haar_unitary(rng, n) @ np.diag(s) @ haar_unitary(rng, n).conj().T


def test_rank_deficient_population_is_never_called_invertible_outside_the_band():
    # sigma_min / sigma_max in [1e-16, 1e-10], below tol.rel = 1e-9: an invertible
    # verdict is wrong, and allowed only when the margin sits in the boundary band
    tol = Tolerance()
    rng = np.random.default_rng(4201)
    wrong = []
    for k in range(300):
        n = int(rng.integers(2, 7))
        ratio = 10.0 ** rng.uniform(-16.0, -10.0)
        a = with_ratio(rng, n, ratio)
        ok, margin = invertibility_margin(a, tol)
        if ok and margin > GRAY_ZONE * tol.rel:
            wrong.append((k, n, ratio, margin))
    assert wrong == []


def test_solve_refuses_exactly_what_the_margin_calls_singular():
    # sigma_min / sigma_max log-uniform in [1e-14, 1e-6], across tol.rel = 1e-9:
    # solve raises SingularMatrix if and only if invertibility_margin says singular
    tol = Tolerance()
    rng = np.random.default_rng(4203)
    disagree = []
    for k in range(300):
        n = int(rng.integers(2, 7))
        a = with_ratio(rng, n, 10.0 ** rng.uniform(-14.0, -6.0))
        b = random_complex(rng, n)
        ok, margin = invertibility_margin(a, tol)
        try:
            solve(a, b, tol)
            refused = False
        except SingularMatrix:
            refused = True
        if refused == ok:
            disagree.append((k, n, margin, refused))
    assert disagree == []


def test_each_kernel_entry_validates_the_callers_arrays_once(validation_calls, singular_value_calls):
    # A and B are copied and checked once each; the gate and the LU run on those copies
    rng = np.random.default_rng(4211)
    a, b = random_complex(rng, 3), random_complex(rng, 3)
    solve(a, b)
    assert validation_calls == ["as_matrix", "as_columns"]
    assert singular_value_calls == [(3, 3)]
    counts = {}
    for fn in (det, adjoint, inverse, singular_values, invertibility_margin, operator_norm):
        validation_calls.clear()
        fn(a)
        counts[fn.__name__] = len(validation_calls)
    validation_calls.clear()
    hermitian_eig(random_hermitian(rng, 3))
    counts["hermitian_eig"] = len(validation_calls)
    assert set(counts.values()) == {1}, counts


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rel=0.0)
    with pytest.raises(ValueError):
        Tolerance(abs=-1.0)


def test_nan_rejected():
    with pytest.raises(ValueError):
        matmul([[np.nan]], [[1.0]])


@pytest.mark.filterwarnings("error")
def test_finite_self_adjoint_input_near_the_largest_double_stays_finite():
    # P + P* overflows for entries past half the largest double; the Hermitian part and
    # the self-adjointness test must not (each line warned "overflow encountered in add"
    # or "... in subtract" and gave [inf, inf])
    w, v = hermitian_eig([[1.5e308, 0], [0, 1.5e308]])
    assert w.tolist() == [1.5e308, 1.5e308]
    assert np.array_equal(v, np.eye(2))
    # a norm past the largest double must not read as converged before any rotation
    w, _ = hermitian_eig([[1.5e308, 1e307], [1e307, 1.5e308]])
    np.testing.assert_allclose(w, [1.4e308, 1.6e308], rtol=1e-14)
    # defect and norm both overflowed to inf, and inf > tol.rel * inf is False: it passed
    with pytest.raises(NotSelfAdjoint, match="^self-adjoint defect inf beyond tolerance$"):
        hermitian_eig([[1e308, 1e308], [-1e308, 1e308]])


@pytest.mark.filterwarnings("error")
def test_self_adjoint_part_is_half_of_p_plus_p_star_unless_that_sum_overflows():
    # below 2^1023 the part is 0.5 (P + P*) bit for bit, subnormal P included, where halving
    # first would round odd last bits; from 2^1023 on, where P + P* overflows, it is the part of
    # P scaled down by a power of two, scaled back, exactly
    from cxlattices.kernel import DEFAULT_TOL, _self_adjoint_part

    rng = np.random.default_rng(2501)
    q = rng.uniform(-1.5, 1.5, (3, 3)) + 1j * rng.uniform(-1.5, 1.5, (3, 3))
    q = q + q.conj().T
    for p in (2.0**-1074 * np.round(q * 8), 2.0**-1000 * q, q, 2.0**1000 * q, 2.0**1021 * q):
        want = 0.5 * (p + p.conj().T)
        assert _self_adjoint_part(p, DEFAULT_TOL).tobytes() == want.tobytes()
    odd = np.diag([3.0, 5.0]) * 2.0**-1074 + 0j
    assert _self_adjoint_part(odd, DEFAULT_TOL).tobytes() == odd.tobytes()
    q[0, 0] = 3.5  # 2 * 1.75 * 2^1023 is past the largest double
    huge = 2.0**1022 * q
    want = 2.0**1023 * (0.5 * (q / 2 + q.conj().T / 2))
    assert _self_adjoint_part(huge, DEFAULT_TOL).tobytes() == want.tobytes()
    with pytest.raises(RuntimeWarning, match="overflow"):
        huge + huge.conj().T  # the sum the part would otherwise take


@pytest.mark.filterwarnings("error")
def test_hermitian_eig_keeps_a_subnormal_entry():
    # halving a subnormal with an odd last bit rounds it: 5e-324 must not come back as 0
    w, v = hermitian_eig([[5e-324]])
    assert w.tolist() == [5e-324]
    assert v.tolist() == [[1]]


def test_self_adjointness_verdict_does_not_move_with_a_power_of_two():
    # the test reads P scaled into [1, 2) with tol.abs scaled alike; scaled by 2^k before, a
    # P on either side of the bound gets the verdict it gets at k = 0
    rng = np.random.default_rng(2503)
    tol = Tolerance(rel=1e-9, abs=0.0)
    for factor, refused in ((0.5, False), (2.0, True)):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = x.conj().T @ x
        s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        s = s - s.conj().T
        s *= factor * tol.rel * np.linalg.norm(h) / np.linalg.norm(s)
        for k in (-900, -1, 0, 1, 900, 1020):
            p = (h + 0.5 * s) * 2.0**k
            try:
                hermitian_eig(p, tol)
            except NotSelfAdjoint:
                assert refused, (factor, k)
            else:
                assert not refused, (factor, k)


def reference_fro(a) -> float:
    """fro as first written: numpy's square root, and the largest entry by max(initial=0)."""
    x = np.abs(np.asarray(a))
    big = float(x.max(initial=0.0))
    if big * big * x.size < np.finfo(np.float64).max:
        total = float(np.sqrt((x * x).sum()))
        if total > 0.0 or big == 0.0:
            return total
    if not np.isfinite(big):
        return big
    return big * float(np.sqrt(np.sum((x / big) ** 2)))


def test_fro_keeps_the_first_written_bits():
    rng = np.random.default_rng(2701)
    arrays = [np.zeros(0), np.zeros((0, 3), dtype=complex), np.zeros((2, 2)), np.array([[5e-324]])]
    for shape in ((1,), (7,), (3, 3), (4, 9)):
        x = rng.standard_normal(shape)
        z = x + 1j * rng.standard_normal(shape)
        for scale in (1.0, 1e-160, 1e-310, 5e-324, 1e150, 1e300, 1.7e308):
            with np.errstate(over="ignore", under="ignore"):
                arrays += [x * scale, z * scale]
        arrays += [np.where(x > 0, np.nan, x), np.where(x > 0, np.inf, z), np.full(shape, np.nan + 0j)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in arrays:
            got, want = fro(a), reference_fro(a)
            assert type(got) is float
            assert np.array_equal(got, want, equal_nan=True), (a, got, want)


def gated_solve_full_bound(am, margin, norm, bm, tol):
    """gated_solve's outcome from the full residual bound, ||x|| always taken."""
    x = np.linalg.solve(am, bm)
    residual = fro(am @ x - bm)
    refused = residual > tol.rel * norm * max(fro(x), 1.0) + tol.abs
    try:
        got = gated_solve(am, margin, norm, bm, tol)
    except InternalCheckError:
        assert refused
        return None
    assert not refused and np.array_equal(got, x)
    return got


def test_gated_solve_takes_the_full_bounds_verdict_around_tol_abs(monkeypatch):
    # tol.rel far below rounding leaves tol.abs the whole bound: a residual r passes at
    # tol.abs = r, without ||x||, and is refused one ulp below, where ||x|| is taken
    norms_taken = []
    monkeypatch.setattr(kernel, "fro", lambda a: norms_taken.append(a.shape) or fro(a))
    rng = np.random.default_rng(2702)
    for n in (1, 2, 3, 8):
        for _ in range(20):
            am, bm = random_complex(rng, n), random_complex(rng, n, 1)
            residual = fro(am @ np.linalg.solve(am, bm) - bm)
            if residual == 0.0:
                continue
            for tol_abs, passes in ((residual, True), (np.nextafter(residual, 0.0), False)):
                norms_taken.clear()
                tol = Tolerance(rel=1e-300, abs=tol_abs)
                assert (gated_solve_full_bound(am, 1.0, fro(am), bm, tol) is not None) == passes
                # the residual's norm, and ||x|| only past tol.abs
                assert norms_taken == ([(n, 1)] if passes else [(n, 1), (n, 1)]), norms_taken


def test_gated_solve_takes_the_full_bounds_verdict_past_tol_abs():
    # at norm ~1e12 the residual, ~1e-4, is far past tol.abs: the relative term decides
    rng = np.random.default_rng(2703)
    for n in (1, 2, 4, 8):
        am, bm = 1e12 * random_complex(rng, n), 1e12 * random_complex(rng, n, 3)
        tol = Tolerance()
        assert fro(am @ np.linalg.solve(am, bm) - bm) > tol.abs
        assert gated_solve_full_bound(am, 1.0, fro(am), bm, tol) is not None
        # the same residual against a bound it breaks, tol.rel far below rounding
        assert gated_solve_full_bound(am, 1.0, fro(am), bm, Tolerance(rel=1e-300)) is None


def test_gated_solve_passes_a_nan_residual_as_the_full_bound_does(monkeypatch):
    # a finite solution whose product with A overflows: 1e308 * 2 - 1e308 * 2 is inf - inf,
    # the residual is NaN, and NaN compares False against either bound, so x is returned
    am = np.array([[1e308, 1e308], [0.0, 1.0]], dtype=complex)
    bm = np.array([[0.0], [-2.0]], dtype=complex)
    x = np.array([[2.0], [-2.0]], dtype=complex)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: x.copy())
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(fro(am @ x - bm))
        assert np.array_equal(gated_solve_full_bound(am, 1.0, fro(am), bm, Tolerance()), x)
