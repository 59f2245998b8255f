"""Tests for bounded lattice-equivalence decisions and their invariants."""

import functools
import hashlib
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings
from itertools import product

import numpy as np
import pytest

import cxlattices
from cxlattices import equivalence
from cxlattices.equivalence import (
    EQUIVALENT,
    REFUTED,
    UNDECIDED,
    EquivalenceVerdict,
    ShortVectorSpectrum,
    lattice_equivalent,
    short_vectors,
    sigma_candidates,
    sigma_orbit_equal,
)
from cxlattices.errors import (
    DimensionTooLarge,
    HeightTooLarge,
    InternalCheckError,
    NotInSL,
    NotPositiveDefinite,
    NumericOverflow,
    RadiusBudgetExceeded,
    SingularMatrix,
)
from cxlattices.gaussian import gadd, gdet, gmat, gmul, gsub
from cxlattices.lattices import GaussianUnimodular
from cxlattices.kernel import (
    DEFAULT_BUDGET,
    DEFAULT_TOL,
    Tolerance,
    _adjoint,
    _det,
    _gram_fro,
    _invertibility_gate,
    _singular_values,
    fro,
)
from cxlattices.polar import GramForm, _classify, _gram_matrix, classify, gram, sl_normalize


def random_invertible(rng, n, min_cond=1e-2):
    while True:
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] / s[0] > min_cond:
            return a


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# --- candidate enumeration ---


def test_candidates_match_exhaustive_box_scan():
    # independent oracle: scan every 2x2 Gaussian matrix of height 1
    box = [(r, i) for r in (-1, 0, 1) for i in (-1, 0, 1)]
    want = set()
    for a, b, c, d in product(box, repeat=4):
        if gsub(gmul(a, d), gmul(b, c)) == (1, 0):
            want.add(((a, b), (c, d)))
    got = sigma_candidates(2, 1)
    assert set(got) == want
    assert len(got) == len(want) == 296


def test_candidate_counts_frozen():
    assert len(sigma_candidates(1, 2)) == 1
    assert len(sigma_candidates(2, 1)) == 296
    assert len(sigma_candidates(2, 2)) == 2472


def test_candidates_have_exact_unit_determinant():
    for n, h in ((1, 1), (2, 1), (2, 2)):
        for c in sigma_candidates(n, h):
            assert gdet(gmat(c)) == (1, 0)


def test_a_proved_witness_is_the_checked_one():
    # the scans build each witness by GaussianUnimodular._proved, without the exact re-proof
    # of its determinant: on every candidate it is the checked constructor's matrix, with the
    # same entries and the same adjugate
    for n, h in ((1, 1), (2, 2)):
        for c in sigma_candidates(n, h):
            proved, checked = GaussianUnimodular._proved(c), GaussianUnimodular(c)
            assert proved == checked
            assert (proved.entries, proved._adjugate) == (checked.entries, checked._adjugate)
            assert proved.inverse_matrix().tobytes() == checked.inverse_matrix().tobytes()


def test_candidates_deterministic_order():
    a = sigma_candidates(2, 2)
    b = sigma_candidates(2, 2)
    assert a == b


def test_candidates_budget_exhaustion():
    with pytest.raises(HeightTooLarge):
        sigma_candidates(3, 2, budget=1000)
    with pytest.raises(HeightTooLarge):
        sigma_candidates(2, 2, budget=10)


def test_candidates_validation():
    with pytest.raises(ValueError):
        sigma_candidates(2, 0)


def _complete_2x2_oracle(height):
    """The pure-Python enumeration the numpy generator must reproduce in order."""
    box = [(re, im) for re in range(-height, height + 1) for im in range(-height, height + 1)]
    out = []
    for a in box:
        for b in box:
            for c in box:
                bc = gmul(b, c)
                if a == (0, 0):
                    if bc == (-1, 0):
                        out.extend(((a, b), (c, d)) for d in box)
                    continue
                num = gadd((1, 0), bc)
                den = a[0] * a[0] + a[1] * a[1]
                dr, rr = divmod(num[0] * a[0] + num[1] * a[1], den)
                di, ri = divmod(num[1] * a[0] - num[0] * a[1], den)
                if rr or ri or max(abs(dr), abs(di)) > height:
                    continue
                out.append(((a, b), (c, (dr, di))))
    return tuple(out)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_numpy_complete_2x2_matches_loop_oracle(h):
    assert equivalence._complete_2x2(h) == _complete_2x2_oracle(h)


@pytest.fixture
def empty_cache(monkeypatch):
    """Run a test against candidate and column-grid caches of its own."""
    for name in ("_complete_2x2", "_grid"):
        fresh = functools.lru_cache(maxsize=None)(getattr(equivalence, name).__wrapped__)
        monkeypatch.setattr(equivalence, name, fresh)


def _as_stack(cands):
    return np.array([[[complex(*e) for e in row] for row in m] for m in cands])


def _candidate_ids(cands, grid):
    """The grid ids (a m + c, b m + d) of the columns (a, c) and (b, d) of each 2x2
    candidate ((a, b), (c, d)), by the box indices of its entries: a (k, 2) array."""
    m = len(grid.box)
    index = {z: i for i, z in enumerate(grid.box)}
    return np.array([[index[a] * m + index[c], index[b] * m + index[d]] for (a, b), (c, d) in cands])


@pytest.mark.parametrize("n, h, budget", [(1, 1, 10), (2, 1, 10**7), (2, 3, 10**7)])
def test_cached_stack_matches_candidate_tuples(empty_cache, n, h, budget):
    # the scan reads each B as its columns (a, c) and (b, d) in the cached grid, by the
    # ids (a m + c, b m + d) of their box indices; sorting the key m spread[first] +
    # spread[second], as the scan does, puts the candidates in sigma_candidates order,
    # and one divmod by m per column id gives back the entries
    cands = sigma_candidates(n, h, budget)
    if n == 1:
        p = np.array([[2.0 + 0j]])
        f = equivalence._form_entries(p)
        assert list(equivalence._gram_hits(h, f, f, DEFAULT_TOL)) == [cands[0]]
        assert equivalence._grid.cache_info().currsize == 0
        return
    grid = equivalence._grid(h)
    assert equivalence._grid(h) is grid
    m = len(grid.box)
    ids = _candidate_ids(cands, grid)
    stack = grid.cols[ids].transpose(0, 2, 1)
    assert stack.dtype == np.complex128 and stack.shape == (len(cands), n, n)
    assert np.array_equal(stack, _as_stack(cands))
    keys = m * grid.spread[ids[:, 0]] + grid.spread[ids[:, 1]]
    assert np.all(keys[1:] > keys[:-1])
    decoded = []
    for x, y in ids.tolist():
        (a, c), (b, d) = divmod(x, m), divmod(y, m)
        decoded.append(((grid.box[a], grid.box[b]), (grid.box[c], grid.box[d])))
    assert tuple(decoded) == cands


def test_matching_column_pairs_past_the_budget_raise_height_too_large(empty_cache):
    # I against I under tol.abs 1000: every column of the grid matches both diagonal
    # entries, so the scan pairs (2H+1)^4 x (2H+1)^4 columns.  At height 3 the 2401^2
    # pairs fit the default budget and every candidate is a hit; at height 4 the 6561^2
    # pairs do not, and the scan fails fast before it forms them
    loose = Tolerance(abs=1000.0)
    eye = np.eye(2, dtype=complex)
    f = equivalence._form_entries(eye)
    assert list(equivalence._gram_hits(3, f, f, loose)) == list(sigma_candidates(2, 3))
    message = "^6561 x 6561 matching column pairs at height 4 exceed budget 10000000$"
    with pytest.raises(HeightTooLarge, match=message):
        list(equivalence._gram_hits(4, f, f, loose))
    with pytest.raises(HeightTooLarge, match=message):
        sigma_orbit_equal(eye, eye, 4, tol=loose)
    # at height 1, 32 columns match each diagonal entry of this form: 1024 pairs, past a
    # budget of 729 that the height box (3^6 points) fits
    p1, p2 = gram(np.eye(2)), gram(np.array([[1 + 1j, 1], [1, 1 - 1j]]))
    with pytest.raises(HeightTooLarge, match="^32 x 32 matching column pairs at height 1 exceed budget 729$"):
        sigma_orbit_equal(p1, p2, 1, budget=729)
    assert sigma_orbit_equal(p1, p2, 1, budget=1024).status == EQUIVALENT


def test_n3_raises_height_too_large_at_every_budget(empty_cache):
    # no complete candidate set is enumerated at n = 3, so no budget makes one
    for budget in (1, 3000, 10**12):
        with pytest.raises(HeightTooLarge, match="^no complete candidate set .* dimension 3"):
            sigma_candidates(3, 1, budget=budget)
    assert equivalence._complete_2x2.cache_info().currsize == 0


_FRESH = """
import hashlib, json, sys
from cxlattices.equivalence import sigma_candidates
from cxlattices.errors import HeightTooLarge
for args in json.loads(sys.argv[1]):
    try:
        c = sigma_candidates(*args)
    except HeightTooLarge as exc:
        print(json.dumps(["HeightTooLarge", str(exc)]))
        continue
    print(json.dumps([len(c), hashlib.sha256(repr(c).encode()).hexdigest()]))
"""


def _digest(cands):
    return [len(cands), hashlib.sha256(repr(cands).encode()).hexdigest()]


def _fresh_process(args):
    """sigma_candidates(*args) as a new process computes it, before any other call:
    [count, digest], or ["HeightTooLarge", message] when it raises."""
    src = str(pathlib.Path(cxlattices.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _FRESH, json.dumps([args])],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(out.stdout)


def test_candidate_set_does_not_depend_on_call_history(empty_cache):
    over_args, complete_args = [2, 3, 100000], [2, 3]  # 7^6 > 10^5: past the height box
    want_over = _fresh_process(over_args)
    assert want_over[0] == "HeightTooLarge"
    want_complete = _fresh_process(complete_args)
    for _ in range(2):  # before and after the complete set has filled the cache
        with pytest.raises(HeightTooLarge) as over:
            sigma_candidates(*over_args)
        assert str(over.value) == want_over[1]
        got = sigma_candidates(*complete_args)
        assert _digest(got) == want_complete
        assert got[0] == (((-3, -3), (-3, -2)), ((-3, -2), (-3, -1)))


def test_cached_closure_budget_check_matches_a_fresh_call(empty_cache):
    assert len(sigma_candidates(2, 2)) == 2472
    with pytest.raises(HeightTooLarge, match="box of 15625 points, over budget 10000$"):
        sigma_candidates(2, 2, budget=10**4)
    # the box rule, not the size of the set, is checked against the budget
    assert len(sigma_candidates(2, 1, budget=729)) == 296
    assert len(sigma_candidates(1, 1, budget=0)) == 1


_SETS = {
    # (n, height): complete n = 2 at h = 1..3, and n = 1
    **{f"complete-h{h}": (2, h) for h in (1, 2, 3)},
    "n1": (1, 1),
}


@pytest.mark.parametrize("name", sorted(_SETS))
def test_column_table_rebuilds_the_stack(empty_cache, name):
    n, h = _SETS[name]
    cands = sigma_candidates(n, h, 10**7)
    if n == 1:  # the only candidate is [[1]]: an n = 1 scan builds no column table
        sigma_orbit_equal(np.eye(1), np.eye(1), h)
        assert equivalence._grid.cache_info().currsize == 0
        return
    grid = equivalence._grid(h)
    m = (2 * h + 1) ** 2
    values = np.array([complex(*z) for z in grid.box])
    assert grid.box == tuple((re, im) for re in range(-h, h + 1) for im in range(-h, h + 1))
    # the pair (x, y) of box indices has id x m + y; every array is read-only
    assert grid.cols.shape == (m * m, 2)
    assert np.array_equal(grid.cols, [(values[x], values[y]) for x in range(m) for y in range(m)])
    for a in (grid.cols, grid.weights, grid.features, grid.spread):
        assert not a.flags.writeable
    # column j of candidate k is cols[x m + y] for its box indices (x, y)
    index = {z: i for i, z in enumerate(grid.box)}
    ids = np.array([[index[a] * m + index[c], index[b] * m + index[d]] for (a, b), (c, d) in cands])
    assert np.array_equal(grid.cols[ids].transpose(0, 2, 1), _as_stack(cands))
    # each column carries its |b|^2, for the prefilter's slack
    assert np.array_equal(grid.weights, np.sum(np.abs(grid.cols) ** 2, axis=1))
    # and its features, exact on Gaussian integers: |b_0|^2, |b_1|^2, then 2 Re and -2 Im
    # of conj(b_0) b_1
    b0, b1 = grid.cols.T
    cross = b0.conj() * b1
    want = np.stack([np.abs(b0) ** 2, np.abs(b1) ** 2, 2 * cross.real, -2 * cross.imag], axis=1)
    assert np.array_equal(grid.features, np.round(want))
    # spread[x m + y] = x m^2 + y: a first column's spread times m plus a second's is the
    # key (a m + b) m^2 + (c m + d) of the candidate they make
    assert np.array_equal(grid.spread, [x * m * m + y for x in range(m) for y in range(m)])


def _reference_hits(transported, p2, bound):
    """The unfiltered scan: the Frobenius test on every candidate B, in order, given
    the stack of its B* P1 B."""
    diffs = np.sqrt(np.sum(np.abs(transported - p2) ** 2, axis=(1, 2)))
    return np.flatnonzero(diffs <= bound)


def _hermitian_bump(n, i, j, size):
    """A Hermitian matrix of Frobenius norm |size| at (i, j) and (j, i)."""
    e = np.zeros((n, n), dtype=complex)
    if i == j:
        e[i, i] = size
    else:
        e[i, j] = e[j, i] = size / np.sqrt(2.0)
    return e


def _gram_forms(rng, n):
    """Gram forms for the scan: the identity, and P = A* A for well- and ill-conditioned A
    (sigma_min / sigma_max = 1, 1e-4 and 1e-8 at n > 1), each also scaled by 2^200 and
    2^-200."""
    forms = [np.eye(n)]
    for ratio in (1.0, 1e-4, 1e-8):
        svals = np.geomspace(1.0, ratio, n)
        a = random_unitary(rng, n) * svals @ random_unitary(rng, n) * rng.uniform(0.5, 2.0)
        forms.append(gram(a).matrix)
    return [scale * p for p in forms for scale in (1.0, 2.0**200, 2.0**-200)]


@pytest.mark.parametrize("name", sorted(_SETS))
def test_column_norm_prefilter_keeps_every_hit(name):
    n, h = _SETS[name]
    cands = sigma_candidates(n, h, 10**7)
    stack = _as_stack(cands)  # the reference full scan runs on every candidate tuple
    ids = _candidate_ids(cands, equivalence._grid(h)) if n == 2 else None
    rng = np.random.default_rng(sum(map(ord, name)))
    tol = DEFAULT_TOL
    for p1 in _gram_forms(rng, n):
        if n == 2:
            # the feature product agrees with the direct b* P1 b to within the scan's slack
            grid = equivalence._grid(h)
            direct = np.einsum("ci,ij,cj->c", grid.cols.conj(), p1, grid.cols).real
            coefficients = [p1[0, 0].real, p1[1, 1].real, p1[0, 1].real, p1[0, 1].imag]
            slack = 32 * n * np.finfo(float).eps * np.linalg.norm(p1) * grid.weights
            assert np.all(np.abs(grid.features @ coefficients - direct) <= slack)
        transported = np.einsum("kji,jl,klm->kim", stack.conj(), p1, stack)
        for planted in rng.integers(len(cands), size=2):
            b = stack[planted]
            exact = b.conj().T @ p1 @ b
            exact = 0.5 * (exact + exact.conj().T)
            size = tol.rel * (np.linalg.norm(p1) + np.linalg.norm(exact)) + tol.abs
            for c in (0.5, -0.5, 2.0, -2.0):
                for i, j in {(0, 0), (n - 1, n - 1), (0, n - 1)}:
                    p2 = exact + _hermitian_bump(n, i, j, c * size)
                    f1, f2 = equivalence._form_entries(p1), equivalence._form_entries(p2)
                    bound = tol.rel * (_gram_fro(f1) + _gram_fro(f2)) + tol.abs  # the scan's own bound
                    want = _reference_hits(transported, p2, bound)
                    if n == 1:
                        hits = list(equivalence._gram_hits(h, f1, f2, tol))
                        assert hits == [cands[k] for k in want]
                    else:
                        # the hits as arrays: their column ids against the candidates' at
                        # the reference's indices (_gram_hits decodes ids to entries, which
                        # the tests above pin on every candidate)
                        hits = equivalence._gram_hit_ids(h, f1, f2, tol, DEFAULT_BUDGET)
                        assert np.array_equal(np.stack(hits, axis=1), ids[want])
                    assert (planted in want) == (abs(c) < 1.0)
        if n == 2:
            # (P2)_11 still matches the planted first column, but (P2)_22 lies below every
            # column norm by more than the bound: the scan returns before it pairs columns
            p2 = exact + _hermitian_bump(n, 1, 1, -2.0 * (exact[1, 1].real + fro(p1) + 1.0))
            f1, f2 = equivalence._form_entries(p1), equivalence._form_entries(p2)
            bound = tol.rel * (_gram_fro(f1) + _gram_fro(f2)) + tol.abs
            assert abs(b[:, 0].conj() @ p1 @ b[:, 0] - p2[0, 0]) <= bound
            want = _reference_hits(transported, p2, bound)
            hits = equivalence._gram_hit_ids(h, f1, f2, tol, DEFAULT_BUDGET)
            assert want.size == 0 and np.array_equal(np.stack(hits, axis=1), ids[want])


_SEARCHES = [
    # (first, second) bases: equivalent by a height-1 witness, undecided below height 3,
    # refuted by the spectra and by the covolume
    (np.array([[1.0, 0.3 + 0.2j], [0.1j, 0.8]]), None),
    (np.eye(2), np.array([[1.0, 3.0], [0.0, 1.0]])),
    (np.eye(2), np.diag([0.5, 2.0])),
    (np.eye(2), np.diag([1.0, 2.0])),
]


def _verdict_bytes(verdict):
    """A verdict's status and refuter, and the entries of B and the bytes of T it found."""
    if verdict.witness is None:
        return verdict.status, verdict.refuter, None, None
    t, b = verdict.witness
    return verdict.status, verdict.refuter, b.entries, None if t is None else t.tobytes()


def test_the_search_never_builds_the_complete_set(empty_cache, monkeypatch):
    rng = np.random.default_rng(72)
    pairs = []
    for a1, a2 in _SEARCHES:
        if a2 is None:
            b = GaussianUnimodular(_complete_2x2_oracle(1)[42]).matrix
            a2 = random_unitary(rng, 2) @ a1 @ b
        pairs.append((a1, a2))

    def outcomes():
        return [
            (_verdict_bytes(lattice_equivalent(a1, a2, height=h)),
             _verdict_bytes(sigma_orbit_equal(gram(a1), gram(a2), h)))
            for h in (1, 2, 3)
            for a1, a2 in pairs
        ]

    def forbidden(height):
        raise AssertionError(f"the search built the complete set at height {height}")

    with monkeypatch.context() as patch:
        patch.setattr(equivalence, "_complete_2x2", forbidden)
        got = outcomes()
    assert got == outcomes()
    assert {full[0] for full, _ in got} == {EQUIVALENT, REFUTED, UNDECIDED}


def _reference_short_vectors(a, radius):
    """The uniform-box enumeration: every coordinate in [-K, K], K = floor(sqrt(r)/sigma_min)."""
    am = np.asarray(a, dtype=complex)
    n = am.shape[0]
    real = np.block([[am.real, -am.imag], [am.imag, am.real]])
    k = int(np.floor(np.sqrt(radius) / np.linalg.svd(real, compute_uv=False)[-1]))
    grid = np.stack(np.meshgrid(*[np.arange(-k, k + 1)] * (2 * n), indexing="ij")).reshape(2 * n, -1)
    w = am @ (grid[:n] + 1j * grid[n:])
    sq = np.sum(w.real**2 + w.imag**2, axis=0)
    return np.sort(sq[(sq <= radius) & np.any(grid != 0, axis=0)])


def _skewed(rng, n, smin):
    """A sheared basis with spread singular values, scaled so sigma_min is smin."""
    u, v = random_unitary(rng, n), random_unitary(rng, n)
    shear = np.eye(n, dtype=complex)
    shear[0, n - 1] = complex(*rng.integers(-3, 4, size=2))
    a = (u * np.geomspace(1.0, 0.3, n)) @ v.conj().T @ shear
    return a * (smin / np.linalg.svd(a, compute_uv=False)[-1])


def test_short_vectors_match_the_full_box():
    rng = np.random.default_rng(43)
    population = [(random_invertible(rng, n), 4.0) for n in (1, 1, 2, 2, 2, 3) for _ in range(2)]
    population += [(_skewed(rng, 2, smin), 4.0) for smin in (0.6, 0.5, 0.4, 0.35) for _ in range(3)]
    population += [(_skewed(rng, 1, 0.3), 9.0), (_skewed(rng, 3, 0.8), 2.5), (_skewed(rng, 3, 0.9), 4.0)]
    population += [(np.array([[1.0, 3.0], [0.0, 1.0]]), 6.0), (np.array([[1.0, 0.99], [0.0, 0.15]]), 1.0)]
    total = 0
    for a, radius in population:
        got = np.array(short_vectors(a, radius).norms)
        want = _reference_short_vectors(a, radius)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.maximum(got, want)))
        total += len(got)
    assert total > 100


@pytest.fixture
def reductions(monkeypatch):
    """The U of every LLL reduction short_vectors runs in a test (None: A's basis kept)."""
    seen = []
    reduce = equivalence._lll

    def recorded(am):
        out = reduce(am)
        seen.append(None if out is None else out[0])
        return out

    monkeypatch.setattr(equivalence, "_lll", recorded)
    return seen


def _height(m) -> int:
    return max(max(abs(x), abs(y)) for row in m for x, y in row)


def _skewed_products(rng):
    """Skewed bases A B of well-conditioned lattices A(Z[i]^n) whose uniform box stays
    small enough for the reference: B of height 3 from sigma_candidates(2, 3) at n = 2,
    and at n = 3 products of two height-2 candidates embedded top-left and bottom-right."""
    tall = [m for m in sigma_candidates(2, 3) if _height(m) == 3]
    out = []
    while len(out) < 6:
        ab = random_unitary(rng, 2) * rng.uniform(1.0, 1.4, 2) @ GaussianUnimodular(
            tall[rng.integers(len(tall))]
        ).matrix
        if np.linalg.svd(ab, compute_uv=False)[-1] >= 0.2:  # K <= 10: a 21^4 reference box
            out.append(ab)
    low = [GaussianUnimodular(m).matrix for m in sigma_candidates(2, 2)]
    for _ in range(3000):
        top, bottom = np.eye(3, dtype=complex), np.eye(3, dtype=complex)
        top[:2, :2] = low[rng.integers(len(low))]
        bottom[1:, 1:] = low[rng.integers(len(low))]
        ab = random_unitary(rng, 3) * rng.uniform(1.3, 1.6, 3) @ top @ bottom
        if np.linalg.svd(ab, compute_uv=False)[-1] >= 0.5:  # K <= 3: a 7^6 reference box
            out.append(ab)
        if len(out) == 12:
            break
    return out


def test_short_vectors_on_skewed_bases_match_the_full_box(reductions, monkeypatch):
    population = _skewed_products(np.random.default_rng(61))
    assert len(population) == 12
    spectra = []
    for a in population:
        got = np.array(short_vectors(a, 4.0).norms)
        want = _reference_short_vectors(a, 4.0)
        assert got.shape == want.shape and len(got) > 0
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.maximum(got, want)))
        spectra.append(got)
    # the scan ran on a reduced basis for every n = 2 basis and for most n = 3 ones
    dims = [len(u) for u in reductions if u is not None]
    assert dims.count(2) == 6 and dims.count(3) >= 4
    # the spectrum is the same tuple on A's own box: the norms are |A lambda|^2 either way
    monkeypatch.setattr(equivalence, "_lll", lambda am: None)
    for a, got in zip(population, spectra):
        assert np.array_equal(short_vectors(a, 4.0).norms, got)


def test_lll_gives_an_exact_unimodular_change_to_a_reduced_basis():
    assert equivalence._lll(np.eye(3, dtype=complex)) is None  # a reduced basis takes no step
    for a in _skewed_products(np.random.default_rng(62)):
        n = len(a)
        u, uinv = equivalence._lll(a)
        assert np.array_equal(u @ uinv, np.eye(n))
        assert np.array_equal(u, np.round(u.real) + 1j * np.round(u.imag))
        # A U is size-reduced and passes the Lovasz test at delta = 3/4, read off its QR
        r = np.linalg.qr(a @ u)[1]
        mu = r / np.diag(r)[:, None]  # mu[j, k] = <b*_j, b_k> / |b*_j|^2
        upper = mu[np.triu_indices(n, 1)]
        assert np.all(np.abs(upper.real) <= 0.5 + 1e-9) and np.all(np.abs(upper.imag) <= 0.5 + 1e-9)
        d = np.abs(np.diag(r)) ** 2
        for k in range(1, n):
            assert d[k] >= (0.75 - abs(mu[k - 1, k]) ** 2) * d[k - 1] * (1 - 1e-9)


def test_budget_counts_the_uniform_box_not_the_reduced_one(reductions):
    # Z[i]^2 in a skewed basis: reduced, its box at radius 4 has 625 points, yet
    # sigma_min puts the uniform box at 43^4 - 1 vectors, over a limit of 10^6
    b = np.array([[1.0, 3.0], [3.0, 10.0]])
    with pytest.raises(RadiusBudgetExceeded, match="3418800 vectors exceeds limit 1000000"):
        short_vectors(b, 4.0, limit=10**6)
    with pytest.raises(RadiusBudgetExceeded):
        lattice_equivalent(np.eye(2), b, budget=10**6)
    assert reductions == []  # refused before any reduction
    assert short_vectors(b, 4.0, limit=10**7).norms == short_vectors(np.eye(2), 4.0).norms
    assert len(reductions) == 1 and reductions[0] is not None


@pytest.mark.parametrize("radius", [-1.0, float("nan"), float("inf")])
def test_lattice_equivalent_still_checks_the_radius(radius):
    rng = np.random.default_rng(63)
    a = random_invertible(rng, 2)
    with pytest.raises(ValueError, match="radius"):
        lattice_equivalent(a, random_unitary(rng, 2) @ a, radius=radius)
    with pytest.raises(ValueError, match="radius"):
        short_vectors(a, radius)


# --- gram orbit search ---


def test_orbit_identity_pair():
    v = sigma_orbit_equal([[1.0]], [[1.0]])
    assert v.status == EQUIVALENT
    assert v.witness[0] is None
    assert v.witness[1].entries == (((1, 0),),)


def test_orbit_scalar_mismatch_stays_undecided():
    # n=1 candidates are exactly {[1]}, so [1] vs [2] finds no witness at any height
    for h in (1, 2, 3):
        v = sigma_orbit_equal([[1.0]], [[2.0]], height=h)
        assert v.status == UNDECIDED
        assert v.witness is None
        assert v.bound == h


def test_orbit_identity_2x2():
    v = sigma_orbit_equal(np.eye(2), np.eye(2))
    assert v.status == EQUIVALENT
    b = v.witness[1].matrix
    # any witness for I vs I is unitary with exact determinant one
    assert np.allclose(b.conj().T @ b, np.eye(2), atol=1e-12)


def test_orbit_planted_congruence():
    rng = np.random.default_rng(31)
    pool = sigma_candidates(2, 1)
    for _ in range(20):
        a = random_invertible(rng, 2)
        p1 = gram(a).matrix
        planted = pool[int(rng.integers(len(pool)))]
        bm = GaussianUnimodular(planted).matrix
        p2 = bm.conj().T @ p1 @ bm
        v = sigma_orbit_equal(p1, p2, height=1)
        assert v.status == EQUIVALENT
        w = v.witness[1].matrix
        assert np.linalg.norm(w.conj().T @ p1 @ w - p2) <= 1e-8 * np.linalg.norm(p1)


def test_raw_gram_forms_are_certified_at_the_callers_tolerance():
    p = np.diag([1.0, 1e-10])  # Cholesky root margin 1e-5
    v = sigma_orbit_equal(p, p, tol=Tolerance(rel=1e-12))
    assert v.status == EQUIVALENT
    b = v.witness[1].matrix
    assert np.allclose(b.conj().T @ p @ b, p, rtol=0, atol=1e-11)
    # at rel 1e-3 the same root margin is too small: a raw matrix is refused ...
    with pytest.raises(NotPositiveDefinite):
        sigma_orbit_equal(p, p, tol=Tolerance(rel=1e-3))
    with pytest.raises(NotPositiveDefinite):
        sigma_orbit_equal(np.eye(2), p, tol=Tolerance(rel=1e-3))
    # ... while a GramForm, certified when it was built, is taken as it is
    assert sigma_orbit_equal(GramForm(p), GramForm(p), tol=Tolerance(rel=1e-3)).status == EQUIVALENT


def test_orbit_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        sigma_orbit_equal(np.eye(4), np.eye(4))


def test_verdict_invariants_enforced():
    with pytest.raises(InternalCheckError):
        EquivalenceVerdict(EQUIVALENT, None, None, 2)
    with pytest.raises(InternalCheckError):
        EquivalenceVerdict(REFUTED, None, None, 2)
    with pytest.raises(ValueError):
        EquivalenceVerdict("Maybe", None, None, 2)


# --- short vectors ---


def test_short_vectors_square_lattice():
    s = short_vectors([[1.0]], 2.5)
    assert s.norms == (1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0)


def test_short_vectors_scaled_lattice_empty():
    s = short_vectors([[2.0]], 2.5)
    assert s.norms == ()


def test_short_vectors_unitary_invariance():
    rng = np.random.default_rng(32)
    for n in (1, 2):
        a = random_invertible(rng, n)
        q = random_unitary(rng, n)
        s1 = short_vectors(a, 4.0)
        s2 = short_vectors(q @ a, 4.0)
        assert len(s1.norms) == len(s2.norms)
        assert np.allclose(s1.norms, s2.norms, atol=1e-9)


def test_short_vectors_basis_invariance():
    # same lattice in a different Gaussian basis: identical spectrum
    rng = np.random.default_rng(33)
    pool = sigma_candidates(2, 1)
    a = random_invertible(rng, 2)
    b = GaussianUnimodular(pool[100]).matrix
    s1 = short_vectors(a, 4.0)
    s2 = short_vectors(a @ b, 4.0)
    assert len(s1.norms) == len(s2.norms)
    assert np.allclose(s1.norms, s2.norms, atol=1e-9)


def test_short_vectors_norms_ascend():
    rng = np.random.default_rng(34)
    a = random_invertible(rng, 2)
    s = short_vectors(a, 6.0)
    assert all(x <= y for x, y in zip(s.norms, s.norms[1:]))


def test_short_vectors_budget():
    with pytest.raises(RadiusBudgetExceeded):
        short_vectors([[0.01]], 4.0, limit=1000)


def test_short_vectors_budget_refuses_a_subnormal_basis():
    # sqrt(radius) / sigma_min overflows to inf: an error from the taxonomy, not OverflowError
    with pytest.raises(RadiusBudgetExceeded, match="unbounded"):
        short_vectors([[1e-310]], 4.0)
    with pytest.raises(RadiusBudgetExceeded, match="unbounded"):
        lattice_equivalent([[1e-310]], [[1e-310j]])


def test_lattice_equivalent_checks_gram_radius_budget_in_order():
    # the radius is checked before the box budgets, and an A* A that underflowed is refused
    # only after both; on inputs rescaled to unit sigma_max it underflows only under a tiny
    # tol.rel, and A* A no longer overflows: the [[1.2e154]] pair is decided
    big = ([[1.2e154]], [[1.2e154j]])  # A* A + (A* A)* overflows at the caller's scale
    assert lattice_equivalent(*big).status == EQUIVALENT
    for radius in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="^radius must be"):
            lattice_equivalent(*big, radius=radius)
    fine = Tolerance(rel=1e-200)
    thin = (np.diag([1.0, 1e-170]), np.diag([1.0, 1e-170j]))  # sigma_min^2 underflows
    with pytest.raises(ValueError, match="^radius must be"):
        lattice_equivalent(*thin, tol=fine, radius=-1.0)
    with pytest.raises(RadiusBudgetExceeded, match="^coefficient box of"):
        lattice_equivalent(*thin, tol=fine)
    with pytest.raises(NumericOverflow, match="^gram form A\\* A underflowed"):
        lattice_equivalent(*thin, tol=fine, radius=0.0)


def test_short_vectors_singular():
    with pytest.raises(SingularMatrix):
        short_vectors([[0.0]], 1.0)


def test_spectrum_type_validates_order():
    with pytest.raises(InternalCheckError):
        ShortVectorSpectrum(4.0, (2.0, 1.0))


# --- full decision pipeline ---


def test_unit_scaling_is_equivalent():
    v = lattice_equivalent([[1.0]], [[1.0j]])
    assert v.status == EQUIVALENT
    t, b = v.witness
    assert abs(t[0, 0] - 1j) < 1e-12
    assert b.entries == (((1, 0),),)


def test_doubling_refuted_by_covolume():
    v = lattice_equivalent([[1.0]], [[2.0]])
    assert v.status == REFUTED
    name, c1, c2 = v.refuter
    assert name == "covolume"
    assert c1 == pytest.approx(1.0)
    assert c2 == pytest.approx(4.0)


def test_rotation_is_equivalent():
    w = np.exp(1j * np.pi / 4)
    v = lattice_equivalent([[1.0]], [[w]])
    assert v.status == EQUIVALENT
    t, b = v.witness
    assert abs(t[0, 0] - w) < 1e-12
    assert b.entries == (((1, 0),),)


def test_equal_covolume_refuted_by_spectrum():
    v = lattice_equivalent(np.eye(2), np.diag([0.5, 2.0]))
    assert v.status == REFUTED
    assert v.refuter[0] in ("short_vector_count", "short_vector_spectrum")


def test_planted_equivalent_pairs_certify():
    rng = np.random.default_rng(35)
    for n in (1, 2):
        pool = sigma_candidates(n, 2)
        for _ in range(12):
            a1 = random_invertible(rng, n)
            t = random_unitary(rng, n)
            b = GaussianUnimodular(pool[int(rng.integers(len(pool)))])
            a2 = t @ a1 @ b.matrix
            v = lattice_equivalent(a1, a2, height=2)
            assert v.status == EQUIVALENT
            t2, b2 = v.witness
            assert np.linalg.norm(a2 - t2 @ a1 @ b2.matrix) <= 1e-8 * np.linalg.norm(a2)
            assert np.linalg.norm(t2.conj().T @ t2 - np.eye(n)) <= 1e-9 * n


def test_unitary_invariance_height_one():
    rng = np.random.default_rng(36)
    for n in (1, 2):
        a = random_invertible(rng, n)
        v = lattice_equivalent(a, random_unitary(rng, n) @ a, height=1)
        assert v.status == EQUIVALENT


def test_scaling_refuted_at_any_dimension_without_orbit():
    # covolume fires before the orbit search, so n = 4 still refutes cleanly
    rng = np.random.default_rng(37)
    a = random_invertible(rng, 4)
    v = lattice_equivalent(a, 1.5 * a)
    assert v.status == REFUTED
    assert v.refuter[0] == "covolume"


@pytest.fixture
def gram_form_calls(monkeypatch):
    """Count the Gram forms lattice_equivalent hands to its scan in a test, by the number of
    closed forms (one per matrix of the pair) each call of _scan_forms brings to unit scale."""
    calls = []
    build = equivalence._scan_forms

    def counted(forms, e):
        calls.append(len(forms))
        return build(forms, e)

    monkeypatch.setattr(equivalence, "_scan_forms", counted)
    return calls


def test_n8_covolume_refutation_builds_no_gram_form(gram_form_calls):
    rng = np.random.default_rng(44)
    a = random_invertible(rng, 8)
    v = lattice_equivalent(a, 1.2 * random_unitary(rng, 8) @ a)
    assert v.status == REFUTED and v.refuter[0] == "covolume"
    with pytest.raises(DimensionTooLarge):
        lattice_equivalent(a, random_unitary(rng, 8) @ a)
    assert gram_form_calls == []
    # the counter does see the Gram forms of a pair that reaches them: the closed forms of both
    # matrices, brought to unit scale in one call
    lattice_equivalent(np.eye(2), np.diag([0.5, 2.0]))
    assert gram_form_calls == [2]


def test_no_gram_form_where_no_scan_runs(gram_form_calls):
    # the height check runs before A* A: at n = 3, and at n = 2 past the height box, the scan
    # cannot run, so the pair forms no Gram form; the spectra still run and may refute first
    rng = np.random.default_rng(47)
    a = random_invertible(rng, 3)
    with pytest.raises(HeightTooLarge, match="dimension 3"):
        lattice_equivalent(a, random_unitary(rng, 3) @ a)
    assert lattice_equivalent(np.eye(3), np.diag([0.5, 2.0, 1.0])).status == REFUTED
    a = random_invertible(rng, 2)
    with pytest.raises(HeightTooLarge, match="over budget"):
        lattice_equivalent(a, random_unitary(rng, 2) @ a, height=7, budget=10**6)
    assert gram_form_calls == []


def test_an_n1_equivalent_pair_builds_no_gram_form(gram_form_calls):
    # at n = 1 the one candidate B = 1 is tested on the squared lengths: no A* A, no scan
    a = np.array([[2.0 + 1.0j]])
    v = lattice_equivalent(a, np.exp(0.3j) * a)
    assert v.status == EQUIVALENT and v.witness[1].entries == (((1, 0),),)
    su = {"mode": "special_unitary", "tol": Tolerance(rel=0.8)}
    v = lattice_equivalent(np.exp(0.7j) * np.eye(1), np.exp(-0.2j) * np.eye(1), **su)
    assert v.status == UNDECIDED  # det T = exp(-0.9i) is 0.87 from one, past n tol.rel: passed over
    v = lattice_equivalent(np.eye(1), np.eye(1), mode="special_unitary")
    assert v.status == EQUIVALENT and v.witness[0].tobytes() == np.eye(1, dtype=complex).tobytes()
    assert gram_form_calls == []


def _n1_pairs():
    """n = 1 pairs for the witness: random, scaled past the doubles' middle, and pairs whose
    T has a negative zero part."""
    rng = np.random.default_rng(29)
    pairs = []
    for scale in (1.0, 2.0**-600, 2.0**600):
        for _ in range(40):
            a = complex(*rng.normal(size=2)) * scale
            pairs.append((a, a * np.exp(1j * rng.uniform(-np.pi, np.pi))))
    pairs += [(1.0, complex(-1.0, -0.0)), (complex(0.0, 2.0), complex(-0.0, -2.0)),
              (complex(-3.0, -0.0), complex(3.0, -0.0)), (complex(1.0, -0.0), complex(0.0, -1.0))]
    return pairs


_LINALG = ("svd", "det", "inv", "eigh", "eig", "eigvalsh", "solve", "lstsq", "norm", "qr",
           "slogdet", "cholesky", "pinv", "matrix_rank")


def _decided_small_pairs():
    """(a1, a2, mode, status) at n = 1 and n = 2, decided by the covolume refuter or by a
    witness, in both modes; every input is built here, before numpy.linalg is taken away."""
    rng = np.random.default_rng(48)
    cases = []
    for n in (1, 2):
        a = random_invertible(rng, n)
        b = GaussianUnimodular(sigma_candidates(n, 1)[-1]).matrix
        cases.append((a, 1.3 * random_unitary(rng, n) @ a, "unitary", REFUTED))
        cases.append((a, random_unitary(rng, n) @ a @ b, "unitary", EQUIVALENT))
        a1, _ = sl_normalize(a)
        t, _ = sl_normalize(random_unitary(rng, n))
        cases.append((a1, t @ a1 @ b, "special_unitary", EQUIVALENT))
    # the subnormal partner of golden lattice-equiv-subnormal-partner, at its own unit scale
    tiny = np.array([[5e-324j, -1e-323 - 5e-324j], [1e-323j, -5e-324 - 5e-324j]])
    cases.append((random_invertible(rng, 2), tiny, "unitary", REFUTED))
    return cases


def test_a_pair_below_n3_decided_by_covolume_or_witness_calls_no_numpy_linalg(monkeypatch):
    # at n <= 2 the gate, the determinants, the Gram forms, the scan and the witness are
    # closed forms and products: with numpy.linalg gone the verdicts are the same
    cases = _decided_small_pairs()
    want = [lattice_equivalent(a1, a2, mode=mode) for a1, a2, mode, _ in cases]

    def gone(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in _LINALG:
        monkeypatch.setattr(np.linalg, name, gone)
    for (a1, a2, mode, status), before in zip(cases, want):
        v = lattice_equivalent(a1, a2, mode=mode)
        assert v.status == status and _verdict_bytes(v) == _verdict_bytes(before)
        assert status == EQUIVALENT or v.refuter[0] == "covolume"


@pytest.mark.parametrize("n", [2, 3])
def test_the_covolume_refuter_does_not_refute_a_planted_pair_by_rounding(n):
    # A2 = U A1 is equivalent by construction, and its two determinants differ by rounding
    # alone, about eps kappa relative: at kappa 1e6 to 1e8 that passed tol.rel = 1e-9 on
    # many pairs until the test took the rounding term (most of these pairs then raise
    # RadiusBudgetExceeded at the default radius); a pair scaled by 1.1 is still refuted
    rng = np.random.default_rng(7)
    for cond in (1e6, 1e7, 1e8):
        for _ in range(40):
            a1 = random_unitary(rng, n) * np.geomspace(1.0, 1.0 / cond, n) @ random_unitary(rng, n)
            u = random_unitary(rng, n)
            try:
                v = lattice_equivalent(a1, u @ a1)
            except (HeightTooLarge, RadiusBudgetExceeded):
                v = None
            assert v is None or v.refuter is None or v.refuter[0] != "covolume", cond
            v = lattice_equivalent(a1, 1.1 * u @ a1)
            assert v.status == REFUTED and v.refuter[0] == "covolume", cond


def test_the_n1_witness_is_first_witness_on_the_scans_hit_bit_for_bit():
    # the scan's route, A* A and the n = 1 scan with its hit passed to _first_witness, gives
    # the same T bytes, signs of zero included, in both modes and at every scale
    tol, zeros = DEFAULT_TOL, 0
    for a1, a2 in _n1_pairs():
        pair = np.array([[[a1]], [[a2]]], dtype=complex)
        s = _invertibility_gate(pair, tol)[2]
        unit = equivalence._scaled(pair, -equivalence._exponent(float(s[:, 0].max())))
        for mode in ("unitary", "special_unitary"):
            try:
                got = lattice_equivalent(pair[0], pair[1], mode=mode, tol=tol, radius=0.0)
            except NotInSL:
                continue
            hits = equivalence._gram_hits(1, *map(equivalence._form_entries, _gram_matrix(unit)), tol)
            want = equivalence._first_witness(1, *unit.tolist(), hits, mode, tol)
            if want is None:
                assert got.status != EQUIVALENT
                continue
            assert got.witness[0].tobytes() == want.witness[0].tobytes()
            assert got.witness[1].entries == want.witness[1].entries
            t = got.witness[0][0, 0]
            zeros += any(x == 0.0 and math.copysign(1.0, x) < 0 for x in (t.real, t.imag))
    assert zeros >= 3


def test_a_squared_length_that_would_underflow_past_the_covolume_test(gram_form_calls):
    # n = 1: the gate admits tol.rel < 1 only (sigma_min / sigma_max = 1), and at the
    # loosest such tol.rel the covolume test refutes a pair whose |a|^2 underflows at unit
    # scale, so no n = 1 pair reaches the squared-length test with an underflowed length
    a1, a2 = np.eye(1), np.array([[1e-160j]])
    for rel in (1e-9, 0.5, 1.0 - 2.0**-53):
        v = lattice_equivalent(a1, a2, tol=Tolerance(rel=rel))
        assert v.status == REFUTED and v.refuter[0] == "covolume"
    with pytest.raises(SingularMatrix):
        lattice_equivalent(a1, a2, tol=Tolerance(rel=1.0))
    assert gram_form_calls == []
    # n = 2: a pair past the covolume test whose column length underflows still raises
    # NumericOverflow from its Gram form (its gate admits it under tol.rel = 1e-200 only)
    thin = (np.diag([1.0, 1e-170]), np.diag([1.0j, 1e-170]))
    with pytest.raises(NumericOverflow, match="^gram form A\\* A underflowed"):
        lattice_equivalent(*thin, tol=Tolerance(rel=1e-200), radius=0.0)
    assert gram_form_calls == [2]


def test_an_underflowing_pair_that_no_scan_reads_is_height_too_large():
    # A* A of diag(.., 1e-170) underflows under tol.rel = 1e-200; where the scan runs that is
    # NumericOverflow, and where it cannot run no Gram form is formed: the scan's own error
    fine = Tolerance(rel=1e-200)
    thin = (np.diag([1.0, 1e-170]), np.diag([1.0, 1e-170j]))
    with pytest.raises(NumericOverflow, match="^gram form A\\* A underflowed"):
        lattice_equivalent(*thin, tol=fine, radius=0.0)
    with pytest.raises(HeightTooLarge, match="over budget"):
        lattice_equivalent(*thin, tol=fine, radius=0.0, height=7, budget=10**6)
    thin3 = (np.diag([1.0, 1.0, 1e-170]), np.diag([1.0, 1.0, 1e-170j]))
    with pytest.raises(HeightTooLarge, match="^no complete candidate set .* dimension 3"):
        lattice_equivalent(*thin3, tol=fine, radius=0.0)
    # at a radius that puts points in the boxes the spectra run first, on row norms of A^-1
    # past the largest double (see the next test), and agree
    thin3 = (np.diag([1.0, 1.0, 1e-160]), np.diag([1.0, 1.0, 1e-160j]))
    with pytest.raises(HeightTooLarge, match="^no complete candidate set .* dimension 3"):
        lattice_equivalent(*thin3, tol=fine, radius=1e-319)


def test_short_vectors_whose_inverse_row_norms_overflow_fall_back_to_the_uniform_box():
    # |row 2 of A^-1| = 1e160 squares past the largest double: that axis is bounded by the
    # uniform box's K = 3 instead, without a warning, and the spectrum is exact: the 36
    # nonzero Gaussian integers mu with |mu|^2 <= 10, each of norm 1e-320 |mu|^2
    v = short_vectors(np.diag([1.0, 1e-160]), 1e-319, tol=Tolerance(rel=1e-200))
    want = sorted(1e-320 * (x * x + y * y) for x in range(-3, 4) for y in range(-3, 4)
                  if 0 < x * x + y * y <= 10)
    assert v.norms == tuple(want)


def test_short_vectors_whose_sigma_min_squared_underflows_end_without_a_traceback():
    # sigma_min ~1e-162 under tol.rel = 1e-300: sigma_min^2 underflows to zero, so the
    # per-axis slack is inf and each axis bound is the uniform box's K; the radius lies
    # below every nonzero norm, and the spectrum is empty
    a = np.array([[1.0, 1.3 + 0.2j], [0.0, 1.6082745327337782e-162]])
    assert short_vectors(a, 1.5e-323, tol=Tolerance(rel=1e-300)).norms == ()


def _pair_with_boxes(rng, n, ks, radius):
    """A seeded pair whose uniform boxes at the radius have the given K, each matrix's
    sigma_min sqrt(radius) / (K + 1/2) and its other singular values up to 1.5 times that."""
    pair = []
    for k in ks:
        smin = math.sqrt(radius) / (k + 0.5)
        s = smin * np.append(np.sort(rng.uniform(1.0, 1.5, n - 1))[::-1], 1.0)
        pair.append(random_unitary(rng, n) @ np.diag(s) @ random_unitary(rng, n))
    return np.array(pair)


@pytest.fixture
def inversions(monkeypatch):
    """Count the np.linalg.inv calls a test runs, by the shape of the argument."""
    calls = []
    inv = np.linalg.inv

    def counted(a):
        calls.append(np.shape(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return calls


def _per_axis_alone(stack, svals, ks, radius):
    """The per-axis path on each matrix of a stack, whatever the size of its box."""
    invs = np.linalg.inv(stack)
    return [equivalence._per_axis(m, s, k, inv, rows, radius)
            for m, s, k, inv, rows in zip(stack, svals, ks, invs, equivalence._row_norms(invs))]


_SKEW = np.array([[1.0, 3.0 + 2.0j], [0.0, 1.0]])


@pytest.mark.parametrize("n, ks", [
    (1, (3, 7)), (1, (0, 13)), (2, (1, 2)), (2, (0, 1)), (2, (2, 2)), (2, (3, 1)),
    (3, (1, 1)), (3, (0, 1)),
])
def test_stacked_spectra_match_the_per_axis_path_bit_for_bit(inversions, n, ks):
    # _enumerate scans the whole stack on one cube where (2K + 1)^(2n) of the larger K fits
    # _SMALL_BOX (n = 3 at K = 1 is exactly 729 points, n = 2 at K = 2 is 625), and inverts
    # nothing there; past it (n = 2 at K = 3) it inverts the stack in one call and each
    # matrix takes its per-axis box.  Either way each spectrum is the per-axis path's bit for
    # bit, also for a matrix whose K is 0, and on pairs scaled by 2^+-500 with the radius by
    # 4^+-500 it is the unit-scale spectrum times 4^+-500.  Past the cube each pair also
    # runs as a skewed copy A B, with B = [[1, 3 + 2i], [0, 1]], whose larger boxes the
    # per-axis path takes on an LLL-reduced basis; at 2^-500 the reduction's products of
    # squared lengths may underflow, and the path then keeps the basis it was given
    rng = np.random.default_rng(71 + 10 * n + ks[0])
    cube = (2 * max(ks) + 1) ** (2 * n) <= equivalence._SMALL_BOX
    pairs = [_pair_with_boxes(rng, n, ks, 4.0) for _ in range(4)]
    skewed = [] if cube else [p @ _SKEW for p in pairs]
    for c, pair in enumerate(pairs + skewed):
        for j in (0, 500, -500):
            stack, radius = pair * 2.0**j, math.ldexp(4.0, 2 * j)
            svals = _singular_values(stack)
            boxes = [equivalence._uniform_box(s, radius, DEFAULT_BUDGET) for s in svals]
            if c < len(pairs):
                assert boxes == list(ks)
            inversions.clear()
            stacked = equivalence._enumerate(stack, svals, boxes, radius)
            assert inversions == ([] if cube else [stack.shape])  # the cube inverts nothing
            per_axis = _per_axis_alone(stack, svals, boxes, radius)
            assert [x.dtype for x in stacked] == [np.float64] * 2
            assert [x.tobytes() for x in stacked] == [x.tobytes() for x in per_axis]
            assert [x.size == 0 for x in stacked] == [k == 0 for k in boxes]
            if j == 0:
                unit = stacked
            else:
                assert [x.tobytes() for x in stacked] == [np.ldexp(x, 2 * j).tobytes() for x in unit]


def _equiv_pool_matrices(seed):
    """The matrices of the benchmark's equiv pool at one seed (perfbench/inputs.py)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("_perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    for q in inputs.pool_for("equiv", seed):
        for a in (q["a1"], q["a2"]):
            yield np.array([[complex(*x) for x in row] for row in a])


def _short_vectors_outcome(m):
    try:
        return short_vectors(m, 4.0).norms
    except RadiusBudgetExceeded as exc:
        return type(exc)


def test_short_vectors_on_the_equiv_pool_match_the_per_axis_path(monkeypatch):
    # every matrix of the seed-7 equiv pool: short_vectors, whose stack of one takes the cube
    # where it fits, returns the tuple that the per-axis path alone gives
    mats = list(_equiv_pool_matrices(7))
    got = [_short_vectors_outcome(m) for m in mats]
    monkeypatch.setattr(equivalence, "_enumerate", _per_axis_alone)
    assert got == [_short_vectors_outcome(m) for m in mats]
    assert sum(isinstance(x, tuple) and len(x) > 0 for x in got) >= 300


def _outcome_bits(fn, *args):
    """The bytes of the array fn(*args), or the type of the NumericOverflow it raises."""
    try:
        out = fn(*args)
    except NumericOverflow as exc:
        return type(exc)
    return np.asarray(out).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_stacked_pair_stages_match_per_matrix_calls_bit_for_bit(n):
    # lattice_equivalent runs its gate, determinant, A* A, inverses and row norms on the
    # stacked pair; numpy runs LAPACK once per matrix, and this pins that the results are
    # those of per-matrix calls bit for bit (a numpy that batched differently would move
    # witnesses silently), on well- and ill-conditioned pairs at unit scale and 2^+-500,
    # where a determinant or a row norm may overflow to inf (compared as such, unwarned)
    rng = np.random.default_rng(48 + n)
    for k in range(40):
        pair = []
        for _ in range(2):
            u, v = random_unitary(rng, n), random_unitary(rng, n)
            s = 10.0 ** -rng.uniform(0.0, 12.0 if k % 2 else 1.0, n)
            pair.append(u @ np.diag(s) @ v)
        for scale in (1.0, 2.0**500, 2.0**-500):
            _check_stacked_pair(np.array(pair) * scale)


@np.errstate(over="ignore")
def _check_stacked_pair(stack):
    invs = np.linalg.inv(stack)
    rows = equivalence._row_norms(invs)
    ok, margin, _ = _invertibility_gate(stack, DEFAULT_TOL)
    singles = []
    for i, m in enumerate(stack):
        single = np.array(m)  # a matrix of its own, not a view of the stack
        assert _singular_values(stack)[i].tobytes() == _singular_values(single).tobytes()
        assert (bool(ok[i]), float(margin[i])) == _invertibility_gate(single, DEFAULT_TOL)[:2]
        assert _det(stack)[i].tobytes() == np.complex128(_det(single)).tobytes()
        inv = np.linalg.inv(single)
        assert invs[i].tobytes() == inv.tobytes()
        assert rows[i] == np.linalg.norm(inv, axis=1).tolist()
        gram_bits = _outcome_bits(_gram_matrix, single)
        if gram_bits is not NumericOverflow:  # A* A by the adjoint's copy, as before stacking
            p = _adjoint(single) @ single
            assert gram_bits == (0.5 * (p + p.conj().T)).tobytes()
        singles.append(gram_bits)
    # the pair's A* A is each matrix's, and its check refuses the pair where one matrix's does
    by_pair = _outcome_bits(_gram_matrix, stack)
    assert by_pair == (NumericOverflow if NumericOverflow in singles else b"".join(singles))


def test_covolume_refutes_before_the_gram_forms():
    # sigma_min / sigma_max = 1e-5 passes the invertibility gate; the covolumes differ, and
    # that refutes before a Gram form is built
    v = lattice_equivalent(np.diag([1.0, 1e-5]), np.diag([1.0, 2e-5]))
    assert v.status == REFUTED
    assert v.refuter == ("covolume", pytest.approx(1e-10), pytest.approx(4e-10))
    with pytest.raises(SingularMatrix, match="gram needs an invertible matrix"):
        lattice_equivalent(np.eye(2), np.diag([1.0, 1e-12]))


def test_covolume_past_the_largest_double_is_decided_and_reported_as_inf():
    # |det|^2 = 2^1600 overflows a double: the check is decided on both inputs scaled to
    # unit sigma_max, and each reported covolume is |det|^2 where finite, else inf
    big = 2.0**400
    v = lattice_equivalent(big * np.eye(2), big * np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert v.status == EQUIVALENT
    assert lattice_equivalent(big * np.eye(2), 2 * big * np.eye(2)).refuter == (
        "covolume", math.inf, math.inf
    )
    # the determinant is taken at unit scale, where 2^-20 is exact, and scaled back exactly
    assert lattice_equivalent([[2.0**500]], [[2.0**520]]).refuter == ("covolume", 2.0**1000, math.inf)


def test_a_determinant_that_underflows_at_the_pairs_scale_is_retaken():
    # at the pair's unit scale, 2^-400, det(2^-250 I) is 2^-1300 and underflows to 0; taken
    # again at its own unit scale it is exact, and |det|^2 = 2^-1000 is reported
    eye = np.eye(2)
    assert lattice_equivalent(2.0**400 * eye, 2.0**-250 * eye).refuter == ("covolume", math.inf, 2.0**-1000)
    assert lattice_equivalent(2.0**-250 * eye, 2.0**400 * eye).refuter == ("covolume", 2.0**-1000, math.inf)


def test_a_subnormal_partner_is_refuted_by_covolume_and_never_warns():
    # one member at 2^-1074 ... 2^-1060, the other O(1): numpy's det of the tiny one can be
    # NaN or warn, and its sigma_min can underflow at the pair's scale; every determinant is
    # read at its own unit scale, so the covolume test refutes each pair the gate accepts
    rng = np.random.default_rng(1)
    refuted = 0
    for _ in range(400):
        n = int(rng.integers(1, 4))
        a, b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in "ab")
        pair = [a, np.ldexp(b.view(float), int(rng.integers(-1074, -1059))).view(complex)]
        if rng.integers(2):
            pair.reverse()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                v = lattice_equivalent(*pair)
            except SingularMatrix:
                continue
        assert v.status == REFUTED and v.refuter[0] == "covolume"
        refuted += 1
    assert refuted > 350


def test_an_underflowed_sigma_min_is_an_unbounded_box():
    with pytest.raises(RadiusBudgetExceeded, match="unbounded"):
        equivalence._uniform_box(np.array([1.0, 0.0]), 4.0, DEFAULT_BUDGET)


def test_a_determinant_past_the_largest_double_is_rebuilt_not_overflowed():
    # |det|^2 of a 2x2 basis at 2^520 is past 2^2000, and so is A* A: on the inputs scaled
    # to unit sigma_max nothing overflows, the pair gets the verdict and the witness of
    # scale 1, and no numpy warning is raised
    rng = np.random.default_rng(67)
    a = random_invertible(rng, 2)
    a2 = random_unitary(rng, 2) @ a
    big = 2.0**520
    assert lattice_equivalent(big * a, 1.5 * big * a2).refuter == ("covolume", math.inf, math.inf)
    v, one = lattice_equivalent(big * a, big * a2), lattice_equivalent(a, a2)
    assert v.status == one.status == EQUIVALENT
    assert v.witness[1].entries == one.witness[1].entries
    assert v.witness[0].tobytes() == one.witness[0].tobytes()
    # determinant one is read at the caller's scale
    with pytest.raises(NotInSL, match="^A1 has determinant distance inf from one$"):
        lattice_equivalent(big * a, big * a2, mode="special_unitary")


def test_a_pair_whose_gram_squares_overflow_is_decided_as_at_scale_one():
    # at 2^300 the Gram forms would be near 2^600 and the squares of their differences
    # would overflow; lattice_equivalent scales both inputs to unit scale first, so the
    # scan runs on the forms of scale 1
    rng = np.random.default_rng(66)
    a = random_invertible(rng, 2)
    q = random_unitary(rng, 2)
    small = lattice_equivalent(a, q @ a)
    big = lattice_equivalent(2.0**300 * a, 2.0**300 * (q @ a))
    assert small.status == big.status == EQUIVALENT
    assert big.witness[1].entries == small.witness[1].entries


def test_sigma_orbit_equal_finds_no_witness_between_forms_of_different_determinant():
    # |det A| = 1.94 and |det B| = 1.02, so no B* P1 B = P2 exists; at 1e-7 the forms are
    # near 1e-14, and a bound of tol.abs = 1e-12 at the caller's scale matched any candidate
    a = np.array([[1.0, 0.3], [0.2, 2.0]])
    b = np.array([[1.7, 0.0], [0.1, 0.6]])
    for scale in (1.0, 1e-7, 1e-100, 1e100):
        assert sigma_orbit_equal(gram(scale * a), gram(scale * b)).status == UNDECIDED


def _power_scaled(x, k):
    """x 2^k, an array or a float, or None where that is not exactly representable."""
    x = np.asarray(x, dtype=np.float64 if np.isrealobj(x) else np.complex128)
    with np.errstate(over="ignore"):
        y = np.ldexp(x.view(np.float64), k)
    if not (np.isfinite(y).all() and np.array_equal(np.ldexp(y, -k), x.view(np.float64))):
        return None
    return y.view(x.dtype)


def _scaled_refuter(refuter, k, n):
    """A refuter of the pair scaled by 2^k: covolumes scale by 4^(n k), spectrum values by 4^k,
    counts not at all; None for a value that leaves the normal range of doubles."""
    if refuter is None or refuter[0] == "short_vector_count":
        return refuter
    name, v1, v2 = refuter
    power = 2 * k * (n if name == "covolume" else 1)
    values = []
    for v in (v1, v2):
        try:
            w = math.ldexp(v, power)
        except OverflowError:
            w = math.inf
        if 0.0 < w < sys.float_info.min:
            return None
        values.append(w)
    return (name, *values)


def _outcome(call, *args, **kwargs):
    """call's result, or the class of the search error it raises."""
    try:
        return call(*args, **kwargs)
    except (HeightTooLarge, RadiusBudgetExceeded) as exc:
        return type(exc)


def test_verdicts_do_not_change_under_a_common_power_of_two():
    # lattice_equivalent, sigma_orbit_equal and short_vectors on a pair scaled by 2^k, with
    # the radius scaled by 4^k, for k from -1000 to 1000: each input is rescaled to unit
    # scale at its entry, so the verdict, the witness bytes and the norms are those of
    # k = 0, mapped back exactly; a k where an input or the radius is not representable is
    # skipped
    rng = np.random.default_rng(71)
    pairs = []
    for n in (1, 2):
        a = random_invertible(rng, n, min_cond=0.1)
        q = random_unitary(rng, n)
        b = GaussianUnimodular(sigma_candidates(n, 2)[-1]).matrix
        pairs += [(a, q @ a @ b, 4.0), (a, 1.5 * q @ a, 4.0)]
    pairs += [
        (np.eye(2), np.diag([0.5, 2.0]), 4.0),  # refuted by count
        (np.eye(2), np.array([[1.0, 0.05], [0.0, 1.0]]), 1.5),  # refuted by value
        (np.eye(2), np.array([[1.0, 3.0], [0.0, 1.0]]), 4.0),  # undecided at height 2
        (np.eye(3), random_unitary(rng, 3), 2.0),  # HeightTooLarge at n = 3
    ]
    checked = 0
    for a1, a2, r0 in pairs:
        n = a1.shape[0]
        base = _outcome(lattice_equivalent, a1, a2, radius=r0)
        grams = [gram(a).matrix for a in (a1, a2)]
        orbit = _outcome(sigma_orbit_equal, *grams)
        norms = [np.array(short_vectors(a, r0).norms) for a in (a1, a2)]
        for k in range(-1000, 1001, 50):
            m1, m2, radius = _power_scaled(a1, k), _power_scaled(a2, k), _power_scaled(r0, 2 * k)
            if m1 is None or m2 is None or radius is None or radius == 0.0:
                continue
            checked += 1
            v = _outcome(lattice_equivalent, m1, m2, radius=float(radius))
            if isinstance(base, type):
                assert v is base, (k, v)
            else:
                assert v.status == base.status, (k, v)
                want = _scaled_refuter(base.refuter, k, n)
                assert want is None or v.refuter == want, (k, v.refuter, want)
                if base.witness is not None:
                    assert v.witness[1].entries == base.witness[1].entries, k
                    assert v.witness[0].tobytes() == base.witness[0].tobytes(), k
            for m, want in zip((m1, m2), norms):
                got = short_vectors(m, float(radius)).norms
                assert np.array_equal(np.array(got), np.ldexp(want, 2 * k)), k
            p1, p2 = (_power_scaled(g, 2 * k) for g in grams)
            if p1 is not None and p2 is not None:
                w = _outcome(sigma_orbit_equal, p1, p2)
                if isinstance(orbit, type):
                    assert w is orbit, k
                else:
                    assert w.status == orbit.status, k
                    if orbit.witness is not None:
                        assert w.witness[1].entries == orbit.witness[1].entries, k
    assert checked == len(pairs) * 21  # k = -500 ... 500


@pytest.fixture
def enumerations(monkeypatch):
    """Count the short-vector enumerations a test runs, by the shape of the stack."""
    calls = []
    enumerate_ = equivalence._enumerate

    def counted(stack, *args):
        calls.append(np.shape(stack))
        return enumerate_(stack, *args)

    monkeypatch.setattr(equivalence, "_enumerate", counted)
    return calls


def test_a_verified_witness_settles_the_pair_without_the_spectra(enumerations):
    rng = np.random.default_rng(68)
    for n, h in ((1, 1), (2, 2)):
        a1 = random_invertible(rng, n)
        pool = sigma_candidates(n, h)
        b = GaussianUnimodular(pool[int(rng.integers(len(pool)))])
        assert lattice_equivalent(a1, random_unitary(rng, n) @ a1 @ b.matrix, height=h).status == EQUIVALENT
    assert enumerations == []


def test_the_spectra_run_where_the_scan_finds_no_witness(enumerations):
    v = lattice_equivalent(np.eye(2), np.diag([0.5, 2.0]))
    assert v.refuter == ("short_vector_count", 64.0, 44.0)
    assert enumerations == [(2, 2, 2)]  # both spectra, in one call on the stacked pair


def test_n3_pairs_run_the_spectra_before_height_too_large(enumerations):
    rng = np.random.default_rng(69)
    a = random_invertible(rng, 3)
    with pytest.raises(HeightTooLarge, match="^no complete candidate set .* dimension 3"):
        lattice_equivalent(a, random_unitary(rng, 3) @ a)
    assert enumerations == [(2, 3, 3)]
    enumerations.clear()
    v = lattice_equivalent(np.eye(3), np.diag([0.5, 2.0, 1.0]))
    assert v.refuter == ("short_vector_count", 232.0, 276.0)
    assert enumerations == [(2, 3, 3)]


def test_a_witness_verified_at_a_loose_tol_is_not_overruled_by_the_spectra(enumerations):
    # at tol.rel = 1e-3 the scan finds a witness for I against diag(1 + s, 1 / (1 + s)) at
    # s = 5e-4, and its T passes classify and the re-verification at that tol: the pair is
    # Equivalent, as sigma_orbit_equal finds, although the spectra, at their fixed
    # resolution of 1e-6, would count 64 vectors against 68.  They are not enumerated
    loose = Tolerance(rel=1e-3)
    a2 = np.diag([1.0 + 5e-4, 1.0 / (1.0 + 5e-4)])
    assert sigma_orbit_equal(gram(np.eye(2)), gram(a2), tol=loose).status == EQUIVALENT
    v = lattice_equivalent(np.eye(2), a2, tol=loose)
    assert v.status == EQUIVALENT
    assert v.witness[1].entries == (((-1, 0), (0, 0)), ((0, 0), (-1, 0)))
    assert enumerations == []


@pytest.mark.parametrize("stretch", [9e-4])
def test_a_witness_the_spectra_can_resolve_does_not_skip_them(enumerations, stretch):
    # at tol.rel = 1e-3 the scan's hit for I against diag(1 + s, 1 / (1 + s)) at s = 9e-4
    # has a T that fails classify's test of U: the hit is passed over, no witness is kept,
    # and the spectra run and refute
    loose = Tolerance(rel=1e-3)
    a2 = np.diag([1.0 + stretch, 1.0 / (1.0 + stretch)])
    assert sigma_orbit_equal(gram(np.eye(2)), gram(a2), tol=loose).status == EQUIVALENT
    v = lattice_equivalent(np.eye(2), a2, tol=loose)
    assert v.refuter == ("short_vector_count", 64.0, 68.0)
    assert enumerations == [(2, 2, 2)]


def test_a_hit_whose_t_fails_is_passed_over_and_the_pair_is_undecided(enumerations):
    # the shear pair: the scan's hit B = I gives T = [[1, 2e-9], [0, 1]], whose
    # |T* T - I|_F ~2.8e-9 misses classify's test of U at the default tol, so it is passed
    # over; the spectra, at their resolution of 1e-6, cannot refute
    a1 = np.array([[1, 0], [0, 0.5]], complex)
    a2 = np.array([[1, 1e-9], [0, 0.5]], complex)
    assert sigma_orbit_equal(gram(a1), gram(a2)).status == EQUIVALENT
    assert lattice_equivalent(a1, a2).status == UNDECIDED
    assert enumerations == [(2, 2, 2)]


def test_later_hits_are_tried_after_earlier_ones_fail():
    # tol.abs 1e300 admits every determinant-one B of height 3; the hits before
    # B = [[-1, -3], [0, -1]] give a T that fails the test of U, and that one gives T = -I
    v = lattice_equivalent(np.eye(2), [[1, 3], [0, 1]], height=3, tol=Tolerance(abs=1e300))
    assert v.status == EQUIVALENT
    t, b = v.witness
    assert b.entries == (((-1, 0), (-3, 0)), ((0, 0), (-1, 0)))
    assert sigma_candidates(2, 3).index(b.entries) > 0
    np.testing.assert_array_equal(t, -np.eye(2))


def test_an_equal_pair_at_a_huge_tol_abs_is_equivalent():
    # tol.abs 1e10 swamps the Gram bound at unit scale: hits whose T fails are passed over
    a = random_invertible(np.random.default_rng(3), 2)
    v = lattice_equivalent(a, a, tol=Tolerance(abs=1e10))
    assert v.status == EQUIVALENT
    t = v.witness[0]
    assert fro(t.conj().T @ t - np.eye(2)) <= 2e-9


def test_every_equivalent_verdict_has_matching_spectra():
    # the premise of running the scan first: the spectrum refuter never refutes a pair
    # that lattice_equivalent proves equivalent
    rng = np.random.default_rng(70)
    seen = 0
    for k in range(120):
        n, h = (1, 1) if k % 4 == 0 else (2, 1 + k % 3)
        mode = "special_unitary" if k % 3 == 0 else "unitary"
        a1 = random_invertible(rng, n, min_cond=0.1)
        t = random_unitary(rng, n)
        if mode == "special_unitary":
            a1, _ = sl_normalize(a1)
            t, _ = sl_normalize(t)
        pool = sigma_candidates(n, h)
        b = GaussianUnimodular(pool[int(rng.integers(len(pool)))]).matrix
        a2 = t @ a1 @ b if k % 5 else random_invertible(rng, n)
        scale = 2.0 ** int(rng.integers(-3, 4)) if mode == "unitary" else 1.0
        a1, a2 = scale * a1, scale * a2
        try:
            v = lattice_equivalent(a1, a2, mode=mode, height=h)
        except (NotInSL, RadiusBudgetExceeded):
            continue
        if v.status != EQUIVALENT:
            continue
        seen += 1
        s1, s2 = (np.array(short_vectors(a, 4.0).norms) for a in (a1, a2))
        assert equivalence._spectra_mismatch(s1, s2, 4.0) is None
    assert seen >= 80


def test_orbit_cap_reached_when_not_refuted():
    rng = np.random.default_rng(38)
    q = random_unitary(rng, 4)
    a = random_invertible(rng, 4)
    with pytest.raises(DimensionTooLarge):
        lattice_equivalent(a, q @ a)


def test_refuted_scalar_pair_has_no_witness_even_at_height_three():
    v = lattice_equivalent([[1.0]], [[2.0]])
    assert v.status == REFUTED
    check = sigma_orbit_equal(gram([[1.0]]), gram([[2.0]]), height=3)
    assert check.status == UNDECIDED


def test_undecided_when_witness_exceeds_height():
    # the only valid changes of basis have an entry of height 3
    rng = np.random.default_rng(39)
    a1 = random_invertible(rng, 2)
    b3 = GaussianUnimodular((((1, 0), (3, 0)), ((0, 0), (1, 0))))
    a2 = a1 @ b3.matrix
    v = lattice_equivalent(a1, a2, height=1)
    assert v.status == UNDECIDED
    assert v.bound == 1
    # raising the height to cover the witness flips the verdict
    v2 = lattice_equivalent(a1, a2, height=3)
    assert v2.status == EQUIVALENT


def test_special_unitary_mode_requires_sl():
    with pytest.raises(NotInSL):
        lattice_equivalent([[2.0]], [[2.0]], mode="special_unitary")
    # a singular input is not in SL either, and fails the same way
    with pytest.raises(NotInSL, match="^A2 has determinant distance 1.000e\\+00 from one$"):
        lattice_equivalent([[1.0]], [[0.0]], mode="special_unitary")


def test_both_modes_validate_each_input_once_and_run_one_gate(validation_calls, singular_value_calls):
    # each input is validated once, and at n = 2 the pair is gated in closed form with no
    # SVD call: the witness is built and checked in closed form too, in either mode
    rng = np.random.default_rng(46)
    a1, _ = sl_normalize(random_invertible(rng, 2))
    t, _ = sl_normalize(random_unitary(rng, 2))
    a2 = t @ a1 @ GaussianUnimodular(sigma_candidates(2, 1)[42]).matrix
    for mode in ("unitary", "special_unitary"):
        validation_calls.clear()
        singular_value_calls.clear()
        assert lattice_equivalent(a1, a2, mode=mode).status == EQUIVALENT
        assert validation_calls == ["as_matrix", "as_matrix"]
        assert singular_value_calls == []


def test_special_unitary_planted():
    rng = np.random.default_rng(40)
    pool = sigma_candidates(2, 2)
    for _ in range(8):
        a1, _ = sl_normalize(random_invertible(rng, 2))
        t, _ = sl_normalize(random_unitary(rng, 2))
        b = GaussianUnimodular(pool[int(rng.integers(len(pool)))])
        a2 = t @ a1 @ b.matrix
        v = lattice_equivalent(a1, a2, mode="special_unitary", height=2)
        assert v.status == EQUIVALENT
        t2, b2 = v.witness
        assert abs(np.linalg.det(t2) - 1.0) < 1e-8
        assert classify(t2).in_u
        assert np.linalg.norm(a2 - t2 @ a1 @ b2.matrix) <= 1e-8 * np.linalg.norm(a2)


def _closed_form_triples(n):
    """(A1, A2, B) at dimension n: random pairs, planted pairs A2 = T A1 B with T unitary,
    and planted pairs whose T puts the margin, the unitarity defect or the determinant
    distance within a relative 1e-3 of its bound at the default tol, on either side."""
    rng = np.random.default_rng(62 + n)
    pool = sigma_candidates(2, 2) if n == 2 else sigma_candidates(1, 1)
    bound = DEFAULT_TOL.rel
    triples = []
    for _ in range(24):
        b = GaussianUnimodular(pool[int(rng.integers(len(pool)))])
        a1 = random_invertible(rng, n)
        u, v = random_unitary(rng, n), random_unitary(rng, n)
        su = u / np.linalg.det(u) ** (1.0 / n)
        side = 1.0 + rng.choice([-1e-3, 1e-3])
        near = [
            u * (1.0 + 0.5 * bound * math.sqrt(n) * side),  # defect |(1 + x)^2 - 1| sqrt(n)
            su * np.exp(1j * bound * side),  # det distance 2 sin(n phi / 2) at n tol.rel
        ]
        if n == 2:  # defect ~1, and margin at tol.rel
            near.append(u @ np.diag([1.0, bound * side]) @ v)
        for t in [random_invertible(rng, n), u, *near]:
            triples.append((a1, t @ a1 @ b.matrix, b))
    return triples


@pytest.mark.parametrize("n", [1, 2])
def test_the_closed_form_witness_agrees_with_numpy_linear_algebra(n):
    # the witness T = A2 B^-1 A1^-1 and the quantities checked on it, built in closed form
    # as _first_witness builds them, against np.linalg.inv, the SVD and determinant of
    # _classify, and fro: equal within rounding, and on the same side of every bound
    eps, tol = np.finfo(float).eps, DEFAULT_TOL
    for a1, a2, b in _closed_form_triples(n):
        adj_b = equivalence._adjugate(b.matrix.tolist())[0]
        t = equivalence._product(equivalence._product(a2.tolist(), adj_b),
                                 equivalence._inverse(a1.tolist()))
        inv = np.linalg.inv(a1)
        ref = a2 @ b.inverse_matrix() @ inv
        tm = np.array(t)
        assert np.abs(tm - ref).max() <= 64 * eps * fro(a2) * fro(b.inverse_matrix()) * fro(inv)
        margin, defect, det_distance = equivalence._unitarity(t)
        member = _classify(tm, tol)
        size = max(1.0, fro(tm) ** 2)
        assert abs(margin - _invertibility_gate(tm, tol)[1]) <= 64 * eps
        assert abs(defect - member.unitarity_defect) <= 64 * eps * size
        assert abs(det_distance - member.det_distance) <= 64 * eps * size
        assert (margin > tol.rel) == member.in_gl
        assert (margin > tol.rel and defect <= tol.rel * n) == member.in_u
        assert (det_distance <= tol.rel * n) == (member.det_distance <= tol.rel * n)
        image = equivalence._product(equivalence._product(t, a1.tolist()), b.matrix.tolist())
        residual = equivalence._fro([[x - y for x, y in zip(r, s)] for r, s in zip(a2.tolist(), image)])
        expected = fro(a2 - tm @ a1 @ b.matrix)
        assert abs(residual - expected) <= 64 * eps * fro(a2) * size


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        lattice_equivalent([[1.0]], [[1.0]], mode="orthogonal")


def test_verdicts_deterministic():
    rng = np.random.default_rng(41)
    a1 = random_invertible(rng, 2)
    b = GaussianUnimodular(sigma_candidates(2, 1)[42])
    a2 = random_unitary(rng, 2) @ a1 @ b.matrix
    v1 = lattice_equivalent(a1, a2)
    v2 = lattice_equivalent(a1, a2)
    assert v1.status == v2.status == EQUIVALENT
    assert np.array_equal(v1.witness[0], v2.witness[0])
    assert v1.witness[1].entries == v2.witness[1].entries


def test_orbit_search_and_lattice_search_agree_on_first_witness():
    rng = np.random.default_rng(42)
    for n, h in ((1, 2), (2, 1), (2, 2)):
        pool = sigma_candidates(n, h)
        for _ in range(6):
            a1 = random_invertible(rng, n)
            b = GaussianUnimodular(pool[int(rng.integers(len(pool)))])
            a2 = random_unitary(rng, n) @ a1 @ b.matrix
            full = lattice_equivalent(a1, a2, height=h)
            orbit = sigma_orbit_equal(gram(a1), gram(a2), height=h)
            assert full.status == orbit.status == EQUIVALENT
            assert full.witness[1].entries == orbit.witness[1].entries
