"""Ground truth for the bounded equivalence search: pairs whose answer is known by construction.

Positives are A and T A B, with A a random Gaussian matrix, T a random unitary
and B three unit-multiple column operations followed by column 0 times a
unit, so det B is that unit: at n = 1, 2 and 3, for both determinant classes
+-1 and +-i, each pair scaled by a power of two 2^k with the radius by 4^k.  Negatives are Q diag(d) B against Q' diag(d') B' with
|prod d| = |prod d'|, so that the covolume refuter cannot separate them, but
different multisets {|d_i|}: the successive minima over Z[i] of
d_1 Z[i] + ... + d_n Z[i] are the sorted |d_i|^2, so no unitary maps one
lattice onto the other.

The search is sound but incomplete.  Any pair may come out undecided
(UndecidedUpToBound, HeightTooLarge or RadiusBudgetExceeded), but a positive
is never refuted, a negative is never equivalent, and every witness has an
exact unit determinant and re-verifies.  The decided counts of each cell are
floors: a search may decide more pairs than these, never fewer.
"""

import numpy as np

from cxlattices import lattice_equivalent
from cxlattices.equivalence import EQUIVALENT, REFUTED
from cxlattices.errors import HeightTooLarge, RadiusBudgetExceeded
from cxlattices.gaussian import gdet

PER_CELL = 25
UNITS = {"+-1": (1, -1), "+-i": (1j, -1j)}
GAUSSIAN_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))
# (n, det class) -> Equivalent verdicts among PER_CELL positives.  The search runs over
# det B = 1, which a scalar unit in T extends to every unit at n = 1 and n = 3 but only
# to +-1 at n = 2; at n = 3 it stops at HeightTooLarge or RadiusBudgetExceeded
POSITIVE_FLOORS = {
    (1, "+-1"): 25, (1, "+-i"): 25,
    (2, "+-1"): 24, (2, "+-i"): 0,
    (3, "+-1"): 0, (3, "+-i"): 0,
}
# n -> refuted verdicts among PER_CELL negatives
NEGATIVE_FLOORS = {2: 25, 3: 24}


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _gaussian(rng, n):
    return (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0)


def _change_of_basis(rng, n, unit):
    """Three column operations b_j += u b_i with a unit u, then column 0 times unit."""
    b = np.eye(n, dtype=complex)
    for _ in range(3 if n > 1 else 0):
        i, j = rng.choice(n, size=2, replace=False)
        b[:, j] += (1, -1, 1j, -1j)[rng.integers(4)] * b[:, i]
    b[:, 0] *= unit
    return b


def _negative(rng, n):
    """Q diag(d) B and Q' diag(d') B' with |prod d| = |prod d'| and different {|d_i|}."""
    s, r = rng.uniform(0.5, 1.0), rng.uniform(1.05, 2.0)
    sizes = (s, r * r * s) if n == 2 else (s, r * s, r * r * s)
    other = (r * s,) * n
    bases = []
    for d in (sizes, other):
        phases = np.exp(2j * np.pi * rng.uniform(size=n))
        unit = (1, -1, 1j, -1j)[rng.integers(4)]
        lattice = np.diag(np.array(d) * phases)
        bases.append(_unitary(rng, n) @ lattice @ _change_of_basis(rng, n, unit))
    return bases


def _decide(a1, a2, radius=4.0):
    """The verdict of the search, or the name of the bound it stopped at."""
    try:
        return lattice_equivalent(a1, a2, radius=radius)
    except (HeightTooLarge, RadiusBudgetExceeded) as exc:
        return type(exc).__name__


def _check_witness(a1, a2, verdict):
    t, b = verdict.witness
    assert gdet(b.entries) in GAUSSIAN_UNITS
    assert np.linalg.norm(t.conj().T @ t - np.eye(len(t))) <= 1e-8
    assert np.linalg.norm(a2 - t @ a1 @ b.matrix) <= 1e-8 * max(np.linalg.norm(a2), 1.0)


def test_positives_are_never_refuted_and_decided_counts_hold_their_floors():
    rng = np.random.default_rng(11)
    decided = {}
    for n in (1, 2, 3):
        for cls, units in UNITS.items():
            count = 0
            for k in range(PER_CELL):
                a1 = _gaussian(rng, n)
                a2 = _unitary(rng, n) @ a1 @ _change_of_basis(rng, n, units[k % 2])
                scale = 2.0 ** int(rng.integers(-40, 41))
                a1, a2 = scale * a1, scale * a2
                verdict = _decide(a1, a2, 4.0 * scale * scale)
                if isinstance(verdict, str):
                    continue
                assert verdict.status != REFUTED, (n, cls, k, verdict.refuter)
                if verdict.status == EQUIVALENT:
                    _check_witness(a1, a2, verdict)
                    count += 1
            decided[n, cls] = count
    assert all(decided[cell] >= floor for cell, floor in POSITIVE_FLOORS.items()), decided


def test_negatives_of_equal_covolume_are_never_equivalent_and_hold_their_floors():
    rng = np.random.default_rng(12)
    refuted = {}
    for n in (2, 3):
        count = 0
        for k in range(PER_CELL):
            a1, a2 = _negative(rng, n)
            verdict = _decide(a1, a2)
            if isinstance(verdict, str):
                continue
            assert verdict.status != EQUIVALENT, (n, k, verdict.witness)
            if verdict.status == REFUTED:
                assert verdict.refuter[0] != "covolume", (n, k, verdict.refuter)
                count += 1
        refuted[n] = count
    assert all(refuted[n] >= floor for n, floor in NEGATIVE_FLOORS.items()), refuted
