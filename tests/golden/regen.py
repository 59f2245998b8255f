"""Regenerate tests/golden: cases.json plus one .golden file per case.

    PYTHONPATH=src python tests/golden/regen.py                   # rewrite, behind the drift check
    PYTHONPATH=src python tests/golden/regen.py --check           # compare bytes, write nothing
    PYTHONPATH=src python tests/golden/regen.py --check --drift   # drift check, write nothing
    PYTHONPATH=src python tests/golden/regen.py --check --processes
    python tests/golden/regen.py --check --processes "$(command -v cxlat)"  # an installed cxlat

With --check every case is run in memory and compared byte for byte with
the committed .golden files and cases.json; the differing cases are listed
and the exit status is 1 if there are any.  With --processes each case runs
in its own process instead, of ``python -m cxlattices.cli`` or of the cxlat
executable given, which must also exit with the case's code and write
nothing to stderr: a cxlat process loads only the modules its subcommand
uses, and this finds a handler that works only after another handler has
loaded a module for it.

The drift check decodes each changed .golden line and requires the exit
code, status, keys, list lengths, booleans, ints, strings (error names,
messages, verdicts) and nulls to be identical; only floats may move, each
by at most the relative bound DRIFT.  It lists every changed case with its
largest relative float drift.  It reads cases.json as data too: an added
case is listed, a removed case or a changed argv, input or exit code is a
problem.  A rewrite happens only when the drift check passes; a file that
is absent is written as new, which is how a deliberate change of verdict,
format or case definition goes in (delete the file first, and say why in
CHANGES.md).
"""

import argparse
import functools
import io
import json
import pathlib
import subprocess
import sys


from cxlattices.cli import run

DRIFT = 1e-12
STD1 = '{"n": 1, "generators": [[[1, 0]], [[0, 1]]]}'
TAU1 = '{"n": 1, "generators": [[[1, 0]], [[0.3, 1.7]]]}'


def _lattice(r) -> str:
    """The lattice whose realified generator matrix (real parts over imaginary parts) is r."""
    n = len(r) // 2
    return json.dumps({"n": n, "generators": [[[r[i][k], r[n + i][k]] for i in range(n)] for k in range(2 * n)]})


def _same_pair(r1, w) -> str:
    """lattice-same input: first R1, second R1 W, both integer 2n x 2n matrices."""
    r2 = [[sum(a * b for a, b in zip(row, col)) for col in zip(*w)] for row in r1]
    return '{"first": ' + _lattice(r1) + ', "second": ' + _lattice(r2) + "}"


def _same_cases(n: int) -> dict:
    """Same-lattice pairs at dimension n, witness 2n x 2n: a product of elementary column
    operations (det -+1), the same with one column doubled (det +-2), and a unimodular
    witness with the entry 2^27, whose inverse's entry -2^27 puts max|W| max|W^-1| 2n past
    2^53.  The first basis of that pair has realification diag(1, .., 2^27 at n, .., 1),
    whose LU is exact, so both bases stay within the default rank margin and the solve
    returns the witness exactly."""
    m = 2 * n
    eye = [[int(i == j) for j in range(m)] for i in range(m)]
    r1 = [[2 * (i == j) + (j == i + 1) for j in range(m)] for i in range(m)]
    w = [row[:] for row in eye]
    for k in range(m - 1):  # column k+1 += -+ column k, then column 0 += column m-1
        for row in w:
            row[k + 1] += (-1) ** k * row[k]
    for row in w:
        row[0] += row[m - 1]
        row[1], row[m - 1] = row[m - 1], row[1]
    doubled = [row[:n] + [2 * row[n]] + row[n + 1:] for row in w]
    diag = [row[:] for row in eye]
    diag[n][n] = 2**27
    big = [row[:] for row in eye]
    big[0][n] = 2**27
    return {
        f"lattice-same-n{n}-elementary": _same_pair(r1, w),
        f"lattice-same-n{n}-sublattice": _same_pair(r1, doubled),
        f"lattice-same-n{n}-entry-2-27": _same_pair(diag, big),
    }


CASES = {
    # --- map-apply ---
    "map-apply-rotation": {
        "argv": ["map-apply"],
        "input": '{"map": {"kind": "conjugate_pair", "m": [[[0, 1]]], "n": [[[0, 0]]]}, "z": [[1, 0]]}',
        "exit": 0,
    },
    "map-apply-block-identity": {
        "argv": ["map-apply"],
        "input": '{"map": {"kind": "block", "e1": [[[1,0],[0,0]],[[0,0],[1,0]]], "e2": [[[0,0],[0,0]],[[0,0],[0,0]]], "e3": [[[0,0],[0,0]],[[0,0],[0,0]]], "e4": [[[1,0],[0,0]],[[0,0],[1,0]]]}, "z": [[1, 2], [3, 4]]}',
        "exit": 0,
    },
    "map-apply-overflow": {
        "argv": ["map-apply"],
        "input": '{"map": {"kind": "conjugate_pair", "m": [[[1e308, 0]]], "n": [[[1e308, 0]]]}, "z": [[1e308, 0]]}',
        "exit": 1,
    },
    # --- map-convert ---
    "map-convert-block-to-conjugate-pair": {
        "argv": ["map-convert", "--to", "conjugate_pair"],
        "input": '{"map": {"kind": "block", "e1": [[[2,0]]], "e2": [[[-1,0]]], "e3": [[[1,0]]], "e4": [[[3,0]]]}}',
        "exit": 0,
    },
    "map-convert-to-split-rejected": {
        "argv": ["map-convert", "--to", "split"],
        "input": '{"map": {"kind": "conjugate_pair", "m": [[[2, 0]]], "n": [[[0, 0]]]}}',
        "exit": 1,
    },
    "map-convert-to-normalized": {
        "argv": ["map-convert", "--to", "normalized"],
        "input": '{"map": {"kind": "conjugate_pair", "m": [[[2, 0]]], "n": [[[1, 0]]]}}',
        "exit": 0,
    },
    # --- map-invertible ---
    "map-invertible-yes": {
        "argv": ["map-invertible"],
        "input": '{"map": {"kind": "block", "e1": [[[1,0]]], "e2": [[[0,0]]], "e3": [[[0,0]]], "e4": [[[1,0]]]}}',
        "exit": 0,
    },
    "map-invertible-singular": {
        "argv": ["map-invertible"],
        "input": '{"map": {"kind": "conjugate_pair", "m": [[[1, 0]]], "n": [[[1, 0]]]}}',
        "exit": 0,
    },
    "map-invertible-boundary-flag": {
        "argv": ["map-invertible", "--tol-rel", "0.001"],
        "input": '{"map": {"kind": "block", "e1": [[[1,0]]], "e2": [[[0,0]]], "e3": [[[0,0]]], "e4": [[[0.0005,0]]]}}',
        "exit": 0,
    },
    # R = [[I, A], [0, B]] has margin 1e-20 although B = 1 is invertible: the realified
    # margin alone decides (a verdict read from B, margin 1, would disagree)
    "map-invertible-split-large-a": {
        "argv": ["map-invertible"],
        "input": '{"map": {"kind": "split", "a": [[[1e10, 0]]], "b": [[[1, 0]]]}}',
        "exit": 0,
    },
    # --- map-majorizes ---
    "map-majorizes-yes": {
        "argv": ["map-majorizes"],
        "input": '{"map": {"kind": "conjugate_pair", "m": [[[1, 0]]], "n": [[[0.25, 0]]]}}',
        "exit": 0,
    },
    "map-majorizes-singular-m": {
        "argv": ["map-majorizes"],
        "input": '{"map": {"kind": "conjugate_pair", "m": [[[0, 0]]], "n": [[[1, 0]]]}}',
        "exit": 0,
    },
    "map-majorizes-subnormal-m": {
        "argv": ["map-majorizes"],
        "input": '{"map": {"kind": "conjugate_pair", "m": [[[0, 1e-309]]], "n": [[[-1, 0]]]}}',
        "exit": 0,
    },
    # the one solve runs at the scale that puts N = 1e300 in [1, 2): M = 1e-321 underflows
    # to 0 there, so solve's gate calls M singular and the ratio is null
    "map-majorizes-tiny-m-huge-n": {
        "argv": ["map-majorizes"],
        "input": '{"map": {"kind": "conjugate_pair", "m": [[[1e-321, 0]]], "n": [[[1e300, 0]]]}}',
        "exit": 0,
    },
    # --- map-normalize ---
    "map-normalize-scale": {
        "argv": ["map-normalize"],
        "input": '{"map": {"kind": "conjugate_pair", "m": [[[2, 0]]], "n": [[[1, 0]]]}}',
        "exit": 0,
    },
    "map-normalize-singular-m": {
        "argv": ["map-normalize"],
        "input": '{"map": {"kind": "conjugate_pair", "m": [[[0, 0]]], "n": [[[1, 0]]]}}',
        "exit": 1,
    },
    # --- polar ---
    "polar-rotation-scale": {
        "argv": ["polar"],
        "input": '{"matrix": [[[0, 2]]]}',
        "exit": 0,
    },
    "polar-singular": {
        "argv": ["polar"],
        "input": '{"matrix": [[[0, 0]]]}',
        "exit": 1,
    },
    # --- gram ---
    "gram-shear": {
        "argv": ["gram"],
        "input": '{"matrix": [[[0,0],[2,0]],[[1,0],[0,0]]]}',
        "exit": 0,
    },
    "gram-overflow": {
        "argv": ["gram"],
        "input": '{"matrix": [[[1e300, 0]]]}',
        "exit": 1,
    },
    "gram-underflow": {
        "argv": ["gram"],
        "input": '{"matrix": [[[1e-310, 0]]]}',
        "exit": 1,
    },
    "gram-ill-conditioned": {
        "argv": ["gram"],
        "input": '{"matrix": [[[1,0],[0,0]],[[0,0],[1e-5,0]]]}',
        "exit": 0,
    },
    # --- unitary-equiv ---
    "unitary-equiv-yes": {
        "argv": ["unitary-equiv"],
        "input": '{"first": [[[2, 0]]], "second": [[[0, 2]]]}',
        "exit": 0,
    },
    "unitary-equiv-no": {
        "argv": ["unitary-equiv"],
        "input": '{"first": [[[1, 0]]], "second": [[[2, 0]]]}',
        "exit": 0,
    },
    # the Gram forms, ~1e-18, are compared at unit scale, where tol.abs does not swamp them
    "unitary-equiv-small-scale": {
        "argv": ["unitary-equiv"],
        "input": '{"first": [[[1e-9, 0]]], "second": [[[2e-9, 0]]]}',
        "exit": 0,
    },
    # --- sl-normalize ---
    "sl-normalize-diag": {
        "argv": ["sl-normalize"],
        "input": '{"matrix": [[[0,1],[0,0]],[[0,0],[1,0]]]}',
        "exit": 0,
    },
    # det(A) = -2^-2148 is lost (numpy returns NaN): it is taken again on A 2^1074, and
    # delta = 2^-1074 i, the principal root; no traceback from abs() of the NaN
    "sl-normalize-det-past-the-doubles": {
        "argv": ["sl-normalize"],
        "input": '{"matrix": [[[0,0],[5e-324,0]],[[5e-324,0],[0,0]]]}',
        "exit": 0,
    },
    # delta = 1.2e308 (1 + i): Smith's division of A by delta would overflow in between,
    # but A 2^-1023 is divided by delta 2^-1023, and A / delta is [[1]] up to rounding
    "sl-normalize-huge-complex-det": {
        "argv": ["sl-normalize"],
        "input": '{"matrix": [[[1.2e308, 1.2e308]]]}',
        "exit": 0,
    },
    # --- lattice-validate ---
    "lattice-validate-tau": {
        "argv": ["lattice-validate"],
        "input": '{"lattice": ' + TAU1 + "}",
        "exit": 0,
    },
    "lattice-validate-collinear": {
        "argv": ["lattice-validate"],
        "input": '{"lattice": {"n": 1, "generators": [[[1, 0]], [[2, 0]]]}}',
        "exit": 0,
    },
    "lattice-validate-overflow": {
        "argv": ["lattice-validate"],
        "input": '{"lattice": {"n": 1, "generators": [[[1e200, 0]], [[0, 1e200]]]}}',
        "exit": 1,
    },
    # a valid basis whose covolume, 2^-2148, is below the smallest double: an underflow
    "lattice-validate-underflow": {
        "argv": ["lattice-validate"],
        "input": '{"lattice": {"n": 1, "generators": [[[0.0, 5e-324]], [[5e-324, 0.0]]]}}',
        "exit": 1,
    },
    # --- lattice-covolume ---
    "lattice-covolume-standard": {
        "argv": ["lattice-covolume"],
        "input": '{"lattice": ' + STD1 + "}",
        "exit": 0,
    },
    "lattice-covolume-tau": {
        "argv": ["lattice-covolume"],
        "input": '{"lattice": ' + TAU1 + "}",
        "exit": 0,
    },
    "lattice-covolume-tolerance-echo": {
        "argv": ["lattice-covolume", "--tol-rel", "1e-06", "--tol-abs", "1e-09"],
        "input": '{"lattice": ' + STD1 + "}",
        "exit": 0,
    },
    "lattice-covolume-underflow": {
        "argv": ["lattice-covolume"],
        "input": '{"lattice": {"n": 1, "generators": [[[0.0, 5e-324]], [[5e-324, 0.0]]]}}',
        "exit": 1,
    },
    # --- lattice-normalize ---
    "lattice-normalize-scaled-tau": {
        "argv": ["lattice-normalize"],
        "input": '{"lattice": {"n": 1, "generators": [[[2, 0]], [[0.6, 3.4]]]}}',
        "exit": 0,
    },
    # permute_to_L1's dependence test reads the margin, not tol.abs: a huge tol.abs and a
    # basis at scale 1e-14 (margin 1.96e-14 at n = 1, valid) both normalize
    "lattice-normalize-huge-tol-abs": {
        "argv": ["lattice-normalize", "--tol-abs", "1e300"],
        "input": '{"lattice": {"n": 1, "generators": [[[2, 0]], [[0.0, 3.4]]]}}',
        "exit": 0,
    },
    "lattice-normalize-tiny-scale": {
        "argv": ["lattice-normalize"],
        "input": '{"lattice": {"n": 1, "generators": [[[2e-14, 0]], [[6e-15, 3.4e-14]]]}}',
        "exit": 0,
    },
    # --- lattice-same ---
    "lattice-same-shear": {
        "argv": ["lattice-same"],
        "input": '{"first": ' + STD1 + ', "second": {"n": 1, "generators": [[[1, 1]], [[0, 1]]]}}',
        "exit": 0,
    },
    "lattice-same-sublattice": {
        "argv": ["lattice-same"],
        "input": '{"first": ' + STD1 + ', "second": {"n": 1, "generators": [[[2, 0]], [[0, 1]]]}}',
        "exit": 0,
    },
    "lattice-same-ambiguous": {
        "argv": ["lattice-same"],
        "input": '{"first": ' + STD1 + ', "second": {"n": 1, "generators": [[[1.000000000003, 0]], [[0, 1]]]}}',
        "exit": 1,
    },
    # a witness entry of 2^63 keeps no fractional bit (det 2^64 + 1: a strict sublattice)
    "lattice-same-entry-2-63": {
        "argv": ["lattice-same", "--tol-rel", "1e-40"],
        "input": '{"first": ' + STD1 + ', "second": ' + _lattice([[2**63, 119537721], [-77158673929, 1]]) + "}",
        "exit": 1,
    },
    **{
        name: {"argv": ["lattice-same"], "input": text, "exit": 0}
        for n in (3, 8)
        for name, text in _same_cases(n).items()
    },
    # --- lattice-equiv ---
    "lattice-equiv-refuted-covolume": {
        "argv": ["lattice-equiv"],
        "input": '{"first": [[[1, 0]]], "second": [[[2, 0]]]}',
        "exit": 0,
    },
    "lattice-equiv-equivalent-rotation": {
        "argv": ["lattice-equiv"],
        "input": '{"first": [[[1, 0]]], "second": [[[0, 1]]]}',
        "exit": 0,
    },
    "lattice-equiv-undecided-height": {
        "argv": ["lattice-equiv"],
        "input": '{"first": [[[1,0],[0,0]],[[0,0],[1,0]]], "second": [[[1,0],[3,0]],[[0,0],[1,0]]]}',
        "exit": 0,
    },
    "lattice-equiv-spectrum-refuted": {
        "argv": ["lattice-equiv"],
        "input": '{"first": [[[1,0],[0,0]],[[0,0],[1,0]]], "second": [[[0.5,0],[0,0]],[[0,0],[2,0]]]}',
        "exit": 0,
    },
    # at tol.rel 1e-3 the scan's first witness, B = -I, passes the re-verification, and the
    # spectra, at their fixed resolution of 1e-6, do not overrule it
    "lattice-equiv-loose-witness": {
        "argv": ["lattice-equiv", "--tol-rel", "1e-3"],
        "input": '{"first": [[[1,0],[0,0]],[[0,0],[1,0]]], "second": [[[1.0005,0],[0,0]],[[0,0],[0.99950024987506247,0]]]}',
        "exit": 0,
    },
    "lattice-equiv-su-rejected": {
        "argv": ["lattice-equiv", "--mode", "special_unitary"],
        "input": '{"first": [[[2, 0]]], "second": [[[2, 0]]]}',
        "exit": 1,
    },
    # |det|^2 = 2^1600 is past the largest double: the covolume check still decides
    "lattice-equiv-huge-scale": {
        "argv": ["lattice-equiv"],
        "input": '{"first": [[[2.5822498780869086e+120, 0], [0, 0]], [[0, 0], [2.5822498780869086e+120, 0]]], "second": [[[0, 0], [2.5822498780869086e+120, 0]], [[2.5822498780869086e+120, 0], [0, 0]]]}',
        "exit": 0,
    },
    # a basis at 2^-300 with the radius at 4^-300 times 4: decided as at scale 1
    "lattice-equiv-tiny-scale": {
        "argv": ["lattice-equiv", "--radius", "9.639679460411536e-181"],
        "input": '{"first": [[[4.909093465297727e-91, 0], [4.418184118767954e-91, 0]], [[0, 0], [1.472728039589318e-91, 0]]], "second": [[[4.909093465297727e-91, 0], [4.418184118767954e-91, 0]], [[0, 0], [1.472728039589318e-91, 0]]]}',
        "exit": 0,
    },
    # numpy's det of the subnormal partner is NaN; at unit scale its determinant is
    # (-1 + 3i) 2^-2148, and the covolume test refutes the pair (its |det|^2 underflows)
    "lattice-equiv-subnormal-partner": {
        "argv": ["lattice-equiv"],
        "input": '{"first": [[[0.887733163892781, -0.8516802796258283], [-1.5125967976357788, 0.2051373748588469]], [[-0.4674409530656326, 0.7286924130231177], [0.1635974663667906, -1.1937425853510049]]], "second": [[[0, 5e-324], [-1e-323, -5e-324]], [[0, 1e-323], [-5e-324, -5e-324]]]}',
        "exit": 0,
    },
    # a witness of height 6, B = -((6+5i, 3-i), (1+2i, 1)), found in the height-7 set
    "lattice-equiv-height-7": {
        "argv": ["lattice-equiv", "--height", "7", "--budget", "1000000000"],
        "input": '{"first": [[[1.2, 0], [0.3, 0.4]], [[-0.2, 0.1], [0.9, -0.5]]], "second": [[[-0.9, 0.2], [0, 0.4]], [[6.7, 7], [3.9, -0.8]]]}',
        "exit": 0,
    },
    # no complete candidate set is enumerated at n = 3: it fails fast
    "lattice-equiv-n3-height": {
        "argv": ["lattice-equiv"],
        "input": '{"first": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]], "second": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]}',
        "exit": 1,
    },
    # with tol.abs 1000 every column of height 4 matches: 6561 x 6561 column pairs exceed
    # the default budget, so the scan fails fast instead of forming them
    "lattice-equiv-column-pairs-over-budget": {
        "argv": ["lattice-equiv", "--tol-abs", "1000", "--height", "4"],
        "input": '{"first": [[[1,0],[0,0]],[[0,0],[1,0]]], "second": [[[1,0],[0,0]],[[0,0],[1,0]]]}',
        "exit": 1,
    },
    # the scan's hit B = I gives T = [[1, 2e-9], [0, 1]], which misses the test of U at the
    # default tol: it is passed over, and the spectra cannot refute
    "lattice-equiv-shear-undecided": {
        "argv": ["lattice-equiv"],
        "input": '{"first": [[[1,0],[0,0]],[[0,0],[0.5,0]]], "second": [[[1,0],[1e-9,0]],[[0,0],[0.5,0]]]}',
        "exit": 0,
    },
    # tol.abs 1e300 admits every B of height 3: the hits whose T fails the test of U are
    # passed over until B = [[-1, -3], [0, -1]], whose T = -I comes in closed form
    "lattice-equiv-huge-tol-abs": {
        "argv": ["lattice-equiv", "--tol-abs", "1e300", "--height", "3"],
        "input": '{"first": [[[1,0],[0,0]],[[0,0],[1,0]]], "second": [[[1,0],[3,0]],[[0,0],[1,0]]]}',
        "exit": 0,
    },
    # --- sigma-check ---
    "sigma-check-member": {
        "argv": ["sigma-check"],
        "input": '{"matrix": [[[1,0],[0,1]],[[0,0],[1,0]]]}',
        "exit": 0,
    },
    "sigma-check-determinant": {
        "argv": ["sigma-check"],
        "input": '{"matrix": [[[0, 1]]]}',
        "exit": 1,
    },
    "sigma-check-nonintegral": {
        "argv": ["sigma-check"],
        "input": '{"matrix": [[[0.5, 0]]]}',
        "exit": 1,
    },
    # --- torus-reduce / torus-add ---
    "torus-reduce-standard": {
        "argv": ["torus-reduce"],
        "input": '{"lattice": ' + STD1 + ', "z": [[2.5, 3.25]]}',
        "exit": 0,
    },
    "torus-reduce-huge": {
        "argv": ["torus-reduce"],
        "input": '{"lattice": ' + STD1 + ', "z": [[1e17, 0.5]]}',
        "exit": 1,
    },
    "torus-reduce-dimension-mismatch": {
        "argv": ["torus-reduce"],
        "input": '{"lattice": ' + STD1 + ', "z": [[1, 0], [0, 1]]}',
        "exit": 1,
    },
    "torus-add-wrap": {
        "argv": ["torus-add"],
        "input": '{"lattice": ' + STD1 + ', "first": [[0.75, 0]], "second": [[0.75, 0.5]]}',
        "exit": 0,
    },
    # the representatives' sum overflows, yet coordinates add: the finite point (0.8, 0.8)
    "torus-add-overflow": {
        "argv": ["torus-add"],
        "input": '{"lattice": {"n": 1, "generators": [[[1e308, 0]], [[0, 1e308]]]}, "first": [[9e307, 9e307]], "second": [[9e307, 9e307]]}',
        "exit": 0,
    },
    # --- dim1-forms ---
    "dim1-forms-basic": {
        "argv": ["dim1-forms"],
        "input": '{"a": [1, 0], "b": [2, 0]}',
        "exit": 0,
    },
    "dim1-forms-noninvertible": {
        "argv": ["dim1-forms"],
        "input": '{"a": [1, 0], "b": [0, 1]}',
        "exit": 0,
    },
    "dim1-forms-zero-a": {
        "argv": ["dim1-forms"],
        "input": '{"a": [0, 0], "b": [1, 0]}',
        "exit": 0,
    },
    # |b| and a - b overflow although a and b are finite: one error line, not a traceback
    "dim1-forms-overflow": {
        "argv": ["dim1-forms"],
        "input": '{"a": [1e+308, 0], "b": [-1e+308, 1.7e+308]}',
        "exit": 1,
    },
    # --- malformed input (exit 2) ---
    "malformed-not-json": {
        "argv": ["gram"],
        "input": "Ceci n'est pas du JSON",
        "exit": 2,
    },
    "malformed-missing-field": {
        "argv": ["gram"],
        "input": "{}",
        "exit": 2,
    },
    "malformed-extra-field": {
        "argv": ["gram"],
        "input": '{"matrix": [[[1, 0]]], "extra": 1}',
        "exit": 2,
    },
    "malformed-bad-complex": {
        "argv": ["gram"],
        "input": '{"matrix": [[[1]]]}',
        "exit": 2,
    },
    "malformed-nonfinite": {
        "argv": ["gram"],
        "input": '{"matrix": [[[Infinity, 0]]]}',
        "exit": 2,
    },
    "malformed-unknown-subcommand": {
        "argv": ["frobnicate"],
        "input": "",
        "exit": 2,
    },
    "malformed-unknown-flag": {
        "argv": ["gram", "--frobnicate"],
        "input": '{"matrix": [[[1, 0]]]}',
        "exit": 2,
    },
    "malformed-tolerance-inf": {
        "argv": ["gram", "--tol-rel", "inf"],
        "input": '{"matrix": [[[1, 0]]]}',
        "exit": 2,
    },
    "malformed-tolerance-nan": {
        "argv": ["gram", "--tol-abs", "nan"],
        "input": '{"matrix": [[[1, 0]]]}',
        "exit": 2,
    },
    # command-line errors: a known subcommand is parsed by its own subparser alone, the
    # rest by the full parser, and the error line is the same either way
    "malformed-no-subcommand": {
        "argv": [],
        "input": "",
        "exit": 2,
    },
    "malformed-convert-missing-to": {
        "argv": ["map-convert"],
        "input": '{"map": {"kind": "conjugate_pair", "m": [[[2, 0]]], "n": [[[1, 0]]]}}',
        "exit": 2,
    },
    "malformed-convert-unknown-kind": {
        "argv": ["map-convert", "--to", "bogus"],
        "input": '{"map": {"kind": "conjugate_pair", "m": [[[2, 0]]], "n": [[[1, 0]]]}}',
        "exit": 2,
    },
    "malformed-equiv-unknown-mode": {
        "argv": ["lattice-equiv", "--mode", "bogus"],
        "input": '{"first": [[[1, 0]]], "second": [[[0, 1]]]}',
        "exit": 2,
    },
}


def in_memory(argv, input_text):
    """(exit code, stdout, stderr) of cli.run in this process."""
    out = io.StringIO()
    return run(argv, io.StringIO(input_text), out), out.getvalue().encode("utf-8"), b""


def in_process(command, argv, input_text):
    """(exit code, stdout, stderr) of one fresh process of the cxlat command (a list of words)."""
    proc = subprocess.run(
        [*command, *argv],
        input=input_text.encode("utf-8"), capture_output=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def render(runner=in_memory):
    """Run every case: ({file name: bytes}, [exit-code mismatches and stderr output])."""
    files, failures = {}, []
    for name, case in CASES.items():
        code, out, err = runner(case["argv"], case["input"])
        if code != case["exit"] or err:
            stderr = f", stderr ends {err[-300:]!r}" if err else ""
            failures.append(f"{name}: expected exit {case['exit']}, got {code}{stderr}")
            continue
        files[f"{name}.golden"] = out
    files["cases.json"] = (json.dumps(CASES, indent=1, sort_keys=True) + "\n").encode("utf-8")
    return files, failures


def _stray(out_dir: pathlib.Path, files: dict) -> list:
    return [f"{p.name}: no such case" for p in sorted(out_dir.glob("*.golden")) if p.name not in files]


def check(out_dir: pathlib.Path, files: dict, failures: list) -> list:
    """Every difference between the rendered and the committed files."""
    diffs = list(failures)
    for name, data in files.items():
        path = out_dir / name
        if not path.is_file():
            diffs.append(f"{name}: missing")
        elif path.read_bytes() != data:
            diffs.append(f"{name}: bytes differ")
    return diffs + _stray(out_dir, files)


def _compare(old, new, where: str, problems: list) -> float:
    """Append each non-float difference to problems; return the largest relative float drift."""
    if type(old) is not type(new):
        problems.append(f"{where}: {type(old).__name__} became {type(new).__name__}")
    elif isinstance(old, dict):
        if list(old) != list(new):
            problems.append(f"{where}: keys {list(old)} became {list(new)}")
        else:
            return max((_compare(old[k], new[k], f"{where}.{k}", problems) for k in old), default=0.0)
    elif isinstance(old, list):
        if len(old) != len(new):
            problems.append(f"{where}: length {len(old)} became {len(new)}")
        else:
            pairs = enumerate(zip(old, new))
            return max((_compare(a, b, f"{where}[{i}]", problems) for i, (a, b) in pairs), default=0.0)
    elif isinstance(old, float):
        return 0.0 if old == new else abs(new - old) / max(abs(old), abs(new))
    elif old != new:
        problems.append(f"{where}: {old!r} became {new!r}")
    return 0.0


def _case_drift(path: pathlib.Path, problems: list, changes: list) -> None:
    """Compare the committed cases.json with CASES: only added cases may pass."""
    try:
        old = json.loads(path.read_bytes())
    except ValueError:
        problems.append("cases.json: not JSON")
        return
    found = [f"cases.json: case {name} removed" for name in sorted(old.keys() - CASES.keys())]
    for name in sorted(CASES.keys() & old.keys()):
        fields = [k for k in ("argv", "input", "exit") if old[name].get(k) != CASES[name][k]]
        if fields:
            found.append(f"cases.json: case {name} changed its {', '.join(fields)}")
    added = [f"cases.json: case {name} added" for name in sorted(CASES.keys() - old.keys())]
    problems += found
    changes += added if found or added else ["cases.json: same cases, bytes differ"]


def drift_check(out_dir: pathlib.Path, files: dict, failures: list) -> tuple:
    """(problems, changes): what forbids a rewrite, and one line per change a rewrite would make."""
    problems, changes = list(failures), []
    for name, data in files.items():
        path = out_dir / name
        if path.is_file() and path.read_bytes() == data:
            continue
        if not path.is_file():
            changes.append(f"{name}: new")
            continue
        if name == "cases.json":
            _case_drift(path, problems, changes)
            continue
        try:
            old, new = json.loads(path.read_bytes()), json.loads(data)
        except ValueError:
            problems.append(f"{name}: not a JSON line on both sides")
            continue
        found = []
        worst = _compare(old, new, name, found)
        if worst > DRIFT:
            found.append(f"{name}: relative float drift {worst:.3g} exceeds {DRIFT:g}")
        problems += found
        changes.append(f"{name}: largest relative float drift {worst:.3g}")
    return problems + _stray(out_dir, files), changes


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Regenerate or check the CLI golden files.")
    parser.add_argument(
        "--check", action="store_true", help="compare with the committed files and write nothing"
    )
    parser.add_argument(
        "--drift",
        action="store_true",
        help=f"with --check: run the drift check (floats within {DRIFT:g} relative) instead of "
        "the byte comparison; a rewrite always runs it",
    )
    parser.add_argument(
        "--processes",
        nargs="?",
        const=(sys.executable, "-m", "cxlattices.cli"),
        type=lambda path: (path,),
        metavar="CXLAT",
        help="with --check: run each case in its own process, of the cxlat executable CXLAT "
        "(an installed console script) or, without it, of python -m cxlattices.cli",
    )
    args = parser.parse_args(argv)
    if (args.drift or args.processes is not None) and not args.check:
        parser.error("--drift and --processes go with --check")
    out_dir = pathlib.Path(__file__).resolve().parent
    runner = in_memory if args.processes is None else functools.partial(in_process, args.processes)
    files, failures = render(runner)
    if args.check and not args.drift:
        diffs = check(out_dir, files, failures)
        if diffs:
            sys.exit("\n".join(diffs))
        print(f"checked {len(CASES)} cases: no byte differs")
        return
    problems, changes = drift_check(out_dir, files, failures)
    print("\n".join(changes) if changes else f"{len(CASES)} cases: no byte differs")
    if problems:
        sys.exit("\n".join(problems))
    if args.check:
        return
    for name, data in files.items():
        (out_dir / name).write_bytes(data)
    print(f"wrote {len(CASES)} cases")


if __name__ == "__main__":
    main()
