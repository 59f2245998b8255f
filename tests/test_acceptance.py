"""Acceptance suite: one test per published criterion, one summary line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Random sampling is seeded; "random invertible" draws are resampled until
sigma_min/sigma_max >= 1e-3 so floating-point guarantees at 1e-9 are
meaningful (documented in the decision log).
"""

import contextlib
import io
import json
import pathlib
import time

import numpy as np
import pytest

from cxlattices import (
    BlockForm,
    ConjugatePairForm,
    NormalizedForm,
    SplitForm,
    Tolerance,
    apply,
    convert,
    from_ab,
    from_generators,
    gram,
    hermitian_eig,
    is_invertible,
    is_invertible_1d,
    lattice_equivalent,
    majorizes,
    normalize_post_composition,
    normalize_to_Lstarstar,
    permute_to_L1,
    polar,
    realify,
    reduce,
    sigma_candidates,
    torus_add,
    torus_eq,
    torus_neg,
    unitarily_equivalent,
)
from cxlattices.cli import _HANDLERS, run as cli_run

MIN_MARGIN = 1e-3  # conditioning floor for "random invertible" draws


def _report(num: int, text: str) -> None:
    print(f"\n[criterion {num}] PASS  {text}")


def _rand_complex(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _margin(m) -> float:
    s = np.linalg.svd(np.asarray(m), compute_uv=False)
    return float(s[-1] / s[0]) if s[0] > 0 else 0.0


def _rand_invertible(rng, n):
    while True:
        a = _rand_complex(rng, (n, n))
        if _margin(a) >= MIN_MARGIN:
            return a


def _rand_unitary(rng, n):
    q, r = np.linalg.qr(_rand_complex(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rand_map(rng, n, kind):
    while True:
        if kind == "block":
            t = BlockForm(*(rng.standard_normal((n, n)) for _ in range(4)))
        elif kind == "split":
            t = SplitForm(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        elif kind == "conjugate_pair":
            t = ConjugatePairForm(_rand_complex(rng, (n, n)), _rand_complex(rng, (n, n)))
        else:
            e = _rand_complex(rng, (n, n))
            t = NormalizedForm(e * (rng.uniform(0.05, 0.9) / np.linalg.norm(e, 2)))
        if _margin(realify(t)) >= MIN_MARGIN:
            return t


def _apply_defect(t1, t2, rng, points=20):
    z = _rand_complex(rng, (t1.dim, points))
    w1 = apply(t1, z)
    w2 = apply(t2, z)
    return float(np.linalg.norm(w1 - w2) / (np.linalg.norm(w1) + 1.0))


def test_criterion_1_representation_round_trips():
    rng = np.random.default_rng(101)
    cycles = {
        "block": ("conjugate_pair", "block"),
        "split": ("conjugate_pair", "block", "split"),
        "conjugate_pair": ("block", "conjugate_pair"),
        "normalized": ("conjugate_pair", "normalized"),
    }
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for n in (1, 2, 3, 4, 8):
        for k in range(1000):
            kind = ("block", "split", "conjugate_pair", "normalized")[k % 4]
            t = _rand_map(rng, n, kind)
            out = t
            for target in cycles[kind]:
                out = convert(out, target)
            worst = max(worst, _apply_defect(t, out, rng))
            count += 1
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9, f"round-trip defect {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s (limit 30s)"
    _report(1, f"{count} maps across n in (1,2,3,4,8), max rel defect {worst:.2e}, {elapsed:.1f}s < 30s")


def test_criterion_2_polar_soundness():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst_res = worst_def = 0.0
    for k in range(1000):
        n = int(rng.integers(1, 9))
        a = _rand_invertible(rng, n)
        u, p = polar(a)
        res = float(np.linalg.norm(a - u @ p.matrix) / np.linalg.norm(a))
        defect = float(np.linalg.norm(u.conj().T @ u - np.eye(n)))
        worst_res = max(worst_res, res)
        worst_def = max(worst_def, defect)
        assert res < 1e-9, f"residual {res:.3e} at n={n}"
        assert defect < 1e-9, f"unitary defect {defect:.3e} at n={n}"
        w, _ = hermitian_eig(p.matrix)
        assert w[0] > 0.0, "P must be positive definite"
    hits = 0
    for k in range(500):
        n = int(rng.integers(1, 5))
        a1 = _rand_invertible(rng, n)
        if k % 2 == 0:
            a2 = _rand_unitary(rng, n) @ a1  # same gram form by construction
            equal, witness = unitarily_equivalent(a1, a2)
            assert equal and witness is not None
            assert np.linalg.norm(witness.conj().T @ witness - np.eye(n)) < 1e-8
            assert np.linalg.norm(witness @ a1 - a2) < 1e-8 * np.linalg.norm(a2)
        else:
            a2 = a1 * 1.7  # gram forms differ by 1.7^2
            equal, witness = unitarily_equivalent(a1, a2)
            assert not equal and witness is None
        hits += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s (limit 60s)"
    _report(
        2,
        f"1000 factorizations (max residual {worst_res:.2e}, max defect {worst_def:.2e}) "
        f"+ {hits} witness pairs, {elapsed:.1f}s < 60s",
    )


def test_criterion_3_majorization_implies_invertibility():
    rng = np.random.default_rng(103)
    failures = 0
    count = 0
    for n in (1, 2, 3, 4):
        for _ in range(1000):
            m = _rand_invertible(rng, n)
            r = _rand_complex(rng, (n, n))
            r *= rng.uniform(0.0, 0.9) / max(np.linalg.norm(r, 2), 1e-30)
            t = ConjugatePairForm(m, r @ m)  # N M^-1 = R, operator norm < 0.9
            assert majorizes(t)
            if not is_invertible(t):
                failures += 1
            count += 1
    assert failures == 0
    _report(3, f"{count} majorizing maps across n in (1,2,3,4), {failures} invertibility failures")


def test_criterion_4_normalized_form_contract():
    rng = np.random.default_rng(104)
    worst = 0.0
    instances = 0
    for n in (1, 2, 3):
        for _ in range(10):
            m = _rand_invertible(rng, n)
            r = _rand_complex(rng, (n, n))
            r *= rng.uniform(0.0, 0.9) / max(np.linalg.norm(r, 2), 1e-30)
            t = ConjugatePairForm(m, r @ m)
            assert majorizes(t)
            g, norm = normalize_post_composition(t)
            z = _rand_complex(rng, (n, 1000))
            w1 = apply(t, z)
            w2 = g @ apply(norm, z)
            defect = float(np.linalg.norm(w1 - w2) / (np.linalg.norm(w1) + 1.0))
            worst = max(worst, defect)
            assert defect < 1e-9
            instances += 1
    assert instances == 30
    checked = 0
    for n in (1, 2):
        box = np.stack(
            np.meshgrid(*([np.arange(-10, 11)] * (2 * n)), indexing="ij"), axis=0
        ).reshape(2 * n, -1)
        lam = box[:n] + 1j * box[n:]
        norms = np.sqrt(np.sum(np.abs(lam) ** 2, axis=0))
        lam = lam[:, (norms <= 10.0) & (norms > 0)]
        for _ in range(100):
            e = _rand_complex(rng, (n, n))
            e *= rng.uniform(0.05, 0.95) / np.linalg.norm(e, 2)
            t = NormalizedForm(e)
            opnorm = np.linalg.norm(e, 2)
            lhs = np.sqrt(np.sum(np.abs(apply(t, lam) - lam) ** 2, axis=0))
            bound = opnorm * np.sqrt(np.sum(np.abs(lam) ** 2, axis=0))
            assert np.all(lhs <= bound * (1.0 + 1e-12)), "lattice closeness bound violated"
            checked += lam.shape[1]
    _report(
        4,
        f"{instances} factorizations at 1000 points each (max defect {worst:.2e}); "
        f"closeness bound on {checked} lattice points",
    )


def test_criterion_5_dim1_oracle_equivalence():
    rng = np.random.default_rng(105)
    band_lo, band_hi = 0.1, 10.0  # declared margin band around the threshold
    checked = skipped = 0
    for _ in range(10000):
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        f = from_ab(a, b)
        t = ConjugatePairForm([[f.alpha]], [[f.beta.conjugate()]])
        z = complex(rng.standard_normal(), rng.standard_normal())
        got = complex(apply(t, np.array([z]))[0])
        want = f.alpha * z + f.beta * z.conjugate()
        assert abs(got - want) <= 1e-12 * (abs(want) + abs(a) + abs(b) + 1.0)
        gap = abs(abs(f.alpha) - abs(f.beta))
        threshold = 1e-9 * (abs(f.alpha) + abs(f.beta))
        if band_lo * threshold <= gap <= band_hi * threshold:
            skipped += 1  # inside the declared tolerance margin
            continue
        assert is_invertible_1d(f) == is_invertible(t), (a, b)
        assert (f.theta is not None) == majorizes(t), (a, b)
        if f.theta is not None:
            g, norm = normalize_post_composition(t)
            assert abs(complex(g[0, 0]) - f.alpha) <= 1e-12 * abs(f.alpha)
            assert abs(complex(norm.e[0, 0]) - f.mu.conjugate()) <= 1e-12
        checked += 1
    assert checked >= 9900
    _report(5, f"{checked} scalar instances agree at 1e-12 ({skipped} inside margin band), 0 misclassifications")


def test_criterion_6_lattice_pipeline():
    rng = np.random.default_rng(106)
    worst = 0.0
    count = 0
    for n in (1, 2, 3):
        for _ in range(500):
            while True:
                g = _rand_complex(rng, (n, 2 * n))
                real = np.vstack([g.real, g.imag])
                if _margin(real) >= MIN_MARGIN:
                    break
            lat = from_generators(g)
            permuted, perm = permute_to_L1(lat)
            a, pm = normalize_to_Lstarstar(permuted)
            assert _margin(pm.z.imag) > 1e-9, "period matrix must have invertible Im"
            target = np.hstack([np.eye(n), pm.z])
            residual = float(
                np.linalg.norm(a @ permuted.g - target) / (np.linalg.norm(target) + 1.0)
            )
            worst = max(worst, residual)
            assert residual < 1e-9
            count += 1
    _report(6, f"{count} bases through permute/normalize, max reconstruction residual {worst:.2e}")


def test_criterion_7_equivalence_soundness():
    rng = np.random.default_rng(107)
    t0 = time.perf_counter()
    # keep both lattices inside the spectrum stage's enumeration envelope:
    # radius 4 and budget 1e7 need sigma_min >= 2 / 27 on the realified matrix
    floor = 0.08
    for n in (1, 2):
        pool = sigma_candidates(n, 2)
        for _ in range(100):
            while True:
                a1 = _rand_invertible(rng, n)
                entries = pool[int(rng.integers(len(pool)))]
                bm = np.array([[complex(*e) for e in row] for row in entries])
                a2 = _rand_unitary(rng, n) @ a1 @ bm
                s1 = np.linalg.svd(a1, compute_uv=False)[-1]
                s2 = np.linalg.svd(a2, compute_uv=False)[-1]
                if min(s1, s2) >= floor:
                    break
            verdict = lattice_equivalent(a1, a2, height=2)
            assert verdict.status == "Equivalent", verdict.status
            t, b = verdict.witness
            res = np.linalg.norm(a2 - t @ a1 @ b.matrix) / (np.linalg.norm(a2) + 1.0)
            assert res < 1e-8, f"witness residual {res:.3e}"
            assert np.linalg.norm(t.conj().T @ t - np.eye(n)) < 1e-8
    refuted = 0
    for n in (1, 2):
        for _ in range(100):
            a1 = _rand_invertible(rng, n)
            a2 = _rand_invertible(rng, n)
            # match |det|, then scale so covolumes differ by at least 1.69x
            a2 *= (abs(np.linalg.det(a1)) / abs(np.linalg.det(a2))) ** (1.0 / n)
            a2 *= rng.uniform(1.3, 2.0)
            verdict = lattice_equivalent(a1, a2, height=2)
            assert verdict.status == "RefutedByInvariant", verdict.status
            assert verdict.refuter[0] == "covolume"
            refuted += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s (limit 5min)"
    _report(7, f"200 planted pairs certified with verified witnesses + {refuted} covolume refutations, {elapsed:.1f}s < 300s")


def test_criterion_8_torus_group_laws():
    rng = np.random.default_rng(108)
    tol = Tolerance(rel=1e-9, abs=1e-9)  # working margin for chained reductions
    triples = 0
    for n in (1, 2, 3):
        lattices = []
        while len(lattices) < 10:
            g = _rand_complex(rng, (n, 2 * n))
            if _margin(np.vstack([g.real, g.imag])) >= 1e-2:
                lattices.append(from_generators(g))
        for k in range(1000):
            lat = lattices[k % 10]
            zs = [_rand_complex(rng, (n,)) * 3.0 for _ in range(3)]
            p, q, r = (reduce(lat, z, tol) for z in zs)
            zero = reduce(lat, np.zeros(n), tol)
            assert torus_eq(torus_add(p, zero, tol), p, tol)
            assert torus_eq(torus_add(p, torus_neg(p, tol), tol), zero, tol)
            assert torus_eq(torus_add(p, q, tol), torus_add(q, p, tol), tol)
            lhs = torus_add(torus_add(p, q, tol), r, tol)
            rhs = torus_add(p, torus_add(q, r, tol), tol)
            assert torus_eq(lhs, rhs, tol)
            shift = lat.g @ rng.integers(-3, 4, size=2 * n).astype(float)
            assert torus_eq(reduce(lat, zs[0] + shift, tol), p, tol)
            triples += 1
    _report(8, f"{triples} triples across n in (1,2,3): identity/inverse/commutativity/associativity/periodicity")


def test_criterion_9_cli_determinism():
    golden_dir = pathlib.Path(__file__).parent / "golden"
    cases = json.loads((golden_dir / "cases.json").read_text(encoding="utf-8"))
    covered = {word for case in cases.values() for word in case["argv"][:1]} & set(_HANDLERS)
    assert covered == set(_HANDLERS), f"missing golden cases for {sorted(set(_HANDLERS) - covered)}"
    for name, case in sorted(cases.items()):
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli_run(case["argv"], io.StringIO(case["input"]), buf)
            assert code == case["exit"], f"{name}: exit {code} != {case['exit']}"
            outs.append(buf.getvalue())
        assert outs[0] == outs[1], f"{name}: output differs between runs"
        expected = (golden_dir / f"{name}.golden").read_text(encoding="utf-8")
        assert outs[0] == expected, f"{name}: output differs from golden file"
    _report(9, f"{len(cases)} golden cases over {len(covered)} subcommands, byte-identical across two runs")
