"""Seeded inputs for the four workloads.

Everything here is plain Python (``random.Random`` and complex floats), so a
seed yields the same bytes on any machine and the library under test never
touches input generation.  Matrices travel in the command line's JSON shape:
a complex scalar is ``[re, im]``, a matrix is a list of rows of scalars, a map
is ``{"kind": ..., <fields>}`` and a lattice is ``{"n": n, "generators": rows}``
with row k holding generator k.  Each workload's pool is one stratified block
with fixed shares of every (op, n, class); the benchmark cycles through it, so
the mix of a run does not depend on how far it got.

Numpy appears once, in ``_short_box``, to keep equivalence inputs whose
short-vector box would be too large out of the pool; the decision has wide
margins, so bit-level differences in LAPACK cannot flip it.
"""

from __future__ import annotations

import cmath
import json
import math
import random

NS = (1, 2, 3, 8)

# condition classes: sigma_min / sigma_max of the matrix (or of the realified map)
WELL, ILL, SINGULAR = "well", "ill", "singular"
# Invertibility verdicts misjudge some near-singular and singular inputs (ROADMAP
# item 2: singular_values resolves sigma ratios only to ~1.5e-8), and the
# benchmark's workloads must not fail.  So no op gets near-singular inputs, and
# exactly singular ones go only to the ops outside VERDICT_OPS, which reject
# them with SingularMatrix or need no inverse.
CLASS_CYCLE = (WELL,) * 8 + (ILL, SINGULAR)
VERDICT_OPS = ("is_invertible", "classify", "sl_normalize", "dim1")
VERDICT_CYCLE = (WELL,) * 8 + (ILL,) * 2

MAP_OPS = ("convert", "apply", "is_invertible", "majorizes", "normalize")
MATRIX_OPS = ("polar", "gram", "classify", "sl_normalize")
MAP_KINDS = ("block", "split", "conjugate_pair", "normalized")

N3_BUDGET = 3000  # candidate and short-vector budget for every n = 3 equivalence pair


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


# --- small dense algebra on lists of rows --------------------------------------


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def adjoint(a):
    return [[complex(x).conjugate() for x in col] for col in zip(*a)]


def det(a):
    """Determinant by elimination with partial pivoting (complex floats)."""
    m = [list(map(complex, row)) for row in a]
    n = len(m)
    d = 1 + 0j
    for k in range(n):
        p = max(range(k, n), key=lambda r: abs(m[r][k]))
        if m[p][k] == 0:
            return 0j
        if p != k:
            m[k], m[p] = m[p], m[k]
            d = -d
        d *= m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            for c in range(k, n):
                m[r][c] -= f * m[k][c]
    return d


def orthonormal(r: random.Random, n: int, real: bool):
    """Haar-like random orthogonal (real) or unitary (complex) matrix, by Gram-Schmidt."""
    cols = []
    while len(cols) < n:
        v = [complex(r.gauss(0, 1), 0.0 if real else r.gauss(0, 1)) for _ in range(n)]
        for q in cols:
            dot = sum(x.conjugate() * y for x, y in zip(q, v))
            v = [y - dot * x for x, y in zip(q, v)]
        norm = math.sqrt(sum(abs(x) ** 2 for x in v))
        if norm > 1e-3:
            cols.append([x / norm for x in v])
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def spectrum(r: random.Random, n: int, cls: str):
    """Descending singular values with sigma_min / sigma_max set by the class."""
    if n == 1:
        return [1.0]
    low = {WELL: 10 ** -r.uniform(0.0, 1.0), ILL: 1e-6 * r.uniform(0.5, 2.0), SINGULAR: 1.0}[cls]
    mids = sorted((10 ** r.uniform(math.log10(low), 0.0) for _ in range(n - 2)), reverse=True)
    return [1.0, *mids, low]


def conditioned(r: random.Random, n: int, cls: str, real: bool = False):
    """U diag(s) V* with the class's conditioning; SINGULAR repeats a column exactly.

    A 1 x 1 matrix takes the class's ratio as its size, which conditions the
    map it sits in (the B block of a split map, next to an identity block).
    """
    s = spectrum(r, n, cls)
    scale = 10 ** r.uniform(-0.5, 0.5)
    if n == 1:
        size = {WELL: scale, ILL: 1e-6, SINGULAR: 0.0}[cls]
        return [[size if real else size * cmath.exp(1j * r.uniform(-math.pi, math.pi))]]
    u = orthonormal(r, n, real)
    v = orthonormal(r, n, real)
    a = matmul([[u[i][j] * s[j] * scale for j in range(n)] for i in range(n)], adjoint(v))
    if cls == SINGULAR:
        for row in a:
            row[-1] = row[0]
    return a


def cplx(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def mat_json(a) -> list:
    return [[cplx(x) for x in row] for row in a]


def vec_json(v) -> list:
    return [cplx(x) for x in v]


def rand_vec(r: random.Random, n: int, scale: float = 1.0) -> list:
    return [complex(r.gauss(0, scale), r.gauss(0, scale)) for _ in range(n)]


# --- maps ----------------------------------------------------------------------


def _blocks(rmat, n):
    return ([row[:n] for row in rmat[:n]], [row[n:] for row in rmat[:n]],
            [row[:n] for row in rmat[n:]], [row[n:] for row in rmat[n:]])


def real_linear_map(r: random.Random, n: int, cls: str, kind: str) -> dict:
    """A real-linear map on C^n in the given representation.

    Block and conjugate-pair maps come from a realified 2n x 2n matrix with
    the class's conditioning; split maps condition their B block; normalized
    maps (always invertible-ish, M = I) draw E with norm around one.
    """
    if kind == "split":
        a = [[r.gauss(0, 1) for _ in range(n)] for _ in range(n)]
        b = conditioned(r, n, cls, real=True)
        return {"kind": "split", "a": mat_json(a), "b": mat_json(b)}
    if kind == "normalized":
        e = conditioned(r, n, WELL)
        k = r.uniform(0.3, 1.4) / max(1e-12, max(abs(x) for row in e for x in row) * n)
        return {"kind": "normalized", "e": mat_json([[x * k for x in row] for row in e])}
    e1, e2, e3, e4 = _blocks(conditioned(r, 2 * n, cls, real=True), n)
    if kind == "block":
        return {"kind": "block", "e1": mat_json(e1), "e2": mat_json(e2),
                "e3": mat_json(e3), "e4": mat_json(e4)}
    m = [[0.5 * ((e1[i][j] + e4[i][j]) + 1j * (e3[i][j] - e2[i][j])) for j in range(n)] for i in range(n)]
    nn = [[0.5 * ((e1[i][j] - e4[i][j]) - 1j * (e2[i][j] + e3[i][j])) for j in range(n)] for i in range(n)]
    return {"kind": "conjugate_pair", "m": mat_json(m), "n": mat_json(nn)}


def dim1_pair(r: random.Random, cls: str) -> tuple:
    """(a, b) of T(x + iy) = a x + i b y; invertible iff Re(conj(a) b) != 0."""
    a = complex(r.gauss(0, 1), r.gauss(0, 1))
    t = r.uniform(0.5, 2.0)
    if cls in (WELL, ILL):
        b = a * cmath.exp(1j * r.uniform(-1.2, 1.2)) * t
    else:
        b = 1j * a * t
    return cplx(a), cplx(b)


def maps_pool(seed: int) -> list:
    r = rng_for("maps", seed)
    pool = []
    for n in NS:
        ops = MAP_OPS + MATRIX_OPS + (("dim1",) if n == 1 else ())
        for op in ops:
            for k, cls in enumerate((VERDICT_CYCLE if op in VERDICT_OPS else CLASS_CYCLE) * 2):
                if n == 1 and op in MATRIX_OPS and cls != SINGULAR:
                    cls = WELL  # a 1 x 1 matrix has ratio one unless it is zero
                req = {"op": op, "n": n, "cls": cls}
                if op == "dim1":
                    req["a"], req["b"] = dim1_pair(r, cls)
                elif op in MATRIX_OPS:
                    a = [[0j]] if (n == 1 and cls == SINGULAR) else conditioned(r, n, cls)
                    req["matrix"] = mat_json(a)
                else:
                    kind = MAP_KINDS[(k + n) % 4] if cls == WELL else ("block", "conjugate_pair", "split")[k % 3]
                    req["map"] = real_linear_map(r, n, cls, kind)
                    if op == "convert":
                        req["to"] = MAP_KINDS[(k + 1) % 4]
                    elif op == "apply":
                        req["z"] = vec_json(rand_vec(r, n))
                pool.append(req)
    r.shuffle(pool)
    return pool


# --- torus ---------------------------------------------------------------------


def unimodular_int(r: random.Random, m: int, steps: int):
    """Product of elementary integer column operations, entries kept small."""
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    done = 0
    while done < steps:
        i, j = r.sample(range(m), 2)
        sgn = r.choice((-1, 1))
        col = [u[row][j] + sgn * u[row][i] for row in range(m)]
        if max(abs(x) for x in col) > 3:
            continue
        for row in range(m):
            u[row][j] = col[row]
        done += 1
    return u


def _small_lattice(r: random.Random, n: int):
    """Generators whose realification has condition number at most 10."""
    rr = conditioned(r, 2 * n, WELL, real=True)
    return [[rr[i][k] + 1j * rr[n + i][k] for k in range(2 * n)] for i in range(n)]


def lattice_json(g) -> dict:
    n = len(g)
    return {"n": n, "generators": [[cplx(g[i][k]) for i in range(n)] for k in range(2 * n)]}


def torus_pool(seed: int) -> dict:
    r = rng_for("torus", seed)
    lattices, reqs = [], []
    for n in NS:
        for _ in range(3):
            scale = 10 ** r.uniform(-0.3, 0.3)
            g = [[scale * x for x in row] for row in _small_lattice(r, n)]
            u = unimodular_int(r, 2 * n, 2 * n)
            g2 = matmul(g, u)
            k = len(lattices)
            lattices.append({"n": n, "g": lattice_json(g), "g2": lattice_json(g2)})

            def lattice_vec():
                c = [r.randint(-3, 3) for _ in range(2 * n)]
                return [sum(g[i][j] * c[j] for j in range(2 * n)) for i in range(n)]

            def point():
                return rand_vec(r, n, 3.0 * scale)

            for _ in range(8):
                reqs.append({"op": "reduce", "lat": k, "n": n, "z": vec_json(point())})
            for _ in range(4):
                reqs.append({"op": "add", "lat": k, "n": n, "z1": vec_json(point()), "z2": vec_json(point())})
                reqs.append({"op": "neg", "lat": k, "n": n, "z": vec_json(point())})
            for e, cross in enumerate((False, True, False, True, False, True)):
                same = e % 3 != 2
                z = point()
                if same:
                    w = [a + b for a, b in zip(z, lattice_vec())]
                else:
                    j = r.randrange(2 * n)
                    f = r.uniform(0.2, 0.8)
                    w = [a + b + f * g[i][j] for i, (a, b) in enumerate(zip(z, lattice_vec()))]
                reqs.append({"op": "eq", "lat": k, "n": n, "z": vec_json(z), "w": vec_json(w),
                             "cross": cross, "same": same})
            # two lattice-level requests per lattice, so the n = 8 ones (the slowest
            # requests) hold 2 % of the pool and the p99 latency falls among them
            reqs.extend({"op": "lattice", "lat": k, "n": n} for _ in range(2))
    r.shuffle(reqs)
    return {"lattices": lattices, "requests": reqs}


# --- equiv ---------------------------------------------------------------------


def _gauss_box(h):
    return [(re, im) for re in range(-h, h + 1) for im in range(-h, h + 1)]


def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def det_one_2x2(r: random.Random, h: int, where: str, exact_height: bool = False):
    """A determinant-one Gaussian 2 x 2 of entry height <= h.

    The library's candidate order runs lexicographically over the top-left
    entry first, so drawing that entry from the first or last quarter of the
    height box puts the matrix early or late in the scan.
    """
    box = _gauss_box(h)
    q = max(1, len(box) // 4)
    heads = {"early": box[:q], "late": box[-q:], "any": box}[where]
    while True:
        a = r.choice(heads)
        b, c = r.choice(box), r.choice(box)
        if a == (0, 0):
            continue
        bc = _gmul(b, c)
        num = (1 + bc[0], bc[1])
        den = a[0] ** 2 + a[1] ** 2
        dr, rr = divmod(num[0] * a[0] + num[1] * a[1], den)
        di, ri = divmod(num[1] * a[0] - num[0] * a[1], den)
        if rr or ri or max(abs(dr), abs(di)) > h:
            continue
        m = [[a, b], [c, (dr, di)]]
        height = max(max(abs(e[0]), abs(e[1])) for row in m for e in row)
        if exact_height and height != h:
            continue
        return [[complex(*e) for e in row] for row in m]


def _short_box(a) -> int:
    """Size of the coefficient box short_vectors scans at radius 4."""
    import numpy as np

    m = np.array(a, dtype=complex)
    real = np.block([[m.real, -m.imag], [m.imag, m.real]])
    s = np.linalg.svd(real, compute_uv=False)
    k = int(np.floor(2.0 / s[-1]))
    return (2 * k + 1) ** (2 * len(a))


def _base(r: random.Random, n: int, smin: float):
    """A random complex n x n matrix with singular values in [smin, 2 smin]."""
    u, v = orthonormal(r, n, False), orthonormal(r, n, False)
    s = [smin * r.uniform(1.0, 2.0) for _ in range(n)]
    return matmul([[u[i][j] * s[j] for j in range(n)] for i in range(n)], adjoint(v))


def _special(a):
    d = det(a)
    root = cmath.exp(cmath.log(d) / len(a))
    return [[x / root for x in row] for row in a]


EQUIV_MIX = (
    # (kind, n, copies per height; n = 2 pairs come at heights 1, 2 and 3)
    ("eq_early", 2, 6), ("eq_late", 2, 6), ("beyond", 2, 9), ("covolume", 2, 6),
    ("spectrum", 2, 6), ("su", 2, 6), ("n3_spectrum", 3, 27), ("n3_survivor", 3, 9),
    ("n1_eq", 1, 9), ("n1_covolume", 1, 9), ("n8_covolume", 8, 18),
)
EXPECTED = {
    "eq_early": ("Equivalent",), "eq_late": ("Equivalent",), "su": ("Equivalent",),
    "beyond": ("UndecidedUpToBound", "Equivalent"),
    "covolume": ("covolume",), "n1_covolume": ("covolume",), "n8_covolume": ("covolume",),
    "spectrum": ("short_vector", "UndecidedUpToBound"),
    "n3_spectrum": ("short_vector", "HeightTooLarge"),
    "n3_survivor": ("HeightTooLarge", "UndecidedUpToBound", "Equivalent"),
    "n1_eq": ("Equivalent",),
}
# pairs that are equivalent by construction: any refutation of them is unsound
EQUIVALENT_BY_CONSTRUCTION = ("eq_early", "eq_late", "su", "beyond", "n3_survivor", "n1_eq")


def equiv_pair(r: random.Random, kind: str, n: int, h: int, box_limit: int = 60000) -> dict:
    while True:
        smin = 1.3 if n == 3 else 1.0
        a1 = _base(r, n, smin)
        t = orthonormal(r, n, False)
        mode = "unitary"
        if kind == "su":
            mode = "special_unitary"
            a1, t = _special(a1), _special(t)
        if kind in ("eq_early", "eq_late", "su"):
            b = det_one_2x2(r, h, {"eq_early": "early", "eq_late": "late", "su": "any"}[kind])
        elif kind == "beyond":
            b = det_one_2x2(r, h + 1, "any", exact_height=True)
        elif kind in ("spectrum", "n3_spectrum"):
            x = r.uniform(0.8, 0.9)
            b = [[(x if i == j == 0 else 1 / x if i == j == 1 else float(i == j)) for j in range(n)] for i in range(n)]
        else:
            b = [[float(i == j) for j in range(n)] for i in range(n)]
        a2 = matmul(matmul(t, a1), b)
        if kind.endswith("covolume"):
            c = r.uniform(1.1, 1.5)
            a2 = [[x * c for x in row] for row in a2]
        if n == 3 and not _short_box(a1) == _short_box(a2) == 3 ** 6:
            continue  # every n = 3 pair scans the same 729-vector box, within N3_BUDGET
        if n == 2 and not kind.endswith("covolume") and max(_short_box(a1), _short_box(a2)) - 1 > box_limit:
            continue
        return {"op": "equiv", "kind": kind, "n": n, "h": h, "mode": mode,
                "budget": N3_BUDGET if n == 3 else None,
                "a1": mat_json(a1), "a2": mat_json(a2)}


def equiv_pool(seed: int) -> list:
    r = rng_for("equiv", seed)
    pool = []
    for kind, n, copies in EQUIV_MIX:
        heights = (1, 2, 3) if n == 2 else (1,)
        for h in heights:
            for _ in range(copies):
                pool.append(equiv_pair(r, kind, n, h))
    r.shuffle(pool)
    return pool


# --- cli -----------------------------------------------------------------------


def cli_pool(seed: int) -> list:
    """Four valid requests per subcommand, six malformed ones and one huge one.

    Two of the four polar and gram requests take singular inputs, which exit 1.
    Singular inputs to the verdict subcommands, argparse errors and the huge
    inputs that crash map-apply and polar are left out: they break on ROADMAP
    items 2 and 4, and the benchmark's workloads must not fail.
    ``expect`` holds the allowed exit codes and, where the input fixes it,
    the verdict: a (payload key, value) pair.
    """
    r = rng_for("cli", seed)
    reqs = []

    n = None

    def add(argv, data, exits=(0,), verdict=None, tag="valid"):
        text = data if isinstance(data, str) else json.dumps(data)
        reqs.append({"argv": argv, "input": text, "tag": tag, "n": n,
                     "expect": {"exit": list(exits), "verdict": verdict}})

    for k in (0, 1, 0, 1):
        n, cls = (2, 3)[k], (WELL, SINGULAR)[k]
        ctag = "valid" if cls == WELL else "singular"  # the tag of requests built on the class's input
        m = real_linear_map(r, n, WELL, MAP_KINDS[r.randrange(4)])
        add(["map-apply"], {"map": m, "z": vec_json(rand_vec(r, n))})
        add(["map-convert", "--to", MAP_KINDS[r.randrange(4)]], {"map": m}, exits=(0, 1))
        add(["map-invertible"], {"map": real_linear_map(r, n, WELL, "block")}, verdict=["invertible", True])
        add(["map-majorizes"], {"map": m})
        add(["map-normalize"], {"map": m}, exits=(0, 1))
        a = conditioned(r, n, cls)
        add(["polar"], {"matrix": mat_json(a)}, exits=(0,) if cls == WELL else (1,), tag=ctag)
        add(["gram"], {"matrix": mat_json(a)}, exits=(0,) if cls == WELL else (1,), tag=ctag)
        b = conditioned(r, n, WELL)
        t = orthonormal(r, n, False)
        add(["unitary-equiv"], {"first": mat_json(b), "second": mat_json(matmul(t, b) if k == 0 else b)},
            verdict=["equivalent", True])
        add(["sl-normalize"], {"matrix": mat_json(b)})
        g = _small_lattice(r, n)
        lat = lattice_json(g)
        add(["lattice-validate"], {"lattice": lat}, verdict=["valid", True])
        add(["lattice-covolume"], {"lattice": lat})
        add(["lattice-normalize"], {"lattice": lat})
        g2 = matmul(g, unimodular_int(r, 2 * n, 2 * n))
        add(["lattice-same"], {"first": lat, "second": lattice_json(g2)}, verdict=["same", True])
        kind = ("eq_early", "covolume")[k]
        pair = equiv_pair(r, kind, 2, 2, box_limit=3000)
        add(["lattice-equiv"], {"first": pair["a1"], "second": pair["a2"]},
            verdict=["verdict", "Equivalent" if k == 0 else "RefutedByInvariant"])
        bm = det_one_2x2(r, 2, "any")
        if k == 1:
            bm[0][1] += 0.5
        add(["sigma-check"], {"matrix": mat_json(bm)}, exits=(0,) if k == 0 else (1,),
            verdict=["member", True] if k == 0 else None)
        add(["torus-reduce"], {"lattice": lat, "z": vec_json(rand_vec(r, n, 3.0))})
        add(["torus-add"], {"lattice": lat, "first": vec_json(rand_vec(r, n, 3.0)),
                            "second": vec_json(rand_vec(r, n, 3.0))})
        a1, b1 = dim1_pair(r, WELL)
        add(["dim1-forms"], {"a": a1, "b": b1}, verdict=["invertible", True])

    n = None
    valid = reqs[:]
    del reqs[:]
    # malformed: bad JSON, not JSON, an extra field (twice each)
    for _ in range(2):
        add(["gram"], '{"matrix": [[[1, 0]]', exits=(2,), tag="malformed")
        add(["lattice-covolume"], "not json", exits=(2,), tag="malformed")
        add(["polar"], {"matrix": [[[1, 0]]], "extra": 1}, exits=(2,), tag="malformed")
    # finite but huge: not malformed, so a domain error or a result is expected
    add(["torus-reduce"], {"lattice": lattice_json([[1, 1j]]), "z": [[1e300, 0]]}, exits=(0, 1), tag="huge")
    # valid requests in rounds that hold each subcommand once, in random order, and the
    # fixed-order special ones at even spacing: every stretch of a run gets the same mix
    rounds = [valid[k::len(valid) // 4] for k in range(len(valid) // 4)]
    rounds = [list(group) for group in zip(*rounds)]
    for group in rounds:
        r.shuffle(group)
    ordered = iter([q for group in rounds for q in group])
    total = len(valid) + len(reqs)
    slots = {round((j + 0.5) * total / len(reqs)) for j in range(len(reqs))}
    specials = iter(reqs)
    return [next(specials) if k in slots else next(ordered) for k in range(total)]


POOLS = {"maps": maps_pool, "torus": torus_pool, "equiv": equiv_pool, "cli": cli_pool}


def pool_for(workload: str, seed: int):
    return POOLS[workload](seed)
