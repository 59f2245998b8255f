"""Golden-file and round-trip tests for the command-line interface.

Every subcommand appears in the golden corpus; each case is run twice and
must match the committed bytes exactly (regenerate with
tests/golden/regen.py after an intentional output change).
"""

import contextlib
import gc
import importlib.util
import io
import json
import math
import os
import pathlib
import platform
import subprocess
import sys
import warnings

import numpy as np
import pytest

import cxlattices
from cxlattices import jsonio
from cxlattices.cli import _HANDLERS, run

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def run_cli(argv, input_text=""):
    out = io.StringIO()
    code = run(argv, io.StringIO(input_text), out)
    return code, out.getvalue()


def stderr_of(argv, input_text=""):
    """What a cxlat process would write to stderr: the stream itself and every warning."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        run(argv, io.StringIO(input_text), io.StringIO())
    return err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    case = CASES[name]
    code1, out1 = run_cli(case["argv"], case["input"])
    code2, out2 = run_cli(case["argv"], case["input"])
    assert code1 == case["exit"]
    assert out1 == out2, "output differs between two identical runs"
    expected = (GOLDEN / f"{name}.golden").read_text(encoding="utf-8")
    assert out1 == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case_writes_nothing_to_stderr(name):
    case = CASES[name]
    assert stderr_of(case["argv"], case["input"]) == ""


def test_polar_of_a_huge_entry_writes_nothing_to_stderr():
    # squares of 1e300 overflow inside polar's checks; the result itself is finite
    assert stderr_of(["polar"], '{"matrix": [[[1e300, 0]]]}') == ""
    code, out = run_cli(["polar"], '{"matrix": [[[1e300, 0]]]}')
    assert code == 0 and json.loads(out)["payload"]["p"] == [[[1e300, 0.0]]]


@pytest.mark.parametrize(
    "argv, input_text",
    [
        # det 1e-340 underflows, det 1e560 overflows, and so does each again on A 2^-e
        (["sl-normalize", "--tol-rel", "1e-300"],
         '{"matrix": [[[1,0],[0,0],[0,0]],[[0,0],[1e-170,0],[0,0]],[[0,0],[0,0],[1e-170,0]]]}'),
        (["sl-normalize", "--tol-rel", "1e-300"],
         '{"matrix": [[[1e300,0],[0,0],[0,0]],[[0,0],[1e130,0],[0,0]],[[0,0],[0,0],[1e130,0]]]}'),
        (["map-normalize"], '{"map": {"kind": "conjugate_pair", "m": [[[1,0],[0,0]],[[0,0],[1,0]]], '
                            '"n": [[[1e200,0],[1e200,0]],[[1e200,0],[-1e200,0]]]}}'),
        (["map-normalize"], '{"map": {"kind": "conjugate_pair", "m": [[[1,0]]], "n": [[[1e200,0]]]}}'),
        (["map-invertible"], '{"map": {"kind": "conjugate_pair", "m": [[[1e308,0]]], "n": [[[1e308,0]]]}}'),
        (["map-convert", "--to", "block"], '{"map": {"kind": "conjugate_pair", "m": [[[1e308,0]]], '
                                           '"n": [[[1e308,0]]]}}'),
    ],
)
def test_an_overflowing_intermediate_is_one_malformed_line(argv, input_text):
    # finite, well-formed inputs whose intermediate arrays overflow (A / det(A)^(1/n),
    # I - E* E, the realified map): one error line, NumericOverflow with exit 1 (the
    # input was not malformed), nothing on stderr, never a NaN or a verdict read off one
    assert stderr_of(argv, input_text) == ""
    code, out = run_cli(argv, input_text)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["name"] == "NumericOverflow"
    assert error["message"].endswith("is not finite: the computation overflowed")


@pytest.mark.parametrize("scale", ["1e-170", "1e200"])
def test_sl_normalize_of_a_determinant_past_the_doubles_is_one_ok_line(scale):
    # det(s I) under- or overflows; sl-normalize takes it again on I, so delta is s
    input_text = f'{{"matrix": [[[{scale},0],[0,0]],[[0,0],[{scale},0]]]}}'
    assert stderr_of(["sl-normalize"], input_text) == ""
    code, out = run_cli(["sl-normalize"], input_text)
    payload = json.loads(out)["payload"]
    assert code == 0 and payload["delta"] == [float(scale), 0.0]
    assert payload["normalized"] == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


def test_an_underflowing_sigma_min_squared_is_one_error_line():
    # sigma_min ~1e-162 under a tiny --tol-rel: the short-vector bounds divide by sigma_min
    # twice, never by its square, which underflows to zero; each scan hit has a T that
    # fails the unitarity test at tol.rel 1e-300 and is passed over, so the call ends in
    # one canonical Undecided line with exit 0 and nothing on stderr
    m = "[[[1, 0], [1.3, 0.2]], [[0, 0], [1.6082745327337782e-162, 0]]]"
    argv, input_text = ["lattice-equiv", "--tol-rel", "1e-300", "--radius", "1.5e-323"], \
        f'{{"first": {m}, "second": {m}}}'
    assert stderr_of(argv, input_text) == ""
    code, out = run_cli(argv, input_text)
    assert code == 0
    assert out == jsonio.dumps_canonical(json.loads(out))
    assert json.loads(out)["payload"]["verdict"] == "UndecidedUpToBound"


# what importing cxlattices.cli loads, and what one subcommand of each family adds to it
CLI_MODULES = {"cxlattices", "errors", "kernel", "polar", "jsonio", "cli"}
FAMILY_MODULES = {
    "map-apply-rotation": {"realmaps"},
    "gram-shear": set(),
    "lattice-covolume-standard": {"gaussian", "lattices"},
    "torus-add-wrap": {"gaussian", "lattices", "torus"},
    "lattice-equiv-equivalent-rotation": {"equivalence", "gaussian", "lattices"},
    "dim1-forms-basic": {"dim1", "realmaps"},
}
_LOADED = """
import io, json, sys
def loaded():
    return sorted(m.partition(".")[2] or m for m in sys.modules if m.split(".")[0] == "cxlattices")
from cxlattices import cli
imported = loaded()
case = json.loads(sys.argv[1])
code = cli.run(case["argv"], io.StringIO(case["input"]), io.StringIO())
print(json.dumps([imported, loaded(), code]))
"""


def test_a_cxlat_process_loads_only_the_modules_its_subcommand_uses():
    src = str(pathlib.Path(cxlattices.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    # one fresh process per family, all started before any is read
    procs = {
        name: subprocess.Popen(
            [sys.executable, "-c", _LOADED, json.dumps(CASES[name])],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for name in FAMILY_MODULES
    }
    for name, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0 and err == "", err
        imported, after_run, code = json.loads(out)
        assert code == CASES[name]["exit"]
        assert set(imported) == CLI_MODULES, name
        assert set(after_run) == CLI_MODULES | FAMILY_MODULES[name], name


_MALFORMED_EQUIV = """
import io, json, sys
from cxlattices import cli
out = io.StringIO()
code = cli.run(["lattice-equiv"], io.StringIO(sys.argv[1]), out)
loaded = sorted(m.partition(".")[2] or m for m in sys.modules if m.split(".")[0] == "cxlattices")
print(json.dumps([loaded, code, out.getvalue()]))
"""
_DEFAULT_TOLS = '"diagnostics":{"tol_rel":1.0000000000000001e-09,"tol_abs":9.9999999999999998e-13}}\n'


@pytest.mark.parametrize(
    "input_text, line",
    [
        ('{"first": [[[1, 0]]], "second": [[[1, "x"]]]}',
         '{"status":"error","error":{"name":"MalformedInput","message":"second entry imaginary part'
         ' must be a number, got str"},' + _DEFAULT_TOLS),
        ('{"first": [[[1, 0]]]}',
         '{"status":"error","error":{"name":"MalformedInput","message":"missing input field'
         " 'second'\"}," + _DEFAULT_TOLS),
    ],
)
def test_a_malformed_lattice_equiv_input_loads_no_search(input_text, line):
    # the handler parses both matrices before it imports equivalence, so a refused input
    # costs no more modules than importing the command line does; the line keeps its bytes
    src = str(pathlib.Path(cxlattices.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", _MALFORMED_EQUIV, input_text],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    loaded, code, out = json.loads(proc.stdout)
    assert (set(loaded), code, out) == (CLI_MODULES, 2, line)


@pytest.mark.parametrize("enabled", [True, False])
def test_run_leaves_the_callers_garbage_collector_as_it_found_it(enabled):
    # the one-shot policy (collector off, survivors frozen) belongs to main(): tests, the
    # benchmark and library callers call run() in processes that go on afterwards
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        for name in ("gram-shear", "lattice-equiv-equivalent-rotation", "malformed-no-subcommand"):
            run_cli(CASES[name]["argv"], CASES[name]["input"])
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen), name
    finally:
        (gc.enable if was_enabled else gc.disable)()


_COLLECTIONS = """
import gc, json, sys
from cxlattices import cli
started = []
gc.callbacks.append(lambda phase, info: started.append(info["generation"]) if phase == "start" else None)
sys.argv = ["cxlat", *json.loads(sys.argv[1])]
try:
    cli.main()
except SystemExit as exc:
    code = exc.code
del gc.callbacks[:]
print(json.dumps([code, started, gc.isenabled(), gc.get_freeze_count() > 0]))
"""


def test_a_cxlat_process_runs_no_garbage_collection():
    src = str(pathlib.Path(cxlattices.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    names = ("lattice-equiv-equivalent-rotation", "map-convert-to-normalized", "malformed-no-subcommand")
    procs = {
        name: subprocess.Popen(
            [sys.executable, "-c", _COLLECTIONS, json.dumps(CASES[name]["argv"])],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for name in names
    }
    for name, proc in procs.items():
        out, err = proc.communicate(CASES[name]["input"], timeout=120)
        assert proc.returncode == 0 and err == "", err
        line, report = out.splitlines(keepends=True)
        assert line == (GOLDEN / f"{name}.golden").read_text(encoding="utf-8"), name
        code, started, enabled, frozen = json.loads(report)
        assert code == CASES[name]["exit"], name
        # no collection between entry and exit; what is left is frozen for the shutdown one
        assert started == [], name
        assert enabled is False and frozen is True, name


def test_unhashable_map_kind_is_malformed_input():
    code, out = run_cli(["map-invertible"], '{"map": {"kind": [1]}}')
    assert code == 2
    assert json.loads(out)["error"]["message"].startswith("map kind must be one of")


def test_every_subcommand_has_a_golden_case():
    covered = {word for case in CASES.values() for word in case["argv"][:1]}
    assert covered >= set(_HANDLERS), sorted(set(_HANDLERS) - covered)


@pytest.mark.parametrize("name", sorted(CASES))
def test_result_shape_and_exit_contract(name):
    case = CASES[name]
    code, out = run_cli(case["argv"], case["input"])
    assert out.endswith("\n") and out.count("\n") == 1
    result = json.loads(out)
    if result["status"] == "ok":
        assert code == 0
        assert set(result) == {"status", "payload", "diagnostics"}
    else:
        assert code in (1, 2)
        assert set(result) == {"status", "error", "diagnostics"}
        assert set(result["error"]) == {"name", "message"}
        assert (code == 2) == (result["error"]["name"] == "MalformedInput")


def payload_of(argv, input_text):
    code, out = run_cli(argv, input_text)
    assert code == 0, out
    return json.loads(out)["payload"]


def dump(obj) -> str:
    return json.dumps(obj)


def test_spec_values_dim1():
    p = payload_of(["dim1-forms"], '{"a": [1, 0], "b": [2, 0]}')
    assert p["alpha"] == [1.5, 0.0]
    assert p["beta"] == [-0.5, 0.0]
    assert abs(p["mu"][0] + 1 / 3) < 1e-15 and p["mu"][1] == 0.0


def test_spec_values_covolume():
    p = payload_of(["lattice-covolume"], '{"lattice": {"n": 1, "generators": [[[1,0]],[[0,1]]]}}')
    assert p == {"covolume": 1.0}


def test_spec_values_equiv_refuted():
    p = payload_of(["lattice-equiv"], '{"first": [[[1,0]]], "second": [[[2,0]]]}')
    assert p["verdict"] == "RefutedByInvariant"
    assert p["refuter"] == {"name": "covolume", "first": 1.0, "second": 4.0}


def test_roundtrip_convert_preserves_apply():
    m = '{"kind": "block", "e1": [[[2,0]]], "e2": [[[-1,0]]], "e3": [[[1,0]]], "e4": [[[3,0]]]}'
    w0 = payload_of(["map-apply"], '{"map": %s, "z": [[0.3, -1.2]]}' % m)["w"]
    converted = payload_of(["map-convert", "--to", "conjugate_pair"], '{"map": %s}' % m)["map"]
    w1 = payload_of(["map-apply"], dump({"map": converted, "z": [[0.3, -1.2]]}))["w"]
    for (r0, i0), (r1, i1) in zip(w0, w1):
        assert math.isclose(r0, r1, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(i0, i1, rel_tol=1e-12, abs_tol=1e-12)


def test_roundtrip_polar_factors_verify():
    a = '[[[1,0],[2,0]],[[0,1],[0,3]]]'
    p = payload_of(["polar"], '{"matrix": %s}' % a)
    # P carries the full gram data: A and P must be unitarily equivalent
    q = payload_of(["unitary-equiv"], dump({"first": json.loads(a), "second": p["p"]}))
    assert q["equivalent"] is True
    # U is unitary, so its gram form is the identity
    g = payload_of(["gram"], dump({"matrix": p["u"]}))["gram"]
    for i, row in enumerate(g):
        for j, (re, im) in enumerate(row):
            assert abs(re - (1.0 if i == j else 0.0)) < 1e-9
            assert abs(im) < 1e-9


def test_roundtrip_normalize_period_matrix_is_valid_lattice():
    lat = '{"n": 2, "generators": [[[2,0],[0,0]], [[0.5,0],[1,0]], [[0,1],[0,0.5]], [[0,0.3],[0,2]]]}'
    p = payload_of(["lattice-normalize"], '{"lattice": %s}' % lat)
    n = len(p["z"])
    gens = [[[1.0 if i == k else 0.0, 0.0] for i in range(n)] for k in range(n)]
    gens += [[p["z"][i][k] for i in range(n)] for k in range(n)]  # column k of Z
    v = payload_of(["lattice-validate"], dump({"lattice": {"n": n, "generators": gens}}))
    assert v["valid"] is True


def test_roundtrip_sigma_witness_reenters():
    p = payload_of(["sigma-check"], '{"matrix": [[[1,0],[0,1]],[[0,0],[1,0]]]}')
    m = [[[float(a), float(b)] for a, b in row] for row in p["entries"]]
    again = payload_of(["sigma-check"], dump({"matrix": m}))
    assert again["entries"] == p["entries"]


def test_roundtrip_torus_reduce_idempotent():
    lat = '{"n": 1, "generators": [[[2,0]],[[0.6,1.4]]]}'
    p = payload_of(["torus-reduce"], '{"lattice": %s, "z": [[2.5, 3.25]]}' % lat)
    q = payload_of(["torus-reduce"], dump({"lattice": json.loads(lat), "z": p["rep"]}))
    for c1, c2 in zip(p["coords"], q["coords"]):
        assert min(abs(c1 - c2), 1.0 - abs(c1 - c2)) < 1e-12


def test_roundtrip_equiv_witness_verifies():
    p = payload_of(["lattice-equiv"], '{"first": [[[1,0]]], "second": [[[0,1]]]}')
    assert p["verdict"] == "Equivalent"
    b = [[[float(x), float(y)] for x, y in row] for row in p["witness"]["b"]]
    assert payload_of(["sigma-check"], dump({"matrix": b}))["member"] is True
    g = payload_of(["gram"], dump({"matrix": p["witness"]["t"]}))["gram"]
    assert abs(g[0][0][0] - 1.0) < 1e-9 and abs(g[0][0][1]) < 1e-9


def test_in_file_matches_stdin(tmp_path):
    text = '{"lattice": {"n": 1, "generators": [[[1,0]],[[0,1]]]}}'
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    code1, out1 = run_cli(["lattice-covolume", "--in", str(path)])
    code2, out2 = run_cli(["lattice-covolume"], text)
    assert (code1, out1) == (code2, out2)


def test_in_file_missing_is_malformed(tmp_path):
    code, out = run_cli(["lattice-covolume", "--in", str(tmp_path / "absent.json")])
    assert code == 2
    assert json.loads(out)["error"]["name"] == "MalformedInput"


def test_nonpositive_tolerance_rejected():
    code, out = run_cli(["gram", "--tol-rel", "0"], '{"matrix": [[[1,0]]]}')
    assert code == 2
    assert json.loads(out)["error"]["name"] == "MalformedInput"


@pytest.mark.parametrize("flag", ["--tol-rel", "--tol-abs"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_nonfinite_tolerance_is_one_malformed_line(flag, value):
    code, out = run_cli(["gram", flag, value], '{"matrix": [[[1,0]]]}')
    assert code == 2
    assert out.count("\n") == 1
    assert json.loads(out)["error"]["name"] == "MalformedInput"


def test_lattice_validate_boundary_follows_the_relative_margin():
    # a well-conditioned lattice scaled by 1e-9: rank_margin is tiny, the verdict is not
    tiny = {"n": 1, "generators": [[[1e-9, 0]], [[3e-10, 1.7e-9]]]}
    code, out = run_cli(["lattice-validate"], dump({"lattice": tiny}))
    result = json.loads(out)
    assert code == 0
    assert result["payload"]["valid"] is True
    assert result["diagnostics"]["rank_margin"] < 1e-9
    assert result["diagnostics"]["boundary"] is False
    # sigma_min / sigma_max = 2e-10, inside the band, though rank_margin is 4.5e-8
    skew = {"n": 1, "generators": [[[100, 0]], [[200, 1e-7]]]}
    code, out = run_cli(["lattice-validate"], dump({"lattice": skew}))
    result = json.loads(out)
    assert code == 0
    assert result["payload"]["valid"] is False
    assert result["diagnostics"]["rank_margin"] > 1e-8
    assert result["diagnostics"]["boundary"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["gram", "--frobnicate"],
        ["frobnicate"],
        [],
        ["gram", "--tol-rel", "tiny"],
        ["map-convert"],
        ["lattice-equiv", "--mode", "orthogonal"],
        ["lattice-equiv", "--height", "2.5"],
    ],
)
def test_command_line_errors_are_one_malformed_line(argv, capsys):
    out = io.StringIO()
    code = run(argv, io.StringIO('{"matrix": [[[1, 0]]]}'), out)
    assert code == 2
    assert out.getvalue().count("\n") == 1
    result = json.loads(out.getvalue())
    assert result["error"]["name"] == "MalformedInput"
    assert result["error"]["message"].startswith("command line: ")
    assert result["diagnostics"] == {}
    assert capsys.readouterr() == ("", "")  # no usage text on either stream


@pytest.mark.parametrize("argv", [["--help"], ["gram", "--help"]])
def test_help_still_exits_zero(argv, capsys):
    out = io.StringIO()
    assert run(argv, io.StringIO(""), out) == 0
    assert out.getvalue() == ""
    assert "usage: cxlat" in capsys.readouterr().out


def test_gram_overflow_is_numeric_overflow():
    # finite entries whose A* A overflows: a domain error, not malformed input
    code, out = run_cli(["gram"], '{"matrix": [[[1e300, 0], [0, 0]], [[0, 0], [0, 2e300]]]}')
    assert code == 1
    assert json.loads(out)["error"]["name"] == "NumericOverflow"


def test_tolerance_flags_change_verdict():
    # margin 1e-4 map: invertible at the default, rejected at rel = 1e-3
    m = '{"map": {"kind": "block", "e1": [[[1,0]]], "e2": [[[0,0]]], "e3": [[[0,0]]], "e4": [[[0.0001,0]]]}}'
    assert payload_of(["map-invertible"], m)["invertible"] is True
    assert payload_of(["map-invertible", "--tol-rel", "0.001"], m)["invertible"] is False


def load_regen():
    spec = importlib.util.spec_from_file_location("regen", GOLDEN / "regen.py")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    return regen


def test_regen_check_finds_every_difference(tmp_path):
    regen = load_regen()
    files, failures = regen.render()
    assert failures == []
    assert regen.check(GOLDEN, files, failures) == []
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "gram-shear.golden").write_bytes(files["gram-shear.golden"].replace(b"1.0", b"1.5", 1))
    (tmp_path / "polar-singular.golden").unlink()
    (tmp_path / "stray.golden").write_bytes(b"")
    assert sorted(regen.check(tmp_path, files, ["case: expected exit 0, got 1"])) == [
        "case: expected exit 0, got 1",
        "gram-shear.golden: bytes differ",
        "polar-singular.golden: missing",
        "stray.golden: no such case",
    ]


_CHECK_EQUIV_CASES = """
import pathlib, sys
sys.path.insert(0, sys.argv[1])
import regen
regen.CASES = {name: case for name, case in regen.CASES.items() if name.startswith("lattice-equiv-")}
files, failures = regen.render()
golden = pathlib.Path(sys.argv[1])
diffs = failures + [f"{name}: bytes differ" for name, data in files.items()
                    if name != "cases.json" and (golden / name).read_bytes() != data]
sys.exit("\\n".join(diffs) or None)
"""


def _dynamic_arch_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH, whose kernel
    OPENBLAS_CORETYPE selects, on an x86-64 machine."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return (platform.machine().lower() in ("x86_64", "amd64")
            and "openblas" in str(blas.get("name", "")).lower()
            and "DYNAMIC_ARCH" in str(blas.get("openblas configuration", "")))


@pytest.mark.skipif(not _dynamic_arch_openblas(), reason="needs a DYNAMIC_ARCH OpenBLAS on x86-64")
def test_lattice_equiv_golden_bytes_do_not_depend_on_the_blas_kernel():
    # the witness T is built in closed form, so the Haswell kernel, which rounds LAPACK's
    # results differently from the newer ones, must reproduce every lattice-equiv golden file
    src = str(pathlib.Path(cxlattices.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_CORETYPE="Haswell")
    proc = subprocess.run([sys.executable, "-c", _CHECK_EQUIV_CASES, str(GOLDEN)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_regen_drift_check_allows_float_drift_only(tmp_path):
    regen = load_regen()
    files, failures = regen.render()
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    assert regen.drift_check(tmp_path, files, failures) == ([], [])
    tau = json.loads(files["lattice-validate-tau.golden"])
    tau["diagnostics"]["rank_margin"] = math.nextafter(tau["diagnostics"]["rank_margin"], 0.0)
    (tmp_path / "lattice-validate-tau.golden").write_text(jsonio.dumps_canonical(tau))
    flipped = files["map-invertible-yes.golden"].replace(b'"invertible":true', b'"invertible":false')
    assert flipped != files["map-invertible-yes.golden"]
    (tmp_path / "map-invertible-yes.golden").write_bytes(flipped)
    (tmp_path / "gram-shear.golden").unlink()
    problems, changes = regen.drift_check(tmp_path, files, failures)
    assert problems == ["map-invertible-yes.golden.payload.invertible: False became True"]
    assert sorted(changes) == [
        "gram-shear.golden: new",
        "lattice-validate-tau.golden: largest relative float drift 1.14e-16",
        "map-invertible-yes.golden: largest relative float drift 0",
    ]
    tau["payload"]["covolume"] *= 1.0 + 1e-9
    (tmp_path / "lattice-validate-tau.golden").write_text(jsonio.dumps_canonical(tau))
    problems, _ = regen.drift_check(tmp_path, files, failures)
    assert "lattice-validate-tau.golden: relative float drift 1e-09 exceeds 1e-12" in problems


def test_regen_drift_check_reads_cases_as_data(tmp_path):
    regen = load_regen()
    files, failures = regen.render()
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    committed = json.loads(files["cases.json"])
    del committed["gram-shear"]
    (tmp_path / "cases.json").write_text(json.dumps(committed))
    assert regen.drift_check(tmp_path, files, failures) == ([], ["cases.json: case gram-shear added"])
    committed["polar-singular"]["exit"] = 0
    committed["polar-rotation-scale"]["argv"] = ["gram"]
    committed["retired"] = {"argv": ["gram"], "input": "{}", "exit": 2}
    (tmp_path / "cases.json").write_text(json.dumps(committed))
    problems, changes = regen.drift_check(tmp_path, files, failures)
    assert problems == [
        "cases.json: case retired removed",
        "cases.json: case polar-rotation-scale changed its argv",
        "cases.json: case polar-singular changed its exit",
    ]
    assert changes == ["cases.json: case gram-shear added"]


def test_pool_digest_against_a_tree_prints_both_lines_and_exits_by_them():
    # the repository against itself: both lines of the pool agree, nothing is marked, exit 0
    root = GOLDEN.parents[1]
    script = GOLDEN / "pool_digest.py"
    done = subprocess.run([sys.executable, str(script), "--torus", "1", "--against", str(root)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    here, there = done.stdout.splitlines()
    assert here.startswith("torus seed 1: ") and there == f"{here} ({root})"
    assert done.stderr == ""


def orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


def test_lattice_validate_never_accepts_rank_deficient_generators_unflagged():
    # realified generators with sigma_min / sigma_max in [1e-16, 1e-10]: the lattice
    # is degenerate at tol.rel = 1e-9, so "valid" is allowed only when flagged boundary
    rng = np.random.default_rng(4202)
    wrong = []
    for k in range(80):
        n = int(rng.integers(1, 4))
        ratio = 10.0 ** rng.uniform(-16.0, -10.0)
        s = np.sort(10.0 ** rng.uniform(np.log10(ratio), 0.0, 2 * n))[::-1]
        s[0], s[-1] = 1.0, ratio
        r = orthogonal(rng, 2 * n) @ np.diag(s) @ orthogonal(rng, 2 * n).T
        gens = [[[float(r[i, c]), float(r[n + i, c])] for i in range(n)] for c in range(2 * n)]
        code, out = run_cli(["lattice-validate"], dump({"lattice": {"n": n, "generators": gens}}))
        result = json.loads(out)
        assert code == 0, out
        if result["payload"]["valid"] and not result["diagnostics"]["boundary"]:
            wrong.append((k, n, ratio, result["diagnostics"]["rank_margin"]))
    assert wrong == []



def svd_case(name, svds):
    return pytest.param(CASES[name]["argv"], CASES[name]["input"], svds, id=name)


@pytest.mark.parametrize(
    "argv, input_text, svds",
    [
        # the basis takes the one SVD: rank margin, relative margin and verdict all read it
        svd_case("lattice-validate-tau", 1),
        svd_case("lattice-validate-collinear", 1),
        svd_case("lattice-validate-overflow", 1),
        # the basis, the pivoted block (kept by the permuted basis, read again by the normalization), Im Z
        svd_case("lattice-normalize-scaled-tau", 3),
        # the verdict and the margin come from one realified SVD, for a split form too
        svd_case("map-invertible-yes", 1),
        svd_case("map-invertible-singular", 1),
        svd_case("map-invertible-boundary-flag", 1),
        pytest.param(["map-invertible"], '{"map": {"kind": "split", "a": [[[0.5, 0]]], "b": [[[2, 0]]]}}', 1,
                     id="map-invertible-split"),
        # solve's gate, then the operator norm of N M^-1 unless M is singular
        svd_case("map-majorizes-yes", 2),
        svd_case("map-majorizes-singular-m", 1),
    ],
)
def test_verdict_subcommands_take_each_svd_once(argv, input_text, svds, singular_value_calls):
    code, out = run_cli(argv, input_text)
    assert code in (0, 1), out
    assert len(singular_value_calls) == svds


@pytest.mark.parametrize(
    "name, bareiss",
    [(f"lattice-same-n{n}-{kind}", bareiss) for n in (3, 8)
     for kind, bareiss in (("elementary", 0), ("sublattice", 1), ("entry-2-27", 1))],
)
def test_lattice_same_cases_reach_bareiss_only_past_the_certificate(name, bareiss, monkeypatch):
    # the elementary witness is certified by its exact integer inverse; the det-2 witness and the
    # one whose 2^27 entry puts the inverse past the exact float64 product go to gdet
    from cxlattices import gaussian, lattices

    calls = []
    monkeypatch.setattr(lattices, "gdet", lambda rows: calls.append(len(rows)) or gaussian.gdet(rows))
    code, out = run_cli(CASES[name]["argv"], CASES[name]["input"])
    assert code == 0 and out.encode("utf-8") == (GOLDEN / f"{name}.golden").read_bytes()
    n = int(name.split("-")[2][1:])
    assert calls == [2 * n] * bareiss
