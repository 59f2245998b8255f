"""A seeded contract fuzzer for the command line.

Each example takes a golden case, swaps some of the numbers in its input for
edge magnitudes (signed zeros, subnormals, 1e+-300, 1.7e308, 2^53 + 1) and
may append edge values of --tol-rel, --tol-abs, --radius and --budget.  It
runs in-process through cli.run, twice, and the contract every cxlat call
keeps is asserted: exit code 0, 1 or 2; exactly one canonical JSON line;
nothing on stderr and no warning; an error name from the taxonomy; and the
same bytes on the second run.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cxlattices import errors, jsonio
from cxlattices.cli import run

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
EDGE_NUMBERS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, -1e-300, 1e300, -1e300, 1.7e308, -1.7e308,
                2**53 + 1, -(2**53 + 1))
EDGE_FLAGS = {
    "--tol-rel": ("0", "-1", "5e-324", "1e-300", "1e-3", "1", "1e300", "1.7e308", "inf", "nan"),
    "--tol-abs": ("0", "-1", "5e-324", "1e-300", "1e-3", "1", "1e300", "1.7e308", "inf", "nan"),
    "--radius": ("0", "-1", "5e-324", "1e-300", "4", "1e300", "1.7e308", "inf", "nan"),
    "--budget": ("0", "-1", "1", "729", "10000000"),
}
BY_COMMAND: dict = {}  # the golden cases of each subcommand ("" for none)
for case in CASES.values():
    BY_COMMAND.setdefault(" ".join(case["argv"][:1]), []).append(case)
ERROR_NAMES = {
    name for name, value in vars(errors).items() if isinstance(value, type) and issubclass(value, errors.CxlatError)
} | {"MalformedInput"}


def _numbers(obj, path=()):
    """The paths of the numbers in the arrays of a parsed JSON value (not of fields such as n)."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _numbers(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                yield path + (i,)
            else:
                yield from _numbers(value, path + (i,))


def _set(obj, path, value) -> None:
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


@st.composite
def calls(draw):
    """(argv, stdin text): a golden case with edge numbers and edge flag values.

    The subcommand is drawn first, so that each of the 18 gets its share whatever
    its number of golden cases.
    """
    case = draw(st.sampled_from(BY_COMMAND[draw(st.sampled_from(sorted(BY_COMMAND)))]))
    argv, text = list(case["argv"]), case["input"]
    try:
        data = json.loads(text)
    except ValueError:  # a case whose input is not JSON keeps it
        data = None
    paths = list(_numbers(data))
    if paths:
        if draw(st.booleans()):  # every number the same edge value
            value = draw(st.sampled_from(EDGE_NUMBERS))
            swaps = [(path, value) for path in paths]
        else:
            picks = st.tuples(st.sampled_from(paths), st.sampled_from(EDGE_NUMBERS))
            swaps = draw(st.lists(picks, min_size=1, max_size=6))
        for path, value in swaps:
            _set(data, path, value)
        text = json.dumps(data)
    for flag, values in EDGE_FLAGS.items():
        if flag in ("--radius", "--budget") and argv[:1] != ["lattice-equiv"]:
            continue
        if draw(st.sampled_from((False, False, True))):  # most calls keep most defaults
            argv += [flag, draw(st.sampled_from(values))]
    return argv, text


def _run(argv, text):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")  # a warning would reach a cxlat process's stderr
        code = run(argv, io.StringIO(text), out)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(calls())
def test_every_call_keeps_the_output_contract(call):
    argv, text = call
    code, out, err = _run(argv, text)
    assert code in (0, 1, 2), (argv, text, out)
    assert err == "", (argv, text, err)
    assert out.endswith("\n") and out.count("\n") == 1, (argv, text, out)
    result = json.loads(out)
    assert jsonio.dumps_canonical(result) == out, (argv, text, out)
    if code == 0:
        assert result["status"] == "ok", (argv, text, out)
    else:
        assert result["status"] == "error", (argv, text, out)
        name = result["error"]["name"]
        assert name in ERROR_NAMES, (argv, text, out)
        assert (code == 2) == (name == "MalformedInput"), (argv, text, out)
    assert _run(argv, text) == (code, out, err), (argv, text)
