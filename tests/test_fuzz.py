"""Hypothesis fuzz of the input contract.

Any JSON value given to io.parse_algebra either parses or raises ParseError,
and any JSON value given as the input file of a CLI command ends in one of
that command's documented exit codes, exit 2 always with an "error: "
message; never a traceback, and never the internal-error code 5.

The generated n stays small: nothing caps n at parse time, and the commands
allocate arrays that grow like n^3 (the solver's compile far faster).
"""

import contextlib
import io
import json
import math
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pskmap.cli import EXIT_PARSE, main
from pskmap.io import AlgebraFile, ParseError, parse_algebra

scalars = (st.none() | st.booleans() | st.integers(-3, 7) | st.text(max_size=3)
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([1e308, -1e60, 2 ** 70, "c", "-c", "2.5*c", "x*c"]))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=10,
)
numbers = st.floats(-4.0, 4.0) | st.sampled_from([0.0, 1.0, 2.0, -2.0])


def _well_formed(n):
    """Files of the documented shape over n: rows of in-range indices."""
    index = st.integers(1, 2 * n)
    pair = st.lists(index, min_size=2, max_size=2, unique=True).map(sorted)
    triple = st.lists(st.integers(1, n), min_size=3, max_size=3).map(sorted)
    value = numbers | st.sampled_from(["c", "-c"])
    brackets = st.lists(st.tuples(pair, index, value).map(lambda t: [*t[0], t[1], t[2]]),
                        max_size=4)
    tensor = st.lists(st.tuples(triple, numbers).map(lambda t: [*t[0], t[1]]), max_size=3)
    kappa = st.lists(st.tuples(index, numbers).map(list), max_size=3)
    candidate = st.fixed_dictionaries({"Sa": tensor, "Sb": tensor, "kappa": kappa})
    return st.fixed_dictionaries({"n": st.just(n), "brackets": brackets},
                                 optional={"candidate": candidate})


def _leaf_paths(obj, path=()):
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _leaf_paths(v, path + (k,))]
    if isinstance(obj, list) and obj:
        return [p for i, v in enumerate(obj) for p in _leaf_paths(v, path + (i,))]
    return [path]


def _edited(obj, edits):
    obj = json.loads(json.dumps(obj))
    for path, value in edits:
        holder = obj
        for key in path[:-1]:
            holder = holder[key]
        if path:
            holder[path[-1]] = value
    return obj


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_FILES = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
# A fixture with up to two leaves replaced by a number or any JSON value.
near_fixtures = st.sampled_from(FIXTURE_FILES).flatmap(
    lambda obj: st.lists(st.tuples(st.sampled_from(_leaf_paths(obj)), numbers | json_values),
                         max_size=2).map(lambda edits: _edited(obj, edits)))
inputs = st.integers(1, 3).flatmap(_well_formed) | near_fixtures | json_values

# Exit codes each command documents (cli.py), besides 2.
NORMAL_CODES = {
    "check": {0, 1, 3},
    "solve": {0, 1, 3},
    "scan": {0, 3},
    "cone-verify": {0, 1, 3},
    "cmap": {0, 1, 3, 4},
}
EXTRA_ARGS = {
    "solve": ["--starts", "2", "--seed", "0"],
    "scan": ["--values", "1.5", "--starts", "2", "--seed", "0", "--no-polish"],
}
FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(inputs)
def test_parse_algebra_accepts_or_raises_parse_error(obj):
    try:
        parsed = parse_algebra(obj)
    except ParseError as exc:
        assert str(exc)
        return
    assert isinstance(parsed, AlgebraFile)
    if parsed.candidate is not None:
        kappa = parsed.candidate.kappa
        assert kappa.shape == (parsed.B.dim,)
        assert all(math.isfinite(v) for v in kappa)


def _fuzz_command(command, obj, directory):
    path = directory / f"{command}.json"
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path)] + EXTRA_ARGS.get(command, []))
    if code == EXIT_PARSE:
        assert err.getvalue().startswith("error: ") and len(err.getvalue()) > 8
    else:
        assert code in NORMAL_CODES[command], (code, err.getvalue())


def _command_test(command):
    @FUZZ
    @given(obj=inputs)
    def test(tmp_path_factory, obj):
        _fuzz_command(command, obj, tmp_path_factory.mktemp("fuzz"))

    test.__name__ = f"test_{command.replace('-', '_')}_exit_codes"
    return test


test_check_exit_codes = _command_test("check")
test_solve_exit_codes = _command_test("solve")
test_scan_exit_codes = _command_test("scan")
test_cone_verify_exit_codes = _command_test("cone-verify")
test_cmap_exit_codes = _command_test("cmap")
