"""CLI reports on the fixtures against reports recorded in tests/data.

check, cone-verify and cmap run on every fixture with a candidate, and a
seeded solve on every fixture that is not a template.  Exit codes, statuses,
derived series, complete solvability, the solve mode and the orbit count
must match exactly; every other float within 1e-12 + 1e-9 |v|.  A solved
candidate is not compared: it sits at an arbitrary point of its flat
directions and moves with last-bit rounding.

Regenerate with ``PYTHONPATH=src python tests/test_golden_reports.py``
(only when a change of verdict is intended, or a change of which start is
reported).
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from pskmap.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_reports.json"
FIXTURES = ["abelian_r2", "ch1_c1", "ch1_c2", "ch1_c_third", "ch1_cubed", "four_dim"]
CALLS = ([[command, name] for command in ("check", "cone-verify", "cmap") for name in FIXTURES]
         + [["solve", name, "--starts", "8", "--seed", "1"] for name in FIXTURES])
EXACT_KEYS = {"status", "derived_series", "completely_solvable", "mode", "distinct_orbits"}


def _run(call) -> dict:
    argv = [call[0], str(ROOT / "fixtures" / f"{call[1]}.json"), *call[2:]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "report": json.loads(out.getvalue())}


def _assert_matches(got, want, path: str) -> None:
    key = path.rsplit(".", 1)[-1]
    if key in EXACT_KEYS:
        assert got == want, path
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for k in want:
            if not (k == "candidate" and path == "solve.results"):
                _assert_matches(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= 1e-12 + 1e-9 * abs(want), \
            (path, got, want)
    else:
        assert got == want, path


@pytest.mark.parametrize("call", CALLS, ids=[" ".join(c[:2]) for c in CALLS])
def test_report_matches_golden(call):
    want = json.loads(GOLDEN.read_text())[" ".join(call)]
    got = _run(call)
    assert got["exit"] == want["exit"]
    _assert_matches(got["report"], want["report"], call[0])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({" ".join(c): _run(c) for c in CALLS}, indent=1) + "\n")
    sys.exit(0)
