"""The benchmark's workloads: seeded input files and one pass of CLI operations.

Each workload writes every input file it needs into a work directory and
returns the operations of one pass.  An operation is one ``pskmap`` CLI
invocation plus the outcome it must have.  pskmap never sees the workload
seed: every ``--seed`` passed to the CLI is drawn from it.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from pskmap import catalog
from pskmap.io import save_algebra_file

# Feasible scan parameters of CH(1): the flat cone at c = 2 and the
# curved candidate at c = 2/sqrt(3).
CH1_FEASIBLE = (2.0 / math.sqrt(3.0), 2.0)
FEASIBLE_ATOL = 1e-3


@dataclass
class Op:
    """One CLI invocation; ``expect(exit_code, report)`` returns an error or None."""

    label: str
    argv: list
    expect: Callable
    solve_n: int | None = None  # n of a `solve` op, for the ladder figures


def status_is(status: str):
    def expect(code, report):
        if code != 0:
            return f"exit code {code}, expected 0"
        if report.get("status") != status:
            return f"status {report.get('status')!r}, expected {status!r}"
        return None
    return expect


def _solved(code, report):
    err = status_is("Solved")(code, report)
    if err is None and "candidate" not in report.get("results", {}):
        err = "Solved report carries no candidate"
    return err


def _ch1_feasible_set(code, report):
    err = status_is("ok")(code, report)
    if err:
        return err
    feasible = sorted(report["results"]["feasible"])
    if len(feasible) != len(CH1_FEASIBLE) or any(
            abs(got - want) > FEASIBLE_ATOL for got, want in zip(feasible, CH1_FEASIBLE)):
        return f"feasible set {feasible}, expected {list(CH1_FEASIBLE)} within {FEASIBLE_ATOL}"
    return None


def _all_infeasible(code, report):
    err = status_is("ok")(code, report)
    if err:
        return err
    res = report["results"]
    bad = [s for s in res["statuses"] if s != "LikelyInfeasible"]
    if bad:
        return f"statuses {res['statuses']}, expected all LikelyInfeasible"
    if res["feasible"]:
        return f"feasible set {res['feasible']}, expected empty"
    return None


def _cli_seeds(rng: np.random.Generator, k: int) -> list:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=k)]


def _random_unitary_frame(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random U(n) acting on (a_1..a_n, b_1..b_n), as a real 2n x 2n matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return np.block([[q.real, -q.imag], [q.imag, q.real]])


def _copy_fixture(root: Path, workdir: Path, name: str) -> str:
    shutil.copyfile(root / "fixtures" / name, workdir / name)
    return name


# Feasible constants of the CH(1)^n catalogue entries at n = 1, 2, 3, and
# the number of random frames each is solved in.  Several frames make one
# unlucky frame or start seed move the pass less.  The cheap n = 2 solves sit
# at the median of the pass's latencies, so there are 7 of them: op_p50_ms is
# then the median of 7 solves rather than of one.
LADDER_PRODUCTS = {1: [2.0], 2: [math.sqrt(2.0), 2.0], 3: [2.0, 2.0, 2.0]}
LADDER_FRAMES = {1: 3, 2: 7, 3: 3}
LADDER_MODEL_N = (1, 2, 3, 4)
# Solve order: frames of one rung are spread over the pass, so that a slow
# spell of the host does not hit all of them.  ("rot", n, frame) or ("model", n).
LADDER_ORDER = [
    ("rot", 1, 0), ("rot", 2, 0), ("rot", 3, 0), ("model", 1), ("rot", 2, 1),
    ("rot", 2, 2), ("model", 2), ("rot", 1, 1), ("rot", 2, 3), ("rot", 3, 1),
    ("model", 3), ("rot", 2, 4), ("rot", 1, 2), ("rot", 2, 5), ("rot", 3, 2),
    ("rot", 2, 6), ("model", 4),
]


def ladder(root: Path, workdir: Path, rng: np.random.Generator) -> list:
    files = {}
    for n, cs in LADDER_PRODUCTS.items():
        for f in range(LADDER_FRAMES[n]):
            L, B = catalog.ch1_product(cs)
            L = catalog.conjugate_algebra(L, _random_unitary_frame(n, rng))
            files["rot", n, f] = f"ch1pow{n}_frame{f}.json"
            save_algebra_file(str(workdir / files["rot", n, f]), L, B)
    for n in LADDER_MODEL_N:
        files["model", n] = f"ch{n}.json"
        save_algebra_file(str(workdir / files["model", n]), *catalog.complex_hyperbolic(n))
    seeds = _cli_seeds(rng, len(LADDER_ORDER))
    return [Op(f"solve {files[key]}",
               ["solve", str(workdir / files[key]), "--starts", "8", "--seed", str(s)],
               _solved, solve_n=key[1])
            for key, s in zip(LADDER_ORDER, seeds)]


def scan(root: Path, workdir: Path, rng: np.random.Generator) -> list:
    name = _copy_fixture(root, workdir, "ch1_family.json")
    seed, = _cli_seeds(rng, 1)
    argv = ["scan", str(workdir / name), "--range", "1", "3", "--steps", "101",
            "--starts", "16", "--seed", str(seed)]
    return [Op(f"scan {name}", argv, _ch1_feasible_set)]


# A fixed grid: the cost of a point depends strongly on c (c = 1.4 costs
# several times its neighbours), so drawing c from the seed would make the
# pass time a property of the seed.  The seed drives the start points.
FALSIFY_VALUES = "1.2,1.4,1.6,1.8,2.0,2.2,2.4,2.6,2.8"


def falsify(root: Path, workdir: Path, rng: np.random.Generator) -> list:
    name = _copy_fixture(root, workdir, "flat_ch1_family.json")
    seed, = _cli_seeds(rng, 1)
    argv = ["scan", str(workdir / name), "--values", FALSIFY_VALUES,
            "--starts", "64", "--seed", str(seed)]
    return [Op(f"scan {name}", argv, _all_infeasible)]


def verify(root: Path, workdir: Path, rng: np.random.Generator) -> list:
    names = [_copy_fixture(root, workdir, "four_dim.json"),
             _copy_fixture(root, workdir, "ch1_cubed.json")]
    for n in (1, 2, 3):
        L, B = catalog.complex_hyperbolic(n)
        name = f"ch{n}_flat.json"
        save_algebra_file(str(workdir / name), L, B,
                          candidate=catalog.complex_hyperbolic_candidate(n))
        names.append(name)
    ok = status_is("ok")
    return [Op(f"{cmd} {name}", [cmd, str(workdir / name)], ok)
            for name in names for cmd in ("check", "cone-verify", "cmap")]


# name -> (builder, why).  The why is the reason the workload exists.
WORKLOADS = {
    "ladder": (ladder,
               "n-ladder of solves (CH(1)^n in random U(n) frames, CH(n) model, n<=4): "
               "residual compile dominates, so the kernel and assembly layers do the work"),
    "scan": (scan,
             "CH(1) curvature scan, 101 points + golden-section polish: many small "
             "geometries, LM iterations dominate; shows batched LM and family compile"),
    "falsify": (falsify,
                "kappa-free scan of R^2 x CH(1), 64 starts, no feasible point: every start "
                "stalls, and assembly stacks the integrability 3-forms"),
    "verify": (verify,
               "check, cone-verify and cmap on fixtures and CH(n) flat candidates: no search; "
               "the only workload for the oracle and twist layers"),
}


def build(workload: str, root: Path, workdir: Path, seed: int) -> list:
    """Write the workload's inputs for ``seed`` into ``workdir``; return one pass."""
    builder, _ = WORKLOADS[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    return builder(root, workdir, np.random.default_rng(seed))


def recheck_file(op: Op, report: dict, index: int) -> str:
    """Input algebra of a `solve` op plus the candidate it returned, as a new file."""
    source = Path(op.argv[1])
    with open(source, encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["candidate"] = report["results"]["candidate"]
    path = source.with_name(f"recheck_{index}_{source.name}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return str(path)
