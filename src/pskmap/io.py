"""JSON algebra files and report emission; the only module that touches disk.

Schema:
    {
      "n": 2,
      "brackets": [[i, j, k, c], ...],        # [e_i, e_j] = sum c e_k, i < j
      "labels": ["a1", ...],                  # optional
      "candidate": {                          # optional
        "Sa": [[i, j, k, value], ...],        # sorted triples only
        "Sb": [[i, j, k, value], ...],
        "kappa": [[index, value], ...]
      }
    }

For parameter scans a bracket constant may be the string "c", "-c" or
"<float>*c"; such files describe a one-parameter family.

A bracket row (i, j, k), an Sa or Sb triple and a kappa index may each
appear at most once; a repeat is a ParseError, also when one of two bracket
rows on the same (i, j, k) is parametric.

The candidate's kappa is read into a (2n,) array; writing it lists only the
entries of size above tolerance.PRUNE.

Every number must be a finite JSON number (not a bool or a string) of
magnitude at most MAX_MAGNITUDE, every index an integer and n at most MAX_N;
anything else is a ParseError.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .intrinsic import PSKCandidate, SymTensor3
from .lie import AdaptedBasis, LieAlgebra
from .tolerance import PRUNE

SCHEMA_VERSION = 1

# Largest accepted |value| of a bracket constant, tensor entry, kappa entry or
# template multiplier.  The tolerance scales square these values (and the
# output of the twist squares products of them), so 1e50 keeps every such
# expression far from float overflow.
MAX_MAGNITUDE = 1e50

# Largest accepted n.  Every command checks the Jacobi identity on a (2n)^4
# float array (128 MiB at n = 32, 2 GiB at n = 64), so a larger n cannot run;
# refusing it here also bounds the (2n,) kappa array the parser allocates.
MAX_N = 32


class ParseError(Exception):
    """Malformed algebra file."""


@dataclass
class AlgebraFile:
    L: LieAlgebra
    B: AdaptedBasis
    candidate: PSKCandidate | None = None
    labels: list = field(default_factory=list)


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ParseError(msg)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, what: str) -> float:
    """A finite float of magnitude at most MAX_MAGNITUDE, or a ParseError."""
    _check(isinstance(value, (int, float)) and not isinstance(value, bool),
           f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    _check(math.isfinite(x) and abs(x) <= MAX_MAGNITUDE,
           f"{what} {value!r} is not finite or exceeds {MAX_MAGNITUDE:g} in magnitude")
    return x


def _rows(obj: dict, name: str, width: int, shape: str) -> list:
    rows = obj.get(name, [])
    _check(isinstance(rows, (list, tuple)), f"'{name}' must be a list, got {rows!r}")
    for row in rows:
        _check(isinstance(row, (list, tuple)) and len(row) == width,
               f"{name} row {row!r} must be {shape}")
    return rows


def parse_algebra(obj: dict, allow_parameter: bool = False) -> AlgebraFile:
    _check(isinstance(obj, dict), "top level must be an object")
    _check("n" in obj, "missing field 'n'")
    n = obj["n"]
    _check(_is_int(n) and 1 <= n <= MAX_N, f"'n' must be an integer in 1..{MAX_N}")
    dim = 2 * n
    entries = []
    seen = set()
    for row in _rows(obj, "brackets", 4, "[i, j, k, c]"):
        i, j, k, c = row
        _check(all(_is_int(x) for x in (i, j, k)),
               f"bracket indices must be integers in {row!r}")
        _check(1 <= i < j <= dim and 1 <= k <= dim,
               f"bracket indices out of range in {row!r}")
        _check((i, j, k) not in seen, f"duplicate bracket row for ({i}, {j}, {k})")
        seen.add((i, j, k))
        if isinstance(c, str):
            _check(allow_parameter, f"parametric constant {c!r} in a non-template file")
            continue
        entries.append((i, j, k, _number(c, "bracket constant")))
    L = LieAlgebra.from_brackets(dim, entries)
    B = AdaptedBasis(n)
    cand = None
    if obj.get("candidate") is not None:
        cand = _parse_candidate(obj["candidate"], n)
    labels = obj.get("labels", [])
    _check(isinstance(labels, list) and all(isinstance(x, str) for x in labels),
           f"'labels' must be a list of strings, got {labels!r}")
    return AlgebraFile(L=L, B=B, candidate=cand, labels=list(labels))


def _parse_candidate(obj: dict, n: int) -> PSKCandidate:
    _check(isinstance(obj, dict), "'candidate' must be an object")

    def tensor(name: str) -> SymTensor3:
        data = {}
        for row in _rows(obj, name, 4, "[i, j, k, value]"):
            i, j, k, v = row
            _check(all(_is_int(x) for x in (i, j, k)),
                   f"{name} indices must be integers")
            _check(1 <= i <= j <= k <= n,
                   f"{name} triple {row!r} must be sorted and within 1..{n}")
            _check((i, j, k) not in data, f"duplicate {name} triple ({i}, {j}, {k})")
            data[i, j, k] = _number(v, f"{name} value")
        return SymTensor3(n, data)

    kappa, seen = np.zeros(2 * n), set()
    for idx, v in _rows(obj, "kappa", 2, "[index, value]"):
        _check(_is_int(idx) and 1 <= idx <= 2 * n,
               f"kappa index {idx!r} out of range")
        _check(idx not in seen, f"duplicate kappa index {idx}")
        seen.add(idx)
        kappa[idx - 1] = _number(v, "kappa value")
    return PSKCandidate(tensor("Sa"), tensor("Sb"), kappa)


def parse_template(obj: dict):
    """One-parameter family from a file whose bracket constants may be
    '<mult>*c', 'c' or '-c'.  Returns (family(c) -> (L, B), AlgebraFile)."""
    base = parse_algebra(obj, allow_parameter=True)
    n = base.B.n
    dim = 2 * n
    fixed, param = [], []
    for row in obj.get("brackets", []):
        i, j, k, c = row
        if isinstance(c, str):
            param.append((i, j, k, _parse_multiplier(c)))
        else:
            fixed.append((i, j, k, float(c)))
    _check(bool(param), "template file has no parametric bracket constant")

    def family(c: float):
        rows = fixed + [(i, j, k, m * c) for (i, j, k, m) in param]
        return LieAlgebra.from_brackets(dim, rows), AdaptedBasis(n)

    return family, base


def _parse_multiplier(token: str) -> float:
    text = token.strip()
    _check(text.endswith("c"), f"parametric constant {token!r} must end in 'c'")
    head = text[:-1].rstrip("*").strip()
    if head in ("", "+"):
        return 1.0
    if head == "-":
        return -1.0
    try:
        value = float(head)
    except ValueError:
        raise ParseError(f"cannot parse multiplier in {token!r}") from None
    return _number(value, f"multiplier in {token!r}")


def algebra_to_dict(L: LieAlgebra, B: AdaptedBasis, labels=None,
                    candidate: PSKCandidate | None = None) -> dict:
    out = {
        "n": B.n,
        "brackets": [[i, j, k, c] for (i, j, k, c) in L.brackets],
    }
    if labels:
        out["labels"] = list(labels)
    if candidate is not None:
        out["candidate"] = {
            "Sa": [[i, j, k, v] for (i, j, k), v in sorted(candidate.Sa.data.items())],
            "Sb": [[i, j, k, v] for (i, j, k), v in sorted(candidate.Sb.data.items())],
            "kappa": [[i + 1, float(v)] for i, v in enumerate(candidate.kappa)
                      if abs(v) > PRUNE],
        }
    return out


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def load_algebra_file(path: str) -> AlgebraFile:
    return parse_algebra(_read_json(path))


def load_template_file(path: str):
    return parse_template(_read_json(path))


def save_algebra_file(path: str, L: LieAlgebra, B: AdaptedBasis, labels=None,
                      candidate: PSKCandidate | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_dict(L, B, labels, candidate), fh, indent=2)
        fh.write("\n")


@dataclass
class Report:
    """Envelope for every CLI result; floats round-trip at full precision."""

    command: str
    status: str
    results: dict
    seed: int | None = None
    schema_version: int = SCHEMA_VERSION
    tool: str = "pskmap"

    def to_json(self) -> str:
        from . import __version__

        payload = {
            "schema_version": self.schema_version,
            "tool": self.tool,
            "version": __version__,
            "command": self.command,
            "status": self.status,
            "results": self.results,
        }
        if self.seed is not None:
            payload["seed"] = self.seed
        return json.dumps(payload, indent=2, default=_json_default)


def _json_default(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return list(value)
    raise TypeError(f"cannot serialize {type(value)}")
