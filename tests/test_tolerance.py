"""Every threshold lives in pskmap.tolerance: no other module of the package
writes a float constant with a negative exponent."""

import ast
from pathlib import Path

import pskmap

PACKAGE = Path(pskmap.__file__).resolve().parent


def _negative_exponent_floats(path: Path) -> list:
    source = path.read_text(encoding="utf-8")
    lines = source.encode("utf-8").splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            # a number literal sits on one line; offsets count UTF-8 bytes
            text = lines[node.lineno - 1][node.col_offset:node.end_col_offset].decode()
            if "e-" in text.lower():
                found.append(f"{path.name}:{node.lineno}: {text}")
    return found


def test_no_threshold_literal_outside_policy():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "tolerance.py"]
    assert len(modules) > 5
    found = [site for p in modules for site in _negative_exponent_floats(p)]
    assert not found, "\n".join(found)


def test_guard_sees_a_literal(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("x = 2.5e-3\ny = 1e14\nz = -1E-9\n", encoding="utf-8")
    assert [s.split(": ")[1] for s in _negative_exponent_floats(probe)] == ["2.5e-3", "1E-9"]


def test_policy_imports_nothing_from_pskmap():
    tree = ast.parse((PACKAGE / "tolerance.py").read_text(encoding="utf-8"))
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
