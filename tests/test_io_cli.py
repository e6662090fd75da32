import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pskmap
import pskmap.connection as connection_module
from pskmap.catalog import ch1, four_dim_candidate, four_dim_example
from pskmap.cli import main
from pskmap.io import (
    ParseError,
    algebra_to_dict,
    load_algebra_file,
    parse_algebra,
    parse_template,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


class TestAlgebraFile:
    def test_round_trip(self, tmp_path):
        L, B = four_dim_example()
        cand = four_dim_candidate()
        obj = algebra_to_dict(L, B, labels=["a1", "a2", "b1", "b2"], candidate=cand)
        path = tmp_path / "round.json"
        path.write_text(json.dumps(obj))
        loaded = load_algebra_file(str(path))
        assert algebra_to_dict(loaded.L, loaded.B, labels=loaded.labels,
                               candidate=loaded.candidate) == obj

    def test_bad_indices_rejected(self):
        with pytest.raises(ParseError):
            parse_algebra({"n": 1, "brackets": [[2, 1, 1, 1.0]]})
        with pytest.raises(ParseError):
            parse_algebra({"n": 1, "brackets": [[1, 2, 5, 1.0]]})
        with pytest.raises(ParseError):
            parse_algebra({"n": 1, "candidate": {"Sa": [[1, 1, 2, 1.0]]}})

    def test_unsorted_candidate_triples_rejected(self):
        with pytest.raises(ParseError):
            parse_algebra({"n": 2, "candidate": {"Sa": [[2, 1, 1, 1.0]]}})

    def test_template_parsing(self):
        family, base = parse_template({"n": 1, "brackets": [[1, 2, 2, "-c"]]})
        L, B = family(2.0)
        ref, _ = ch1(2.0)
        assert L.brackets == ref.brackets

    def test_template_multipliers(self):
        family, _ = parse_template({"n": 1, "brackets": [[1, 2, 2, "2.5*c"]]})
        L, _ = family(2.0)
        assert L.brackets[0][3] == pytest.approx(5.0)
        with pytest.raises(ParseError):
            parse_template({"n": 1, "brackets": [[1, 2, 2, "q"]]})


def _malformed(edit):
    with open(fixture("four_dim.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    edit(obj)
    return obj


MALFORMED = {
    "labels_not_list": lambda o: o.__setitem__("labels", 5),
    "Sa_not_list": lambda o: o["candidate"].__setitem__("Sa", 7),
    "kappa_not_list": lambda o: o["candidate"].__setitem__("kappa", {"1": 0.5}),
    "bracket_too_large": lambda o: o["brackets"][0].__setitem__(3, 1e308),
    "bracket_nan": lambda o: o["brackets"][0].__setitem__(3, float("nan")),
    "bracket_bool": lambda o: o["brackets"][0].__setitem__(3, True),
    "kappa_inf": lambda o: o["candidate"]["kappa"][0].__setitem__(1, float("inf")),
    "tensor_string": lambda o: o["candidate"]["Sa"][0].__setitem__(3, "abc"),
    "n_bool": lambda o: o.__setitem__("n", True),
    "bracket_duplicate_row": lambda o: o["brackets"].append(list(o["brackets"][0])),
    "Sa_duplicate_triple": lambda o: o["candidate"]["Sa"].append([1, 1, 2, 5.0]),
    "Sb_duplicate_triple": lambda o: o["candidate"]["Sb"].extend([[1, 2, 2, 1.0],
                                                                  [1, 2, 2, 2.0]]),
    "kappa_duplicate_index": lambda o: o["candidate"]["kappa"].append([3, 0.5]),
}


@pytest.mark.parametrize("command", ["check", "cone-verify", "cmap", "solve"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_numbers_and_fields_exit_2(case, command, tmp_path, capsys):
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(_malformed(MALFORMED[case])))
    extra = ["--starts", "2", "--seed", "1"] if command == "solve" else []
    assert main([command, str(path)] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("rows", [
    [[1, 2, 2, "-c"], [1, 2, 2, -1.0]],       # a fixed and a parametric constant
    [[1, 2, 2, "-c"], [1, 2, 2, "2*c"]],      # two parametric constants
    [[1, 2, 2, -1.0], [1, 2, 2, -1.0], [1, 2, 2, "c"]],
], ids=["fixed_and_parametric", "two_parametric", "two_fixed"])
def test_template_duplicate_rows_exit_2(rows, tmp_path, capsys):
    path = tmp_path / "template.json"
    path.write_text(json.dumps({"n": 1, "brackets": rows}))
    assert main(["scan", str(path), "--values", "2.0", "--starts", "2", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "duplicate" in captured.err


class TestCLI:
    def test_check_worked_example(self, capsys):
        code = main(["check", fixture("four_dim.json")])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert max(out["results"]["residuals"].values()) < 1e-9

    def test_check_residual_failure(self, capsys):
        code = main(["check", fixture("ch1_c1.json")])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["results"]["residuals"]["w_pq"] == pytest.approx(3.0)

    def test_check_not_exact(self, capsys):
        code = main(["check", fixture("abelian_r2.json")])
        assert code == 3

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", str(bad)]) == 2

    def test_missing_candidate(self, tmp_path):
        path = tmp_path / "nocand.json"
        path.write_text(json.dumps({"n": 1, "brackets": [[1, 2, 2, -2.0]]}))
        assert main(["check", str(path)]) == 2

    def test_solve_ch1(self, capsys):
        code = main(["solve", fixture("ch1_c2.json"), "--seed", "1", "--starts", "8"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["status"] == "Solved"
        assert out["seed"] == 1

    def test_solve_infeasible(self, capsys):
        code = main(["solve", fixture("ch1_c1.json"), "--seed", "1", "--starts", "8"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["status"] == "LikelyInfeasible"

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("PSK_SEED", "7")
        main(["solve", fixture("ch1_c2.json"), "--starts", "4"])
        out = json.loads(capsys.readouterr().out)
        assert out["seed"] == 7

    def test_env_seed_not_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("PSK_SEED", "abc")
        code = main(["solve", fixture("ch1_c2.json"), "--starts", "4"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "PSK_SEED" in captured.err and "Traceback" not in captured.err
        assert main(["solve", fixture("ch1_c2.json"), "--starts", "4", "--seed", "3"]) == 0

    def test_scan_table(self, tmp_path, capsys):
        table = tmp_path / "scan.txt"
        code = main([
            "scan", fixture("ch1_family.json"), "--range", "1.8", "2.2",
            "--steps", "3", "--starts", "4", "--seed", "2", "--no-polish",
            "--table", str(table),
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(out["results"]["points"]) == 3
        lines = table.read_text().strip().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 4

    def test_scan_malformed_range(self, capsys):
        assert main(["scan", fixture("ch1_family.json"), "--range", "3", "1"]) == 2

    def test_cone_verify(self, capsys):
        code = main(["cone-verify", fixture("four_dim.json")])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert max(out["results"]["residuals"].values()) < 1e-9

    def test_cone_verify_flat(self, capsys):
        assert main(["cone-verify", fixture("ch1_c2.json")]) == 0

    def test_cone_verify_perturbed_kappa(self, tmp_path, capsys):
        with open(fixture("four_dim.json"), encoding="utf-8") as fh:
            obj = json.load(fh)
        obj["candidate"]["kappa"] = [[3, 1.0], [4, 0.5]]  # wrong scale on b1
        path = tmp_path / "bad_kappa.json"
        path.write_text(json.dumps(obj))
        code = main(["cone-verify", str(path)])
        assert code == 3  # d^2 != 0 on the cone: precondition

    def test_cmap_pipeline(self, tmp_path, capsys):
        out_path = tmp_path / "out.json"
        code = main(["cmap", fixture("four_dim.json"), "-o", str(out_path)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["results"]["dimension"] == 12
        assert report["results"]["completely_solvable"] is True
        reloaded = load_algebra_file(str(out_path))
        assert reloaded.L.dim == 12
        from pskmap.lie import jacobi_residual

        assert jacobi_residual(reloaded.L) < 1e-9

    def test_cmap_eight_dimensional(self, tmp_path, capsys):
        out_path = tmp_path / "out8.json"
        code = main(["cmap", fixture("ch1_c2.json"), "-o", str(out_path)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["results"]["dimension"] == 8

    def test_cmap_rejects_non_psk(self, capsys):
        assert main(["cmap", fixture("ch1_c1.json")]) == 4

    def test_solve_triple_product(self, capsys):
        code = main(["solve", fixture("ch1_cubed.json"), "--seed", "3",
                     "--starts", "12"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["status"] == "Solved"

    def test_reports_deterministic(self, capsys):
        args = ["solve", fixture("ch1_c2.json"), "--seed", "5", "--starts", "6"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second


@pytest.mark.parametrize("constant", [-1e6, -1e8, -1e10])
def test_cone_verify_rejects_kappa_of_large_constant(tmp_path, capsys, constant):
    # four_dim's kappa stops being a primitive once its first bracket
    # constant changes; check says so, and cone-verify must too, however
    # large the constant (d(d tau) is only linear in it).
    obj = json.loads(Path(fixture("four_dim.json")).read_text(encoding="utf-8"))
    obj["brackets"][0][3] = constant
    path = tmp_path / "four_dim_big.json"
    path.write_text(json.dumps(obj))
    assert main(["check", str(path)]) == 3
    capsys.readouterr()
    assert main(["cone-verify", str(path)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "Precondition"


def test_cli_runs_without_scipy():
    src = str(Path(pskmap.__file__).resolve().parents[1])
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from pskmap.cli import main\n"
            f"sys.exit(main(['check', {fixture('four_dim.json')!r}]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "ok"


def test_cmap_builds_levi_civita_once(monkeypatch, capsys):
    original = connection_module.levi_civita
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pskmap" and getattr(module, "levi_civita", None) is original:
            monkeypatch.setattr(module, "levi_civita", counted)
    assert main(["cmap", fixture("four_dim.json")]) == 0
    assert len(calls) == 1
