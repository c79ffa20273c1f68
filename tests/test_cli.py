"""End-to-end checks of the mwlat command-line interface.

Everything goes through main(argv) in-process except one subprocess
test that exercises the installed console script.
"""

import json
import shutil
import subprocess
import sys

import pytest

from mwlattice.cli import main
from mwlattice.poly import T, Y
from mwlattice.scenarios import scenario_to_json, scenario_trivial_mw
from mwlattice.serialize import poly_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_json(scenario_trivial_mw(1))))
    return str(path)


@pytest.fixture
def coeffs_file(tmp_path):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps({"genus": 1, "c": {"2,0": 1, "0,1": 1}}))
    return str(path)


def test_mw_text_trivial(capsys):
    code, out, err = run(capsys, "mw", "--trivial-scenario", "--g", "1")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert "MW group: trivial" in lines
    assert "identified: -" in lines
    assert any(line.startswith("model: genus 1, degree 1, rho 10") for line in lines)


def test_mw_text_all_irreducible(capsys):
    code, out, _ = run(capsys, "mw", "--all-irreducible", "--g", "1")
    assert code == 0
    lines = out.splitlines()
    assert "MW group: Z^8" in lines
    assert "identified: D_8^+ = E_8" in lines
    assert "MW rank by formula: 8" in lines


def test_mw_json_content_and_determinism(capsys):
    code, out1, _ = run(capsys, "mw", "--all-irreducible", "--g", "1",
                        "--report", "json")
    assert code == 0
    doc = json.loads(out1)
    assert doc["mw_group"] == {"free_rank": 8, "torsion": []}
    assert doc["rank_by_formula"] == 8
    assert doc["root_count"] == 240
    assert doc["identified"] == "D_8^+ = E_8"
    assert doc["mwl_rank"] == 8
    code, out2, _ = run(capsys, "mw", "--all-irreducible", "--g", "1",
                        "--report", "json")
    assert out1 == out2


def test_mw_scenario_file(capsys, scenario_file):
    code, out, _ = run(capsys, "mw", "--scenario", scenario_file)
    assert code == 0
    assert "MW group: trivial" in out.splitlines()


def test_mw_validation_failure_exits_1(capsys, tmp_path):
    doc = scenario_to_json(scenario_trivial_mw(1))
    doc["sections"] = [doc["fiber"]]  # fibre class is not a section
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "mw", "--scenario", str(path))
    assert code == 1
    assert any(line.startswith("FAIL section_0_") for line in out.splitlines())


def test_exit2_invalid_json(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{")
    code, _, err = run(capsys, "mw", "--scenario", str(path))
    assert code == 2
    assert "input error:" in err
    assert "not valid JSON: line" in err


def test_exit2_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "mw", "--scenario", str(tmp_path / "nope.json"))
    assert code == 2
    assert "cannot read" in err


def test_exit2_schema_violation(capsys, tmp_path):
    doc = scenario_to_json(scenario_trivial_mw(1))
    doc["genus"] = "one"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "mw", "--scenario", str(path))
    assert code == 2
    assert "bad scenario file" in err


@pytest.mark.parametrize("where", ["genus", "fiber"])
def test_exit2_json_boolean(capsys, tmp_path, where):
    # true == 1 in Python, so this document would otherwise run as g = 1
    doc = scenario_to_json(scenario_trivial_mw(1))
    if where == "genus":
        doc["genus"] = True
    else:
        doc["fiber"][0] = bool(doc["fiber"][0])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "mw", "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert "bad scenario file" in err
    assert "Traceback" not in err


def test_exit2_builtin_needs_genus(capsys):
    code, _, err = run(capsys, "mw", "--trivial-scenario")
    assert code == 2
    assert "--g is required" in err


def test_exit2_bad_builtin_genus(capsys):
    code, _, err = run(capsys, "mw", "--trivial-scenario", "--g", "0")
    assert code == 2
    assert "bad genus" in err


def test_exit2_negative_builtin_genus(capsys):
    code, _, err = run(capsys, "mw", "--all-irreducible", "--g", "-1")
    assert code == 2
    assert "genus must be at least 1" in err


def test_fiber_text(capsys):
    code, out, _ = run(capsys, "fiber", "--trivial-scenario", "--g", "1")
    assert code == 0
    assert "fiber 0: 9 components" in out
    assert "TrivializingFiber(g=1)" in out


def test_fiber_json(capsys):
    code, out, _ = run(capsys, "fiber", "--trivial-scenario", "--g", "2",
                       "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["fibers"][0]["components"] == 13
    assert doc["fibers"][0]["shape"] == "TrivializingFiber(g=2)"
    assert doc["fibers"][0]["multiplicities"][-3:] == [6, 5, 2]


def test_fiber_none_declared(capsys):
    code, out, _ = run(capsys, "fiber", "--all-irreducible", "--g", "1")
    assert code == 0
    assert "no reducible fibres declared" in out


def test_pencil_disc_text(capsys, coeffs_file):
    code, out, _ = run(capsys, "pencil", "disc", "--coeffs", coeffs_file)
    assert code == 0
    assert "contact order at origin: 3" in out
    assert "decomposition: 1 * t^1 * y^1" in out


def test_pencil_disc_json_frozen_branch(capsys, coeffs_file):
    code, out, _ = run(capsys, "pencil", "disc", "--coeffs", coeffs_file,
                       "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["branch"] == poly_to_json(4 * Y ** 3 - 4 * T)
    assert doc["contact_order"] == 3
    assert (doc["t_exponent"], doc["y_exponent"], doc["unit"]) == (1, 1, 1)


def test_pencil_disc_random_deterministic(capsys):
    args = ("pencil", "disc", "--random", "--g", "2", "--seed", "11",
            "--report", "json")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_pencil_disc_needs_source(capsys):
    code, _, err = run(capsys, "pencil", "disc")
    assert code == 2
    assert "provide --coeffs FILE or --random --seed N" in err


def test_pencil_ade(capsys, tmp_path):
    path = tmp_path / "germ.json"
    path.write_text(json.dumps(poly_to_json(T * T + Y ** 3)))
    code, out, _ = run(capsys, "pencil", "ade", "--germ", str(path))
    assert code == 0
    assert "classification: A(2)" in out


def test_pencil_ade_budget(capsys, tmp_path):
    path = tmp_path / "germ.json"
    path.write_text(json.dumps(poly_to_json(T * T + T * Y ** 3)))
    code, out, _ = run(capsys, "pencil", "ade", "--germ", str(path),
                       "--max-steps", "0", "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "Unresolved"
    assert doc["detail"] == "no verdict within 0 coordinate changes"


def test_pencil_ade_negative_budget(capsys, tmp_path):
    path = tmp_path / "germ.json"
    path.write_text(json.dumps(poly_to_json(T * T + T * Y ** 3)))
    code, out, err = run(capsys, "pencil", "ade", "--germ", str(path),
                         "--max-steps", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ")
    assert "max_steps must be nonnegative, got -1" in err


def test_pencil_ade_bad_germ(capsys, tmp_path):
    path = tmp_path / "germ.json"
    path.write_text(json.dumps([{"exp": [0, 2, 0, 0], "coef": 1}]))
    code, _, err = run(capsys, "pencil", "ade", "--germ", str(path))
    assert code == 2
    assert "bad germ" in err


def test_pencil_ade_boolean_exponent(capsys, tmp_path):
    path = tmp_path / "germ.json"
    path.write_text(json.dumps([{"exp": [True, 0, 1, 0], "coef": 1}]))
    code, out, err = run(capsys, "pencil", "ade", "--germ", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ")
    assert "'exp' must be four nonnegative integers" in err


def test_pencil_transfer(capsys, coeffs_file):
    code, out, _ = run(capsys, "pencil", "transfer", "--coeffs", coeffs_file)
    assert code == 0
    assert "b1: [0, 0, 0]" in out
    code, out, _ = run(capsys, "pencil", "transfer", "--coeffs", coeffs_file,
                       "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["b0"], doc["b10"], doc["b1"]) == (4, -4, [0, 0, 0])
    assert doc["psi"]  # nonempty psi expansion


def test_export_dot_stdout(capsys):
    code, out, _ = run(capsys, "export", "--trivial-scenario", "--g", "1",
                       "--dot")
    assert code == 0
    assert out.startswith('graph "trivial-mw-g1_fiber0" {')
    assert 'label="Theta0: m=1, s=-2"' in out
    assert out.rstrip().endswith("}")


def test_export_dot_file(capsys, tmp_path):
    target = tmp_path / "graph.dot"
    code, out, _ = run(capsys, "export", "--trivial-scenario", "--g", "1",
                       "--dot", "--fiber", "0", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith('graph "trivial-mw-g1_fiber0" {')


def test_export_unwritable_out(capsys, tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "graph.dot"
    code, out, err = run(capsys, "export", "--trivial-scenario", "--g", "1",
                         "--dot", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("input error: cannot write %s: " % target)
    assert "Traceback" not in err


def test_export_fiber_out_of_range(capsys):
    code, _, err = run(capsys, "export", "--trivial-scenario", "--g", "1",
                       "--dot", "--fiber", "3")
    assert code == 2
    assert "fiber index 3 out of range" in err


def test_export_without_reducible_fibres(capsys):
    code, _, err = run(capsys, "export", "--all-irreducible", "--g", "1",
                       "--dot")
    assert code == 2
    assert "no reducible fibres" in err


def _scenario_with_fibers(tmp_path, *fibers):
    """A g = 1, d = 1 scenario file whose fibres list E_i - E_j components."""
    doc = scenario_to_json(scenario_trivial_mw(1))
    n = doc["n"]

    def e_diff(i, j):
        coeffs = [0] * (n + 2)
        coeffs[1 + i], coeffs[1 + j] = -1, 1
        return coeffs

    doc["fibers"] = [
        {"components": [e_diff(i, j) for i, j in fib]} for fib in fibers
    ]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_export_invalid_fibre_exits_1(tmp_path):
    path = _scenario_with_fibers(tmp_path, [(1, 2), (1, 2)])
    proc = subprocess.run(
        [sys.executable, "-m", "mwlattice", "export", "--scenario", path,
         "--dot"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.splitlines()
    assert "FAIL fiber_0_multiplicities: components are linearly dependent" in lines
    assert any(line.startswith("FAIL fiber_0_dual_graph: ") for line in lines)


def test_mw_meeting_fibres_exit_1(capsys, tmp_path):
    path = _scenario_with_fibers(tmp_path, [(1, 2)], [(2, 3)])
    code, out, err = run(capsys, "mw", "--scenario", path)
    assert code == 1
    assert err == ""
    assert any(line.startswith("FAIL fibers_0_1_disjoint: ")
               for line in out.splitlines())


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify-all", "--g", "1", "--seed", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "11/11 criteria passed"
    assert all(line.startswith("PASS ") for line in lines[:-1])


def test_verify_all_json_deterministic(capsys):
    args = ("verify-all", "--g", "1", "--seed", "3", "--report", "json")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    doc = json.loads(out1)
    assert len(doc) == 11
    assert all(entry["passed"] for entry in doc)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_all_bad_range(capsys):
    code, _, err = run(capsys, "verify-all", "--g", "two", "--seed", "0")
    assert code == 2
    assert "bad genus range" in err
    code, _, err = run(capsys, "verify-all", "--g", "0..2", "--seed", "0")
    assert code == 2
    assert "genera must be positive" in err
    code, out, err = run(capsys, "verify-all", "--g", "3..1", "--seed", "0")
    assert code == 2
    assert out == ""
    assert err == "input error: empty genus range '3..1'\n"


def test_verify_all_beyond_frozen_genera(capsys):
    # D_20^+ and D_24^+; the box oracle is skipped above ORACLE_RANK_LIMIT
    code, out, _ = run(capsys, "verify-all", "--g", "4..5", "--seed", "0")
    assert code == 0, out
    assert out.splitlines()[-1] == "11/11 criteria passed"


def test_verify_all_at_genus_6_to_8(capsys):
    # D_28^+ .. D_36^+, in about a second
    code, out, _ = run(capsys, "verify-all", "--g", "6..8", "--seed", "0")
    assert code == 0, out
    assert out.splitlines()[-1] == "11/11 criteria passed"


def test_console_script():
    exe = shutil.which("mwlat")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run(
        [exe, "mw", "--trivial-scenario", "--g", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "MW group: trivial" in proc.stdout


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "mwlattice", "pencil", "transfer",
         "--random", "--g", "1", "--seed", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "b0" in proc.stdout
