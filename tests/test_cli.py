"""End-to-end checks of the mwlat command-line interface.

Everything goes through main(argv) in-process except one subprocess
test that exercises the installed console script.
"""

import hashlib
import json
import re
import shutil
import signal
import subprocess
import sys
from contextlib import contextmanager

import pytest

from mwlattice import fibers
from mwlattice.catalog import build_catalog, catalog_entry
from mwlattice.cli import _MAX_GENUS, main
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


@pytest.mark.parametrize("text, message", [
    ('{"genus": 1, "c": {"2,0": 1, "0,1": 1, "1,1": 3, "01,1": 4}}',
     "coefficient key '01,1' is not 'i,j'"),
    ('{"genus": 1, "c": {"2,0": 1, "0,1": 1, "1,1": 3, "1,1": 4}}',
     "repeats the key '1,1'"),
], ids=["leading-zero", "repeated"])
@pytest.mark.parametrize("command", ["disc", "transfer"])
def test_exit2_coefficient_key_naming_an_index_twice(capsys, tmp_path, text, message, command):
    # both files read as c_{1,1} = 4 before, the 3 dropped silently
    path = tmp_path / "coeffs.json"
    path.write_text(text)
    code, out, err = run(capsys, "pencil", command, "--coeffs", str(path))
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err


BAD_JSON = {
    # Python refuses to parse an int of more than 4,300 digits
    "long-int": (b'{"genus": 1' + b"0" * 5000 + b', "c": {}}', "is not readable JSON: "),
    # deeper than the decoder's recursion limit
    "deep": (b"[" * 100000, "is not readable JSON: "),
    # a UTF-16 byte order mark is not UTF-8
    "utf16-bom": (b"\xff\xfe{}", "is not readable JSON: "),
    # already an input error: reported as it is, not wrapped again
    "repeated-key": (b'{"a": 1, "a": 2}', "repeats the key 'a'\n"),
}


@pytest.mark.parametrize("doc", BAD_JSON)
@pytest.mark.parametrize("reader", [("mw", "--scenario"), ("pencil", "disc", "--coeffs"),
                                    ("pencil", "ade", "--germ")], ids=["mw", "disc", "ade"])
def test_exit2_unreadable_json(capsys, tmp_path, doc, reader):
    data, message = BAD_JSON[doc]
    path = tmp_path / "input.json"
    path.write_bytes(data)
    code, out, err = run(capsys, *reader, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("input error: %s %s" % (path, message))
    assert "Traceback" not in err


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


HUGE_GENUS = str(10 ** 30)


def run_within(seconds, capsys, *argv):
    """``run``, failing with TimeoutError if it takes longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError("mwlat %s ran over %s s" % (" ".join(argv), seconds))

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return run(capsys, *argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "argv",
    [
        ("pencil", "transfer", "--coeffs", "{huge}"),
        ("pencil", "disc", "--random", "--g", HUGE_GENUS, "--seed", "0"),
        ("pencil", "transfer", "--random", "--g", HUGE_GENUS, "--seed", "0"),
        ("mw", "--all-irreducible", "--g", HUGE_GENUS),
        ("fiber", "--trivial-scenario", "--g", HUGE_GENUS),
        ("export", "--dot", "--all-irreducible", "--g", HUGE_GENUS),
        ("verify-all", "--g", "1.." + HUGE_GENUS, "--seed", "0"),
        ("verify-all", "--g", HUGE_GENUS, "--seed", "0"),
    ],
    ids=["transfer-coeffs", "disc-random", "transfer-random", "mw", "fiber",
         "export", "verify-all-range", "verify-all"],
)
def test_huge_genus_is_refused_at_once(capsys, tmp_path, argv):
    # Each of these would build O(g) coefficients or a (4g+6)^2 form.
    huge = tmp_path / "huge.json"
    huge.write_text('{"genus": %s, "c": {"2,0": 1, "0,1": 1}}' % HUGE_GENUS)
    argv = [str(huge) if arg == "{huge}" else arg for arg in argv]
    code, out, err = run_within(1.0, capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "input error: genus %s is above the largest supported genus %d\n" % (
        HUGE_GENUS, _MAX_GENUS)


def test_genus_bound_edges(capsys):
    # The bound admits g = 14, the maximal lattice D_60^+.
    assert _MAX_GENUS >= 14
    code, out, _ = run(capsys, "pencil", "transfer", "--random", "--g", str(_MAX_GENUS),
                       "--seed", "0")
    assert code == 0
    assert out.startswith("genus: %d\n" % _MAX_GENUS)
    code, _, err = run(capsys, "pencil", "disc", "--random", "--g", str(_MAX_GENUS + 1),
                       "--seed", "0")
    assert code == 2
    assert "above the largest supported genus" in err
    code, _, err = run(capsys, "verify-all", "--g", "1..%d" % (_MAX_GENUS + 1), "--seed", "0")
    assert code == 2
    assert "above the largest supported genus" in err


def test_disc_from_coefficients_takes_any_genus(capsys, tmp_path):
    # Its work follows the file's entries, not the genus.
    huge = tmp_path / "huge.json"
    huge.write_text('{"genus": %s, "c": {"2,0": 1, "0,1": 1}}' % HUGE_GENUS)
    code, out, _ = run_within(5.0, capsys, "pencil", "disc", "--coeffs", str(huge))
    assert code == 0
    assert out.startswith("genus: %s\n" % HUGE_GENUS)


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


def _catalog_file(tmp_path, name):
    path = tmp_path / ("%s.json" % name)
    path.write_text(json.dumps(scenario_to_json(catalog_entry(name).scenario)))
    return str(path)


def test_fiber_and_export_of_catalog_files_are_pinned(capsys, tmp_path):
    # fiber (text and JSON) and export --dot, of every fibre and of each one,
    # on each catalog scenario read from a file
    outputs = []
    for entry in build_catalog():
        path = _catalog_file(tmp_path, entry.name)
        runs = [("fiber",), ("fiber", "--report", "json"), ("export", "--dot")]
        runs += [("export", "--dot", "--fiber", str(k)) for k in range(len(entry.scenario.fibers))]
        for command, *options in runs:
            code, out, err = run(capsys, command, "--scenario", path, *options)
            outputs.append("%s %s: %d\n%s%s" % (entry.name, " ".join(options), code, out, err))
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
    assert digest == "ab71fc2183395db992d4cad18cc0dc5cfb73bb577512d91334bbe8fcb1d2e1b7"


@pytest.fixture
def fibre_derivations(monkeypatch):
    """Calls of fibers.dual_graph and fibers.fiber_multiplicities, counted
    in every module that holds them, as the benchmark's tracer patches them."""
    counts = {"dual_graph": 0, "fiber_multiplicities": 0}
    modules = [mod for key, mod in sys.modules.items() if key.split(".")[0] == "mwlattice"]
    for name in counts:
        original = getattr(fibers, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return counts


@pytest.mark.parametrize("source", ["1", "2", "3", "g1-two-fibers"],
                         ids=["trivial-g1", "trivial-g2", "trivial-g3", "g1-two-fibers"])
@pytest.mark.parametrize("command", [("fiber",), ("export", "--dot")], ids=["fiber", "export"])
def test_fibre_data_is_derived_once(capsys, tmp_path, fibre_derivations, command, source):
    # validation derives each fibre's dual graph and multiplicities; the
    # command prints from them
    if source.isdigit():
        argv, count = ("--trivial-scenario", "--g", source), 1
    else:
        argv, count = ("--scenario", _catalog_file(tmp_path, source)), 2
    code, out, _ = run(capsys, command[0], *argv, *command[1:])
    assert code == 0, out
    assert fibre_derivations == {"dual_graph": count, "fiber_multiplicities": count}


@contextmanager
def no_digit_limit():
    """Python's limit on int/str conversions lifted."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _huge_fibre_class():
    doc = scenario_to_json(scenario_trivial_mw(1))
    doc["fiber"][0] = int("7" * 3001)  # F.F has 6,002 digits
    return doc


# c_{1,1} has 4,300 digits, the most the reader takes; results have more
_LONG_COEFFICIENT = {"genus": 1, "c": {"2,0": 1, "0,1": 1, "1,1": "9" * 4300}}

PAST_THE_DIGIT_LIMIT = {
    # validation fails, and its FAIL lines give every number in full
    "mw": (("mw", "--scenario"), _huge_fibre_class(), 1),
    "fiber": (("fiber", "--scenario"), _huge_fibre_class(), 1),
    "export": (("export", "--dot", "--scenario"), _huge_fibre_class(), 1),
    "disc": (("pencil", "disc", "--coeffs"), _LONG_COEFFICIENT, 0),
    "transfer": (("pencil", "transfer", "--report", "json", "--coeffs"), _LONG_COEFFICIENT, 0),
}


@pytest.mark.parametrize("case", PAST_THE_DIGIT_LIMIT)
def test_results_past_the_digit_limit_are_written_exactly(capsys, tmp_path, case):
    argv, doc, expected_code = PAST_THE_DIGIT_LIMIT[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *argv, str(path))
    assert (code, err) == (expected_code, "")
    assert sys.get_int_max_str_digits() == limit  # main puts the limit back
    assert max(map(len, re.findall(r"[0-9]+", out))) > 4300
    with no_digit_limit():
        assert run(capsys, *argv, str(path)) == (code, out, err)


@pytest.mark.parametrize("reader, doc", [
    (("pencil", "disc", "--coeffs"), {"genus": 1, "c": {"2,0": 1, "0,1": "1e5000"}}),
    (("pencil", "ade", "--germ"), [{"exp": [2, 0, 0, 0], "coef": "1e5000"},
                                   {"exp": [0, 0, 3, 0], "coef": -1}]),
], ids=["disc", "ade"])
def test_exit2_rational_in_exponent_form(capsys, tmp_path, reader, doc):
    # a rational string is "p" or "p/q"; Fraction read "1e5000" as 10^5000
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *reader, str(path))
    assert code == 2
    assert out == ""
    assert "bad rational '1e5000': expected 'p' or 'p/q'" in err
    assert "Traceback" not in err


_LONG = 1_000_001

LONG_INPUT_STRINGS = {
    "rational": '{"genus": 1, "c": {"2,0": 1, "0,1": "%s"}}' % ("a" * _LONG),
    "zero-denominator": '{"genus": 1, "c": {"2,0": 1, "0,1": "1/%s"}}' % ("0" * 4000),
    "key": '{"genus": 1, "c": {"2,0": 1, "0,1": 1, "%s": 1}}' % ("x" * _LONG),
    "repeated-key": '{"%s": 1, "%s": 2}' % ("k" * _LONG, "k" * _LONG),
}


@pytest.mark.parametrize("case", LONG_INPUT_STRINGS)
def test_exit2_long_input_string_is_quoted_in_part(capsys, tmp_path, case):
    # a message quotes the first 40 characters and the length, not the whole string
    path = tmp_path / "coeffs.json"
    path.write_text(LONG_INPUT_STRINGS[case])
    code, out, err = run(capsys, "pencil", "disc", "--coeffs", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert len(err.encode()) - len(str(path)) < 300
    assert "characters)" in err


PAST_THE_INPUT_LIMIT = {
    "coefficient-key": (json.dumps({"genus": 1, "c": {"2,0": 1, "0,1": 1, "1," + "1" * 4400: 1}}),
                        "coefficient key: an integer of 4,400 digits"),
    "rational": (json.dumps({"genus": 1, "c": {"2,0": 1, "0,1": "1/" + "7" * 4301}}),
                 "bad rational: an integer of 4,301 digits"),
    "json-integer": ('{"genus": %s, "c": {}}' % ("1" * 5000),
                     "is not readable JSON: an integer of 5,000 digits"),
}


@pytest.mark.parametrize("case", PAST_THE_INPUT_LIMIT)
def test_exit2_integer_past_the_input_limit_names_the_limit(capsys, tmp_path, case):
    # Python's own advice, sys.set_int_max_str_digits(), is no use on the command line
    text, message = PAST_THE_INPUT_LIMIT[case]
    path = tmp_path / "coeffs.json"
    path.write_text(text)
    code, out, err = run(capsys, "pencil", "disc", "--coeffs", str(path))
    assert (code, out) == (2, "")
    assert message + " is past the 4,300-digit input limit\n" in err
    assert "set_int_max_str_digits" not in err


# sha256 over the stdout of `pencil disc` and `pencil transfer`, both with
# --report json, for --random --seed 0..2 at g = 1..8 and the genus cap 32,
# in that order; as written before the pencil builders took the kernel's
# trusted path
PENCIL_REPORTS_SHA256 = "1dfa1937a4e53fc2bff8f47417c1030446dbfc7b81b2899a943d38d8aea127bc"


def test_pencil_reports_are_pinned_up_to_the_genus_cap(capsys):
    h = hashlib.sha256()
    for g in (*range(1, 9), _MAX_GENUS):
        for seed in range(3):
            for command in ("disc", "transfer"):
                code, out, err = run(capsys, "pencil", command, "--random", "--g", str(g),
                                     "--seed", str(seed), "--report", "json")
                assert (code, err) == (0, "")
                h.update(out.encode())
    assert h.hexdigest() == PENCIL_REPORTS_SHA256


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
