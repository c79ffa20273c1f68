"""The README's Python and command-line examples run as written."""

import json
import re
import shlex
from pathlib import Path

import pytest

from mwlattice import set_backend
from mwlattice.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"```python\n(.*?)```", TEXT, re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block(index):
    try:
        exec(compile(BLOCKS[index], "README.md block %d" % index, "exec"), {})
    finally:
        set_backend(None)


def _shell_examples():
    """The `mwlat` lines of the README's command-line block."""
    block = next(b for b in re.findall(r"```sh\n(.*?)```", TEXT, re.S) if "mwlat mw" in b)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("mwlat ")]


SHELL_EXAMPLES = [argv for argv in _shell_examples() if argv[0] != "verify-all"]


def test_readme_has_shell_examples():
    # verify-all is left out here: tests/test_acceptance.py runs the battery
    assert len(SHELL_EXAMPLES) == len(_shell_examples()) - 1


@pytest.mark.parametrize("argv", SHELL_EXAMPLES, ids=[" ".join(a) for a in SHELL_EXAMPLES])
def test_readme_shell_example(argv, tmp_path, monkeypatch, capsys):
    """Each example runs on the README's own JSON inputs and exits 0."""
    docs = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", TEXT, re.S)]
    inputs = {
        "scenario.json": next(d for d in docs if isinstance(d, dict) and "fibers" in d),
        "coeffs.json": next(d for d in docs if isinstance(d, dict) and "c" in d),
        "germ.json": next(d for d in docs if isinstance(d, list)),
    }
    for name, doc in inputs.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if "--out" in argv:
        assert (tmp_path / argv[argv.index("--out") + 1]).read_text().startswith("graph ")
    else:
        assert out
