"""The README's Python examples run as written."""

import re
from pathlib import Path

import pytest

from mwlattice import set_backend

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block(index):
    try:
        exec(compile(BLOCKS[index], "README.md block %d" % index, "exec"), {})
    finally:
        set_backend(None)
