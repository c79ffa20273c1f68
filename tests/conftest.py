"""Fixtures shared by the test modules."""

import pytest

from mwlattice import matrices as mx


@pytest.fixture
def python_loops(monkeypatch):
    """The right operands that ``matrices.matmul`` multiplies as sums of
    Python products.  Only that route transposes inside a product, so a
    transpose made while a ``matmul`` call runs marks it; the list stays
    empty while every product runs as one int64 product."""
    loops, running = [], []
    matmul, transpose = mx.matmul, mx.transpose

    def product(a, b):
        running.append(b)
        try:
            return matmul(a, b)
        finally:
            running.pop()

    def transposed(m):
        if running:
            loops.append(m)
        return transpose(m)

    monkeypatch.setattr(mx, "matmul", product)
    monkeypatch.setattr(mx, "transpose", transposed)
    return loops
