"""One rule for the numbers the polynomial half of the package is given.

Polynomials, pencils, double covers, divisor classes, germs and the ambient
rank of ``lattice.cokernel_invariants`` read every number through
``matrices._exact`` and ``matrices._integer``, the gate the lattice half
uses (``tests/test_lattice.py::ENTRY_POLICY``): an int, a numpy integer or,
where a rational is wanted, a Fraction.  A bool, float, string
or Decimal is a TypeError with the module's message, and a numpy integer
gives the answer the Python int gives.
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from mwlattice.ade import classify_ade_germ
from mwlattice.lattice import cokernel_invariants
from mwlattice.pencil import DoubleCoverCoefficients, PencilCoefficients
from mwlattice.poly import T, Y, SparsePoly
from mwlattice.surface import SurfaceModel, exceptional

COERCE = r"^cannot coerce .* to SparsePoly$"
INTEGER = r"^expected an integer, got "
EXPONENT = r"^bad exponent vector "
MODEL = SurfaceModel(1, 8, 1)
PENCIL = PencilCoefficients(1, ((2, 0, 3), (2, 1, 5), (1, 1, 7), (0, 1, 1)))

# name -> (call taking the number, the error a bad number raises, its message);
# each call gives an answer for the int 2
NUMBER_RULE = {
    "SparsePoly": (lambda v: SparsePoly({(1, 0, 0, 0): v}), TypeError, COERCE),
    "const": (lambda v: SparsePoly.const(v), TypeError, COERCE),
    "monomial": (lambda v: SparsePoly.monomial(v, x=1), TypeError, COERCE),
    "substitute_value": (lambda v: (T * T + Y).substitute("t", v), TypeError, COERCE),
    "add": (lambda v: T + v, TypeError, COERCE),
    "radd": (lambda v: v + T, TypeError, COERCE),
    "sub": (lambda v: T - v, TypeError, COERCE),
    "mul": (lambda v: T * v, TypeError, COERCE),
    "PencilCoefficients": (lambda v: PencilCoefficients(1, ((2, 0, v), (0, 1, 1))),
                           TypeError, COERCE),
    "DoubleCoverCoefficients": (lambda v: DoubleCoverCoefficients(1, v, 1, (1, 1, 1)),
                                TypeError, COERCE),
    "DoubleCoverCoefficients.b1": (lambda v: DoubleCoverCoefficients(1, 1, 1, (1, v, 1)),
                                   TypeError, COERCE),
    # the multiplier returns NotImplemented, so the message is Python's
    "divisor multiplier": (lambda v: exceptional(MODEL, 1) * v, TypeError,
                           "^unsupported operand|^can't multiply sequence"),
    "exponent": (lambda v: SparsePoly({(v, 0, 0, 0): 1}), ValueError, EXPONENT),
    "monomial power": (lambda v: SparsePoly.monomial(1, x=v), ValueError, EXPONENT),
    "coefficient": (lambda v: (T * T * Y).coefficient("t", v), TypeError, INTEGER),
    "term": (lambda v: (T * T * Y).term(t=v, y=1), TypeError, INTEGER),
    "pow": (lambda v: (T + Y) ** v, TypeError, INTEGER),
    "exceptional": (lambda v: exceptional(MODEL, v), TypeError, INTEGER),
    "max_steps": (lambda v: classify_ade_germ((T + Y) ** 2 + Y ** 5, max_steps=v),
                  TypeError, INTEGER),
    "PencilCoefficients.coefficient": (lambda v: PENCIL.coefficient(v, 0), TypeError, INTEGER),
    "PencilCoefficients.row": (lambda v: PENCIL.row(v), TypeError, INTEGER),
    "pencil genus": (lambda v: PencilCoefficients(v, ((2, 0, 1), (0, 1, 1))), TypeError, INTEGER),
    "double cover genus": (lambda v: DoubleCoverCoefficients(v, 1, 1, (1,) * 5),
                           TypeError, INTEGER),
    "cokernel_invariants rank": (lambda v: cokernel_invariants(((1, 0),), v), TypeError, INTEGER),
}

BAD = [True, False, 2.0, "2", Decimal(2)]


@pytest.mark.parametrize("entry", NUMBER_RULE)
@pytest.mark.parametrize("bad", BAD, ids=["True", "False", "float", "str", "Decimal"])
def test_only_exact_numbers_pass(entry, bad):
    # T * True was t, T ** 2.0 a bare '&' error, and classify_ade_germ took
    # max_steps=True.
    call, error, message = NUMBER_RULE[entry]
    with pytest.raises(error, match=message):
        call(bad)


@pytest.mark.parametrize("entry", NUMBER_RULE)
def test_numpy_integers_give_the_int_answer(entry):
    # repr, so that a numpy integer left in the answer would show
    call = NUMBER_RULE[entry][0]
    assert repr(call(np.int64(2))) == repr(call(2))


@pytest.mark.parametrize("value, equal", [
    (1, True), (np.int64(1), True), (Fraction(1), True), (True, False),
    (1.0, False), ("1", False), (Decimal(1), False), (None, False), (2, False),
])
def test_equality_uses_the_same_rule(value, equal):
    # SparsePoly.const(1) == True held; a value the ring refuses is unequal
    one = SparsePoly.const(1)
    assert (one == value) is equal
    assert (one != value) is not equal


@pytest.mark.parametrize("entry", NUMBER_RULE)
def test_a_fraction_passes_only_where_a_rational_is_wanted(entry):
    call, error, message = NUMBER_RULE[entry]
    if message == COERCE:
        assert repr(call(Fraction(2))) == repr(call(2))
    else:
        with pytest.raises(error, match=message):
            call(Fraction(2))
