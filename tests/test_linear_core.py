"""The sparse linear-combination arithmetic shared by the three element
types: free-algebra elements, operator elements and indexed elements."""

from fractions import Fraction
from types import MappingProxyType

import pytest

from derivalg import (
    AlgebraError,
    Element,
    EnvElement,
    EnvGenerator,
    IndexedElement,
    Signature,
    builtin,
    generator,
    node,
)

S21 = Signature(2, True, False, 1)
S22 = Signature(2, True, False, 2)
X1 = generator(1)
X11 = node([X1, X1])
U1 = EnvGenerator(S21, [X1])
U11 = EnvGenerator(S21, [X11])


class Ratio(Fraction):
    """A ``Fraction`` subclass; coefficients must still come out as ``Fraction``."""


# (type, parent, another parent, keys in the type's documented term order)
CASES = {
    # increasing word order
    "element": (Element, S21, S22, [X1, X11, node([X11, X1])]),
    # product length first, then factor by factor
    "env": (EnvElement, S21, S22, [(), (U1,), (U11,), (U1, U1)]),
    # increasing index
    "indexed": (IndexedElement, builtin("witt1"), builtin("leibniz_der"), [0, 2, 5]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_shared_arithmetic(case):
    cls, parent, other_parent, keys = CASES[case]
    k0, k1, k2 = keys[0], keys[1], keys[-1]
    zero = cls.zero(parent)
    a = cls(parent, {k0: 2, k2: -3})
    b = cls(parent, [(k1, 1), (k2, 5)])

    assert (a - a).is_zero and a - a == zero
    assert a.scale(0).is_zero and a.scale(0) == zero
    assert not zero and len(a) == 2 and a.coeff(k2) == -3 and a.coeff(k1) == 0

    cancelled = cls(parent, [(k0, 2), (k1, 7), (k0, -2)])
    assert cancelled.terms == ((k1, 7),)

    assert (a + b) - b == a
    assert a / 2 * 2 == a
    assert -a == a.scale(-1) == (-1) * a

    same = cls(parent, [(k2, -3), (k0, 1), (k0, 1)])
    assert same == a and hash(same) == hash(a)
    assert cls(parent, MappingProxyType({k0: 2, k2: -3})) == a

    for c in (3, True, Fraction(1, 2), Ratio(3, 4)):
        for x in (cls(parent, [(k0, c)]), cls(parent, {k0: c, k1: c})):
            assert x.terms and all(type(v) is Fraction and v == c for _, v in x.terms)

    full = cls(parent, [(k, i + 1) for i, k in enumerate(reversed(keys))])
    assert [k for k, _ in full.terms] == keys
    assert list(full) == list(full.terms)

    foreign = cls(other_parent, [(k0, 1)])
    assert foreign != cls(parent, [(k0, 1)])
    with pytest.raises(AlgebraError):
        a + foreign
    with pytest.raises(AlgebraError):
        a - foreign


def test_element_types_never_equal_each_other():
    assert Element.zero(S21) != EnvElement.zero(S21)
    assert EnvElement.zero(S21) != Element.zero(S21)
    assert Element.from_word(S21, X1) != EnvElement.one(S21)
    assert not isinstance(EnvElement.zero(S21), Element)
    assert not isinstance(IndexedElement.zero(builtin("witt1")), Element)
