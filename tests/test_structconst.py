from fractions import Fraction
from math import factorial

import pytest

from derivalg.freealg import AlgebraError, Signature, generators
from derivalg.structconst import (
    Counterexample,
    IndexedAlgebra,
    IndexedElement,
    builtin,
    check_identity,
    derivation_of_power,
    evaluate,
    jacobi_identity,
    left_symmetric_identity,
    named_identity,
    novikov_identity,
)
from derivalg.varieties import Identity


def test_builtin_names():
    assert builtin("witt1").min_index == -1
    assert builtin("leibniz_der").min_index == 0
    assert builtin("dual_leibniz_der").min_index == 0
    assert builtin("dual_leibniz_alg").min_index == 1
    assert builtin("witt1_mary(4)").modulus == 3
    assert builtin("witt1") is builtin("witt1")
    with pytest.raises(AlgebraError):
        builtin("witt2")
    with pytest.raises(AlgebraError):
        builtin("witt1_mary(2)")


def test_pinned_products():
    w = builtin("witt1")
    assert w.basis(1) * w.basis(1) == 2 * w.basis(2)
    assert w.basis(0) * w.basis(0) == w.basis(0)
    assert (w.basis(1) * w.basis(-1)).is_zero

    f = builtin("leibniz_der")
    assert f.basis(0) * f.basis(2) == 3 * f.basis(2)
    assert f.basis(1) * f.basis(2) == f.basis(3)

    g = builtin("dual_leibniz_der")
    assert g.basis(1) * g.basis(2) == 3 * g.basis(3)

    c = builtin("dual_leibniz_alg")
    assert c.basis(2) * c.basis(3) == 4 * c.basis(5)


def test_index_validation():
    w = builtin("witt1")
    with pytest.raises(AlgebraError):
        w.basis(-2)
    wm = builtin("witt1_mary(3)")
    assert wm.indices(0, 8) == [0, 2, 4, 6, 8]
    with pytest.raises(AlgebraError):
        wm.basis(3)
    with pytest.raises(AlgebraError):
        IndexedElement(wm, {1: 1})


def test_element_arithmetic_and_printing():
    f = builtin("leibniz_der")
    a = f.basis(0) - 2 * f.basis(3)
    assert a.coeff(3) == -2
    assert (a - a).is_zero
    assert a / 2 == f.basis(0).scale(Fraction(1, 2)) - f.basis(3)
    assert str(a) == "f0 - 2*f3"
    w = builtin("witt1")
    assert str(w.basis(-1)) == "e-1"
    c = builtin("dual_leibniz_alg")
    assert str(c.basis(3).scale(Fraction(3, 2))) == "3/2*x^3"
    with pytest.raises(AlgebraError):
        a + w.basis(0)


def test_product_helper_checks_algebra():
    w = builtin("witt1")
    f = builtin("leibniz_der")
    assert w.basis(1) * w.basis(2) == 3 * w.basis(3)
    with pytest.raises(AlgebraError):
        f.basis(1) * w.basis(2)


def test_rule_is_graded():
    bad = IndexedAlgebra("bad", "b", lambda s, t: [(1, s + t + 1)], 0)
    with pytest.raises(AlgebraError):
        bad.basis(1) * bad.basis(1)


def test_witt_identities_over_window():
    w = builtin("witt1")
    assert check_identity(w, left_symmetric_identity(), -1, 12) is None
    assert check_identity(w, novikov_identity(), -1, 12) is None
    assert check_identity(w, jacobi_identity(), -1, 10) is None


def test_leibniz_derivations_fail_novikov():
    f = builtin("leibniz_der")
    assert check_identity(f, left_symmetric_identity(), 0, 8) is None
    ce = check_identity(f, novikov_identity(), 0, 8)
    assert isinstance(ce, Counterexample)
    assert ce.indices == (0, 1, 2)
    # (f0 f1) f2 = 2 f3 while (f0 f2) f1 = 3 f3
    assert (f.basis(0) * f.basis(1)) * f.basis(2) == 2 * f.basis(3)
    assert (f.basis(0) * f.basis(2)) * f.basis(1) == 3 * f.basis(3)
    assert ce.defect == -f.basis(3)
    assert "f0, f1, f2" in str(ce)


def test_dual_leibniz_derivations_left_symmetric():
    g = builtin("dual_leibniz_der")
    assert check_identity(g, left_symmetric_identity(), 0, 12) is None


def test_mary_restriction_closes():
    wm = builtin("witt1_mary(3)")
    for s in wm.indices(0, 8):
        for t in wm.indices(0, 8):
            for _, i in wm.rule(s, t):
                assert wm.contains(i)
    assert check_identity(wm, left_symmetric_identity(), 0, 10) is None
    assert wm.basis(2) * wm.basis(4) == 5 * wm.basis(6)


def test_leibniz_positive_part_associative_commutative():
    f = builtin("leibniz_der")
    for s in range(1, 8):
        for t in range(1, 8):
            assert f.basis(s) * f.basis(t) == f.basis(s + t)
            assert f.basis(s) * f.basis(t) == f.basis(t) * f.basis(s)


def test_named_identity_lookup():
    assert named_identity("novikov").element == novikov_identity().element
    with pytest.raises(AlgebraError):
        named_identity("power_associative")


def test_check_identity_requires_multilinear():
    w = builtin("witt1")
    (z,) = generators(Signature(2, False, False, 1))
    with pytest.raises(AlgebraError):
        check_identity(w, Identity(z * (z * z)), 0, 3)


def test_evaluate_on_combinations():
    w = builtin("witt1")
    sig = Signature(2, False, False, 2)
    z1, z2 = generators(sig)
    elem = (z1 * z2) - (z2 * z1)
    a = w.basis(1) + w.basis(0)
    b = w.basis(2)
    # commutator of e-values: [a, e2] with a = e1 + e0
    expect = (a * b) - (b * a)
    assert evaluate(w, elem, [a, b]) == expect
    with pytest.raises(AlgebraError):
        evaluate(w, elem, [a])


def test_power_images_follow_binomial_rule():
    c = builtin("dual_leibniz_alg")
    for s in range(0, 11):
        for t in range(0, 11):
            img = derivation_of_power(c, s, t + 1)
            scale = Fraction(
                (t + 1) * factorial(s + t + 1), factorial(s + 1) * factorial(t + 1)
            )
            assert img == scale * c.basis(s + t + 1), (s, t)


def test_power_derivation_validation():
    c = builtin("dual_leibniz_alg")
    with pytest.raises(AlgebraError):
        derivation_of_power(c, 1, 0)
