from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from derivalg.freealg import AlgebraError, Element, Signature, generators
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

from conftest import random_word


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


def reference_evaluate(alg, elem, images):
    """A reference apart from the product kernel: every subword a fresh
    IndexedElement, every pair of terms through the validating ``rule``,
    in Fraction arithmetic, recursing over the word."""

    def product(a, b):
        return IndexedElement(alg, [
            (i, cs * ct * c)
            for s, cs in a.terms
            for t, ct in b.terms
            for c, i in alg.rule(s, t)
        ])

    def ev(w):
        if w.is_generator:
            return images[w.gen - 1]
        a, b = w.children
        return product(ev(a), ev(b))

    total = IndexedElement(alg)
    for w, c in elem:
        total = total + c * ev(w)
    return total


def _fraction(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 7))


def random_combination(alg, window, rng, terms=3):
    """A combination of basis vectors with non-integral coefficients."""
    return alg.element([(rng.choice(window), _fraction(rng)) for _ in range(terms)])


SIG3 = Signature(2, False, False, 3)

ORACLE_ALGEBRAS = [
    builtin("witt1"),
    builtin("leibniz_der"),
    builtin("dual_leibniz_der"),
    builtin("dual_leibniz_alg"),
    builtin("witt1_mary(3)"),
    IndexedAlgebra(
        "thirds",
        "h",
        lambda s, t: [(Fraction(s - 2 * t, 3), s + t), (Fraction(1, 2), s + t)],
        0,
    ),
]


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS, ids=lambda a: a.name)
def test_evaluate_agrees_with_reference(alg, rng):
    window = alg.indices(alg.min_index, alg.min_index + 6 * alg.modulus)
    elements = [ident().element for ident in (left_symmetric_identity, novikov_identity, jacobi_identity)]
    for _ in range(4):
        words = [random_word(SIG3, rng.randint(1, 5), rng) for _ in range(3)]
        elements.append(Element(SIG3, [(w, _fraction(rng)) for w in words]))
    for elem in elements:
        for _ in range(3):
            images = [random_combination(alg, window, rng) for _ in range(3)]
            got = evaluate(alg, elem, images)
            assert got == reference_evaluate(alg, elem, images)
            assert all(type(c) is Fraction for _, c in got.terms)


def test_evaluate_rejects_images_of_another_algebra():
    w, f = builtin("witt1"), builtin("leibniz_der")
    elem = left_symmetric_identity().element
    for images in ([f.basis(1), f.basis(2), f.basis(3)], [w.basis(1), f.basis(2), w.basis(0)]):
        with pytest.raises(AlgebraError, match="elements of different indexed algebras"):
            evaluate(w, elem, images)
    # an image the element never reads is not checked, as before
    (z1, _, _) = generators(SIG3)
    assert evaluate(w, z1, [w.basis(1), f.basis(2), f.basis(3)]) == w.basis(1)


def test_rule_faults_fire_after_valid_pairs_are_cached():
    grows = IndexedAlgebra("grows", "g", lambda s, t: [(1, s + t + (s + t > 4))], 0)
    assert grows.basis(1) * grows.basis(2) == grows.basis(3)
    images = [grows.basis(1), grows.basis(2), grows.basis(3)]
    for _ in range(2):
        with pytest.raises(AlgebraError, match=r"^rule of grows is not graded at \(2,3\)$"):
            grows.basis(2) * grows.basis(3)
        with pytest.raises(AlgebraError, match="not graded"):
            grows.rule(2, 3)
        with pytest.raises(AlgebraError, match="not graded"):
            evaluate(grows, novikov_identity().element, images)

    leaves = IndexedAlgebra("leaves", "l", lambda s, t: [(1, s + t)], -1)
    assert leaves.basis(0) * leaves.basis(1) == leaves.basis(1)
    for _ in range(2):
        with pytest.raises(AlgebraError, match="^rule of leaves leaves the index set$"):
            leaves.basis(-1) * leaves.basis(-1)
        with pytest.raises(AlgebraError, match="leaves the index set"):
            leaves.rule(-1, -1)
        with pytest.raises(AlgebraError, match="^index -2 outside leaves$"):
            leaves.rule(-2, 0)


def test_rule_reports_its_first_fault():
    # zero terms are skipped; the first faulty term decides the message
    first_leaves = IndexedAlgebra("a", "a", lambda s, t: [(0, 9), (1, s + t), (1, s + t + 1)], -1)
    first_ungraded = IndexedAlgebra("b", "b", lambda s, t: [(1, s + t + 1), (1, s + t)], -1)
    with pytest.raises(AlgebraError, match="leaves the index set"):
        first_leaves.rule(-1, -1)
    with pytest.raises(AlgebraError, match="not graded"):
        first_leaves.rule(0, 1)
    with pytest.raises(AlgebraError, match="not graded"):
        first_ungraded.rule(-1, -1)


def test_algebras_sharing_a_name_keep_their_own_rules():
    witt_like = IndexedAlgebra("twin", "a", lambda s, t: [(t + 1, s + t)], 0)
    leibniz_like = IndexedAlgebra("twin", "a", lambda s, t: [(t + 1 if s == 0 else 1, s + t)], 0)
    novikov = novikov_identity()
    for _ in range(2):
        assert witt_like.basis(1) * witt_like.basis(2) == 3 * witt_like.basis(3)
        assert leibniz_like.basis(1) * leibniz_like.basis(2) == leibniz_like.basis(3)
        assert check_identity(witt_like, novikov, 0, 4) is None
        assert check_identity(leibniz_like, novikov, 0, 4).indices == (0, 1, 2)


def test_indexed_algebras_are_values():
    calls = Counter()

    def witt(s, t):
        calls[s, t] += 1
        return [(t + 1, s + t)]

    a = IndexedAlgebra("twin", "a", witt, 0)
    b = IndexedAlgebra("twin", "a", lambda s, t: [(t + 1 if s == 0 else 1, s + t)], 0)
    assert a != b and hash(a) != hash(b) and len({a, b}) == 2
    assert a != IndexedAlgebra("twin", "a", witt, 1)
    assert a != IndexedAlgebra("twin", "a", witt, 0, modulus=2)
    assert a.basis(1) != b.basis(1)
    with pytest.raises(AlgebraError, match="elements of different indexed algebras"):
        a.basis(1) * b.basis(1)
    with pytest.raises(AlgebraError, match="elements of different indexed algebras"):
        evaluate(a, novikov_identity().element, [b.basis(1), b.basis(2), b.basis(3)])

    # separately built with equal fields: one value, one memo of constants
    twin = IndexedAlgebra("twin", "a", witt, 0)
    assert twin is not a and twin == a and hash(twin) == hash(a)
    assert a.basis(1) * twin.basis(2) == 3 * twin.basis(3)
    for alg in (a, twin):
        assert check_identity(alg, novikov_identity(), 0, 4) is None
    assert calls and max(calls.values()) == 1


def test_rule_is_called_once_per_index_pair():
    calls = Counter()

    def rule(s, t):
        calls[s, t] += 1
        return [(Fraction(t + 1, 2), s + t)]

    alg = IndexedAlgebra("counted", "c", rule, 0)
    for ident in (left_symmetric_identity(), novikov_identity(), left_symmetric_identity()):
        check_identity(alg, ident, 0, 5)
    assert alg.rule(1, 2) == ((Fraction(3, 2), 3),)
    assert alg.basis(1) * alg.basis(2) == alg.element({3: Fraction(3, 2)})
    assert calls and max(calls.values()) == 1


@pytest.mark.parametrize("depth", [1200, 5000])
def test_evaluate_deep_combs(depth):
    w = builtin("witt1")
    (z,) = generators(Signature(2, False, False, 1))
    right = left = z
    for _ in range(depth):
        right = z * right
        left = left * z
    # e0 e0 = e0 in witt1
    assert evaluate(w, right, [w.basis(0)]) == w.basis(0)
    assert evaluate(w, left, [w.basis(0)]) == w.basis(0)
