import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derivalg.freealg import (
    UNIT,
    AlgebraError,
    ArityError,
    Element,
    Signature,
    bracket,
    contents,
    enumerate_reduced,
    generator,
    generators,
    is_canonical,
    node,
    normalize,
    substitute,
    unit_element,
    words_of_content,
)

from conftest import random_element

S21 = Signature(2, True, False, 1)
S22 = Signature(2, True, False, 2)
S31 = Signature(3, True, False, 1)
SU = Signature(2, True, True, 1)
S24 = Signature(2, False, True, 2)


def count_words(m, n, symmetric, unital, length):
    """Pure-integer count of canonical words, independent of the tree
    enumeration: recursion on non-increasing child length profiles with
    multiset coefficients (ordered compositions in the non-symmetric
    case)."""
    cache = {}

    def count(l):
        if l == 0:
            return 1 if unital else 0
        if l == 1:
            return n
        if l in cache:
            return cache[l]
        total = 0
        if symmetric:
            def parts(remaining, slots, cap):
                if slots == 0:
                    if remaining == 0:
                        yield ()
                    return
                top = min(cap, remaining - slots + 1)
                for l1 in range(top, 0, -1):
                    for rest in parts(remaining - l1, slots - 1, l1):
                        yield (l1,) + rest

            for tup in parts(l, m, l):
                ways = 1
                for lam in set(tup):
                    k = tup.count(lam)
                    ways *= comb(count(lam) + k - 1, k)
                total += ways
        else:
            def comps(remaining, slots):
                if slots == 0:
                    if remaining == 0:
                        yield ()
                    return
                for l1 in range(1, remaining - slots + 2):
                    for rest in comps(remaining - l1, slots - 1):
                        yield (l1,) + rest

            for tup in comps(l, m):
                ways = 1
                for lam in tup:
                    ways *= count(lam)
                total += ways
        cache[l] = total
        return total

    return count(length)


def test_counts_binary_symmetric_one_generator():
    got = [len(enumerate_reduced(S21, l)) for l in range(1, 9)]
    assert got == [1, 1, 1, 2, 3, 6, 11, 23]
    oracle = [count_words(2, 1, True, False, l) for l in range(1, 9)]
    assert got == oracle


def test_counts_ternary_symmetric_one_generator():
    got = [len(enumerate_reduced(S31, l)) for l in range(1, 10)]
    assert got == [1, 0, 1, 0, 1, 0, 2, 0, 4]
    oracle = [count_words(3, 1, True, False, l) for l in range(1, 10)]
    assert got == oracle


def test_counts_match_oracle_across_signatures():
    for sig in (S22, Signature(2, False, False, 1), Signature(3, True, False, 2),
                Signature(4, True, False, 1), SU):
        for l in range(0, 8):
            assert len(enumerate_reduced(sig, l)) == count_words(
                sig.arity, sig.num_generators, sig.symmetric, sig.unital, l
            ), (sig, l)


def test_counts_nonsymmetric_binary_are_catalan():
    sig = Signature(2, False, False, 1)
    got = [len(enumerate_reduced(sig, l)) for l in range(1, 7)]
    assert got == [1, 1, 2, 5, 14, 42]


def test_enumeration_is_sorted_and_canonical():
    for sig in (S21, S31, S22, SU, Signature(2, False, False, 2)):
        for l in range(0, 7):
            words = enumerate_reduced(sig, l)
            assert all(is_canonical(sig, w) for w in words)
            assert all(words[i] < words[i + 1] for i in range(len(words) - 1))
            assert all(w.length == l for w in words)


def raw_trees(sig, leaves):
    """Every raw tree with exactly ``leaves`` leaves, the unit included
    as a leaf in unital signatures."""
    if leaves == 1:
        yield from (generator(i) for i in range(1, sig.num_generators + 1))
        if sig.unital:
            yield UNIT
        return
    m = sig.arity
    for cut in itertools.combinations(range(1, leaves), m - 1):
        sizes = [b - a for a, b in zip((0,) + cut, cut + (leaves,))]
        for kids in itertools.product(*(list(raw_trees(sig, k)) for k in sizes)):
            yield node(kids)


def leaf_count(w):
    """Generator index -> number of leaves, counted on the tree itself."""
    if w.is_generator:
        return {w.gen: 1}
    counts = {}
    for c in w.children:
        for i, k in leaf_count(c).items():
            counts[i] = counts.get(i, 0) + k
    return counts


@pytest.mark.parametrize(
    "sig",
    [
        S21,
        SU,
        S22,
        Signature(2, False, False, 1),
        Signature(2, False, True, 2),
        S31,
        Signature(3, False, False, 2),
        Signature(4, True, False, 2),
    ],
    ids=str,
)
def test_words_of_content_match_normalized_raw_trees(sig):
    # independent reference: canonical forms of every raw tree, deduplicated
    want = {normalize(sig, t) for l in range(1, 7) for t in raw_trees(sig, l)}
    n = sig.num_generators
    got = set()
    for total in range(0, 7):
        for content in contents(total, (total,) * n):
            words = words_of_content(sig, content)
            assert all(words[i] < words[i + 1] for i in range(len(words) - 1))
            for w in words:
                assert w.content == tuple(sorted(leaf_count(w).items()))
                degs = dict(w.content)
                assert tuple(degs.get(i, 0) for i in range(1, n + 1)) == content
            got.update(words)
    assert got == want


def test_normalize_sorts_ternary_children():
    x = generator(1)
    w = normalize(S31, node([x, x, node([x, x, x])]))
    assert w == node([node([x, x, x]), x, x])
    assert normalize(S31, w) == w


def test_normalize_validates():
    x = generator(1)
    with pytest.raises(ArityError):
        normalize(S21, node([x, x, x]))
    with pytest.raises(AlgebraError):
        normalize(S21, generator(2))
    with pytest.raises(AlgebraError):
        normalize(S21, UNIT)
    with pytest.raises(AlgebraError):
        normalize(S21, node([x, generator(2)]))


def test_normalize_absorbs_unit():
    x = generator(1)
    assert normalize(SU, node([UNIT, x])) == x
    assert normalize(SU, node([x, UNIT])) == x
    assert normalize(SU, node([UNIT, UNIT])) == UNIT
    assert normalize(SU, node([UNIT, node([x, UNIT])])) == x


def test_word_order_shorter_first_then_lexicographic():
    x = generator(1)
    x2 = node([x, x])
    u = node([x2, x2])
    v = node([node([x2, x]), x])
    assert u < v and not v < u and u != v
    assert v > u and not u > v
    assert u == u and not u < u and not u > u
    assert x < x2 < node([x2, x]) < u


def test_word_order_is_total_on_samples():
    words = [w for l in range(1, 7) for w in enumerate_reduced(S22, l)]
    for u, v in itertools.product(words[:40], repeat=2):
        # exactly one of <, ==, > holds, and < mirrors >
        assert (u < v) + (u == v) + (u > v) == 1
        assert (u < v) == (v > u)


def test_bracket_is_multilinear(rng):
    for _ in range(30):
        a = random_element(S22, rng)
        b = random_element(S22, rng)
        c = random_element(S22, rng)
        lhs = bracket([a + b, c])
        assert lhs == bracket([a, c]) + bracket([b, c])
        assert bracket([a, 3 * b]) == 3 * bracket([a, b])


def test_bracket_symmetric_in_arguments(rng):
    for _ in range(20):
        args = [random_element(S31, rng, max_length=3, terms=1) for _ in range(3)]
        base = bracket(args)
        for perm in itertools.permutations(args):
            assert bracket(list(perm)) == base


def test_bracket_unit_is_neutral(rng):
    one = unit_element(SU)
    for _ in range(10):
        a = random_element(SU, rng)
        assert bracket([one, a]) == a
        assert bracket([a, one]) == a


def test_element_arithmetic_exact():
    (x,) = generators(S21)
    x2 = x * x
    e = Fraction(1, 3) * x + Fraction(1, 6) * x
    assert e == Fraction(1, 2) * x
    assert (e - e).is_zero
    assert -(x - x2) == x2 - x
    assert (2 * x2) / 4 == Fraction(1, 2) * x2
    assert x.coeff(generator(1)) == 1
    assert x2.coeff(generator(1)) == 0


def test_element_str():
    (x,) = generators(S21)
    x2 = x * x
    assert str(Element.zero(S21)) == "0"
    assert str(x) == "x1"
    assert str(3 * (x2 * x) - x2 + x) == "3*((x1 x1) x1) - (x1 x1) + x1"
    assert str(-x) == "-x1"
    assert str(Fraction(3, 2) * x2) == "3/2*(x1 x1)"


def test_binary_star_requires_arity_two():
    (x,) = generators(S31)
    with pytest.raises(ArityError):
        x * x


def test_substitute_is_homomorphic(rng):
    tpl_sig = Signature(2, True, False, 2)
    z1, z2 = generators(tpl_sig)
    template = z1 * z2 - 2 * (z2 * z2)
    for _ in range(10):
        a = random_element(S21, rng)
        b = random_element(S21, rng)
        got = substitute(template, {1: a, 2: b})
        assert got == bracket([a, b]) - 2 * bracket([b, b])


def test_substitute_unassigned_variable():
    z1, z2 = generators(S22)
    (x,) = generators(S21)
    with pytest.raises(AlgebraError):
        substitute(z1 * z2, {1: x})


CONTENT_SIGS = [S21, S22, S24, S31, Signature(3, True, False, 2)]


def raw_tree(sig):
    leaves = [generator(i) for i in range(1, sig.num_generators + 1)]
    leaves += [UNIT] if sig.unital else []
    m = sig.arity
    return st.recursive(
        st.sampled_from(leaves),
        lambda kids: st.lists(kids, min_size=m, max_size=m).map(node),
        max_leaves=16,
    )


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(CONTENT_SIGS))
def test_word_content_counts_the_leaves(data, sig):
    t = data.draw(raw_tree(sig))
    assert t.content == tuple(sorted(leaf_count(t).items()))
    assert normalize(sig, t).content == t.content


def test_signature_validation():
    with pytest.raises(AlgebraError):
        Signature(1, True, False, 1)
    with pytest.raises(AlgebraError):
        Signature(3, True, True, 1)
    with pytest.raises(AlgebraError):
        Signature(2, True, False, 0)
