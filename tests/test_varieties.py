import importlib
import pkgutil
from fractions import Fraction
from functools import lru_cache

import pytest

import derivalg
from derivalg import varieties
from derivalg.deriv import Derivation
from derivalg.envfox import jacobian, mat_is_nilpotent
from derivalg.freealg import (
    UNKNOWN,
    AlgebraError,
    Element,
    Signature,
    TruncationError,
    bracket,
    enumerate_reduced,
    generator,
    generators,
    node,
    substitute,
)
from derivalg.structconst import builtin, check_identity, named_identity
from derivalg.varieties import (
    Identity,
    QuotientSpace,
    VarietyPresentation,
    default_truncation,
    engel_index,
    left_mul_matrix,
    mat_is_zero,
    mat_mul,
    multilinearize,
    one_hole_contexts,
    partial_linearize,
    quotient_space,
    relation_rows,
    variety,
)
from derivalg.rowreduce import RowReducer

from conftest import random_element

S21 = Signature(2, True, False, 1)
S31 = Signature(3, True, False, 1)


def _x(sig=S21):
    return Element.from_word(sig, generator(1))


def binary_nilpotent():
    x = _x()
    return variety(S21, x * (x * (x * x)))


def ternary_nilpotent():
    (x,) = generators(S31)
    return variety(S31, bracket([x, x, bracket([x, x, x])]))


def test_identity_multidegree():
    x1, x2 = generators(Signature(2, True, False, 2))
    ident = Identity(x1 * (x1 * x2) + (x1 * x1) * x2)
    assert ident.multidegree == (2, 1)
    assert ident.degree == 3
    assert not ident.is_multilinear
    with pytest.raises(AlgebraError):
        Identity(x1 * x1 + x1 * x2)


def test_multilinearize_fixes_multilinear():
    sig = Signature(2, False, False, 3)
    z1, z2, z3 = generators(sig)
    novikov = Identity((z1 * z2) * z3 - (z1 * z3) * z2)
    assert multilinearize(novikov) is novikov


def test_multilinearize_polarization_recovers_identity():
    x = _x()
    ident = Identity(x * (x * (x * x)))
    full = multilinearize(ident)
    assert full.multidegree == (1, 1, 1, 1)
    # substituting equal arguments recovers 4! times the original
    back = substitute(full.element, {i: x for i in range(1, 5)})
    assert back == 24 * (x * (x * (x * x)))


def test_partial_linearization_coefficients():
    # one linearization step of x(x(xx)): yxxx + xyxx + 2xxxy
    x = _x()
    lin = partial_linearize(Identity(x * (x * (x * x))), 1)
    sig2 = Signature(2, True, False, 2)
    z, y = generators(sig2)
    expect = y * (z * (z * z)) + z * (y * (z * z)) + 2 * (z * (z * (z * y)))
    assert lin.element == expect
    assert lin.multidegree == (3, 1)


def test_partial_linearization_needs_repeats():
    sig = Signature(2, False, False, 3)
    z1, z2, z3 = generators(sig)
    with pytest.raises(AlgebraError):
        partial_linearize(Identity((z1 * z2) * z3 - (z1 * z3) * z2), 1)


def test_one_hole_contexts_small():
    ctxs = one_hole_contexts(S21, (2,))
    assert len(ctxs) == 2
    assert all(dict(w.content) == {1: 2, 2: 1} for w in ctxs)
    # the bare marker is the unique context of empty content
    assert one_hole_contexts(S21, (0,)) == (generator(2),)
    # incompatible degrees give nothing
    assert one_hole_contexts(S31, (1,)) == ()


def test_relation_space_contains_defining_instances():
    x = _x()
    rows = relation_rows(binary_nilpotent(), 4)
    target = x * (x * (x * x))
    # the degree-4 instance itself spans the ideal component
    assert any(tuple(sorted(row)) == target.support() for row in rows)
    assert quotient_space(binary_nilpotent()).reduce(target).is_zero

    (y,) = generators(S31)
    rel = bracket([y, y, bracket([y, y, y])])
    assert quotient_space(ternary_nilpotent()).reduce(rel).is_zero
    assert relation_rows(ternary_nilpotent(), 5)


def test_quotient_dimensions_binary_nilpotent():
    sp = quotient_space(binary_nilpotent())
    assert [sp.dimension(d) for d in range(1, 9)] == [1, 1, 1, 1, 1, 1, 0, 0]


def test_quotient_basis_words_are_the_left_combs():
    sp = quotient_space(binary_nilpotent())
    x = generator(1)
    x2 = node([x, x])
    x2x2 = node([x2, x2])
    assert sp.basis(2) == (x2,)
    assert sp.basis(3) == (node([x2, x]),)
    assert sp.basis(4) == (x2x2,)
    assert sp.basis(5) == (node([x2x2, x]),)
    assert sp.basis(6) == (node([node([x2x2, x]), x]),)
    assert sp.basis(7) == ()


def test_reduced_relations_with_signs():
    sp = quotient_space(binary_nilpotent())
    x = _x()
    x2 = x * x
    xx2 = x * x2
    x2x2 = x2 * x2
    xx2x2 = x * x2x2
    xxx2x2 = x * xx2x2
    assert sp.reduce(x2 * (x * x2)) == -xx2x2
    assert sp.reduce(x2 * x2x2) == xxx2x2
    assert sp.reduce(xx2 * xx2) == xxx2x2
    assert sp.reduce(x * (x * xx2x2)).is_zero
    assert sp.reduce(x2 * xx2x2).is_zero
    assert sp.reduce(xx2 * x2x2).is_zero


def test_quotient_dimensions_ternary_nilpotent():
    sp = quotient_space(ternary_nilpotent())
    assert [sp.dimension(d) for d in (1, 3, 5, 7, 9)] == [1, 1, 0, 0, 0]
    assert sp.dimension(2) == 0
    assert sp.basis(3) == (node([generator(1)] * 3),)


def test_free_presentation_reduces_nothing(rng):
    free = VarietyPresentation(S21, ())
    sp = quotient_space(free)
    for d in range(1, 8):
        assert sp.dimension(d) == len(enumerate_reduced(S21, d))
    for _ in range(5):
        a = random_element(S21, rng, max_length=5)
        assert sp.reduce(a) == a


def test_reduce_is_linear_and_idempotent(rng):
    sp = quotient_space(binary_nilpotent())
    for _ in range(15):
        a = random_element(S21, rng, max_length=6, terms=3)
        b = random_element(S21, rng, max_length=6, terms=3)
        ra = sp.reduce(a)
        assert sp.reduce(ra) == ra
        assert sp.reduce(a + b) == ra + sp.reduce(b)


def test_reduce_beyond_truncation_raises():
    sp = quotient_space(binary_nilpotent())
    x = _x()
    big = x
    for _ in range(8):
        big = x * big
    assert big.degrees() == (9,)
    with pytest.raises(TruncationError):
        sp.reduce(big)


def test_left_mul_matrix_degree_one():
    x = _x()
    assert left_mul_matrix(x, binary_nilpotent(), 1) == [[Fraction(1)]]
    # degree 6 -> 7 is the zero map onto a zero space
    assert left_mul_matrix(x, binary_nilpotent(), 6) == []


def test_left_multiplication_operator_identity_degree_three():
    # L_{xx^2} + L_x L_{x^2} + 2 L_x L_x L_x = 0 on every testable degree
    v = binary_nilpotent()
    x = _x()
    x2 = x * x
    xx2 = x * x2
    for d in range(1, 6):
        lx3 = left_mul_matrix(xx2, v, d)
        a = mat_mul(left_mul_matrix(x, v, d + 2), left_mul_matrix(x2, v, d))
        b = mat_mul(
            left_mul_matrix(x, v, d + 2),
            mat_mul(left_mul_matrix(x, v, d + 1), left_mul_matrix(x, v, d)),
        )
        total = [
            [lx3[i][j] + a[i][j] + 2 * b[i][j] for j in range(len(row))]
            for i, row in enumerate(lx3)
        ]
        assert mat_is_zero(total), d


def test_left_multiplication_operator_identity_degree_four():
    # the derived degree-four operator identity, term by term
    v = binary_nilpotent()
    x = _x()
    x2 = x * x
    xx2 = x * x2
    x2x2 = x2 * x2

    def L(b, d):
        return left_mul_matrix(b, v, d)

    for d in range(1, 5):
        terms = [
            L(x2x2, d),
            mat_mul(L(x2, d + 2), L(x2, d)),
            mat_mul(L(x, d + 3), L(xx2, d)),
            mat_mul(L(x2, d + 2), mat_mul(L(x, d + 1), L(x, d))),
            mat_mul(L(x, d + 3), mat_mul(L(x2, d + 1), L(x, d))),
            mat_mul(L(x, d + 3), mat_mul(L(x, d + 2), L(x2, d))),
        ]
        coeffs = [1, 1, 2, 2, 2, 2]
        rows = len(terms[0])
        cols = len(terms[0][0]) if rows else 0
        total = [
            [sum(c * t[i][j] for c, t in zip(coeffs, terms)) for j in range(cols)]
            for i in range(rows)
        ]
        assert mat_is_zero(total), d


def test_engel_index_binary_nilpotent():
    assert engel_index(binary_nilpotent(), 6) == 3


def test_engel_index_matches_operator_matrices():
    # independent route: compose explicit operator matrices
    v = binary_nilpotent()
    x = _x()

    def power_is_zero(q):
        for d in range(1, default_truncation(S21) - q + 1):
            mat = left_mul_matrix(x, v, d)
            for step in range(1, q):
                mat = mat_mul(left_mul_matrix(x, v, d + step), mat)
            if not mat_is_zero(mat):
                return False
        return True

    assert not power_is_zero(1)
    assert not power_is_zero(2)
    assert power_is_zero(3)


def test_engel_index_free_is_absent():
    assert engel_index(VarietyPresentation(S21, ()), 6) is None


def test_engel_index_unknown_when_window_too_small():
    free = VarietyPresentation(S21, ())
    assert engel_index(free, 5, truncation=3) is UNKNOWN


def test_engel_index_checks_the_bound_before_the_truncation():
    free = VarietyPresentation(S21, ())
    with pytest.raises(AlgebraError, match="bound must be positive"):
        engel_index(free, 0, truncation=0)


def test_quotient_space_shared_and_hashable():
    a = quotient_space(binary_nilpotent())
    b = quotient_space(binary_nilpotent())
    assert a is b
    assert a == QuotientSpace(binary_nilpotent())
    assert hash(a) == hash(QuotientSpace(binary_nilpotent()))


def _memos():
    """Every memoized function of the package, by ``module.name``."""
    out = {}
    for info in pkgutil.iter_modules(derivalg.__path__):
        mod = importlib.import_module(f"derivalg.{info.name}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_clear") and obj.__module__ == mod.__name__:
                out[f"{info.name}.{name}"] = obj
    return out


def test_clearing_every_memo_rebuilds_identical_results():
    """Every memo is a functools.cache: after ``cache_clear()`` on all of
    them, fresh objects give the same doubled-quotient basis, normal form,
    Jacobian probe verdict and indexed counterexample.  Words built before
    the clear stay equal to words built after it, because word equality
    compares keys."""

    def build():
        space = quotient_space(binary_nilpotent(), 8)
        doubled = space.doubled()
        x, y = generators(doubled.sig)
        nf = doubled.reduce(x * (x * (x * y)) - 2 * (y * x) * (x * x))
        verdict = mat_is_nilpotent(jacobian(Derivation(S21, [_x() * _x()])), 8, space)
        ce = check_identity(builtin("leibniz_der"), named_identity("novikov"), 0, 6)
        return space, doubled.basis(6), nf, verdict, ce

    memos = _memos()
    assert set(memos) == {
        "freealg.generator",
        "freealg.words_of_content",
        "freealg.enumerate_reduced",
        "varieties._instances",
        "varieties._multilinearized",
        "varieties._block",
        "varieties.quotient_space",
        "structconst.builtin",
        "structconst._constants",
        "structconst._program",
        "genpos.certificate",
    }
    space, basis, nf, verdict, ce = build()
    x1 = generator(1)
    for memo in memos.values():
        memo.cache_clear()
        assert memo.cache_info().currsize == 0
    again, basis2, nf2, verdict2, ce2 = build()
    assert again is not space and generator(1) is not x1
    assert generator(1) == x1
    assert basis2 == basis and len(basis) > 0
    assert nf2 == nf and not nf.is_zero
    assert verdict2 is verdict is UNKNOWN
    assert ce2 == ce and ce.indices == (0, 1, 2)


def test_doubled_context_same_identities():
    sp = quotient_space(binary_nilpotent())
    dq = sp.doubled()
    assert dq.sig.num_generators == 2
    assert dq.presentation.identities == sp.presentation.identities
    # the one-generator relation also reduces in the doubled algebra
    (x1, x2) = generators(dq.sig)
    assert dq.reduce(x1 * (x1 * (x1 * x1))).is_zero
    assert dq.reduce(x2 * (x2 * (x2 * x2))).is_zero


def left_symmetric_two_generators():
    """Left-symmetric algebras on two generators (non-symmetric bracket)."""
    z1, z2, z3 = generators(Signature(2, False, False, 3))
    law = (z1 * z2) * z3 - z1 * (z2 * z3) - (z2 * z1) * z3 + z2 * (z1 * z3)
    return variety(Signature(2, False, False, 2), law)


def unital_binary_nilpotent():
    x = _x()
    return variety(Signature(2, True, True, 1), x * (x * (x * x)))


# name -> (presentation, truncation)
BLOCK_CASES = {
    "binary": lambda: (binary_nilpotent(), 7),
    "binary_doubled": lambda: (
        quotient_space(binary_nilpotent(), 7).doubled().presentation,
        7,
    ),
    "ternary": lambda: (ternary_nilpotent(), 7),
    "left_symmetric": lambda: (left_symmetric_two_generators(), 5),
    "unital": lambda: (unital_binary_nilpotent(), 6),
}


def full_level(presentation, degree):
    """Reference: one reducer fed every relation row of the level."""
    words = enumerate_reduced(presentation.sig, degree)
    index = {w: j for j, w in enumerate(words)}
    reducer = RowReducer()
    for row in relation_rows(presentation, degree):
        reducer.add({index[w]: c for w, c in row.items()})
    return words, index, reducer


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_block_levels_match_full_level_reference(case, rng):
    presentation, truncation = BLOCK_CASES[case]()
    sig = presentation.sig
    levels = {d: full_level(presentation, d) for d in range(1, truncation + 1)}

    # reduce first, on a fresh space, so it builds only the blocks it touches
    space = QuotientSpace(presentation, truncation)
    for _ in range(20):
        a = random_element(sig, rng, max_length=truncation, terms=4)
        want = {}
        for d, part in a.homogeneous_parts().items():
            words, index, reducer = levels[d]
            row = {index[w]: c for w, c in part.terms}
            for j, v in reducer.reduce(row).items():
                want[words[j]] = v
        assert space.reduce(a) == Element(sig, want)

    for d, (words, _, reducer) in levels.items():
        pivots = set(reducer.pivot_columns())
        basis = tuple(w for j, w in enumerate(words) if j not in pivots)
        assert space.basis(d) == basis
        assert space.dimension(d) == len(basis)
        assert QuotientSpace(presentation, truncation).basis(d) == basis


def test_relation_rows_of_one_content_filter_all_rows():
    presentation = quotient_space(binary_nilpotent(), 7).doubled().presentation

    def content_of(w):
        degs = dict(w.content)
        return degs.get(1, 0), degs.get(2, 0)

    for degree in (4, 6):
        rows = relation_rows(presentation, degree)
        contents = [{content_of(w) for w in row} for row in rows]
        # every row is multihomogeneous
        assert all(len(c) == 1 for c in contents)
        for content in {c for (c,) in contents}:
            want = [row for row, (c,) in zip(rows, contents) if c == content]
            assert relation_rows(presentation, degree, content) == want


def fresh_block_store(monkeypatch):
    """Swap in an empty block store, so that this test builds every block."""
    store = lru_cache(maxsize=None)(varieties._block.__wrapped__)
    monkeypatch.setattr(varieties, "_block", store)


def test_windows_share_one_block_store(monkeypatch, rng):
    """A block depends on the presentation and the content only: after
    window 8 has built its blocks, window 10 reduces elements of degree at
    most 8 without asking for a relation row, and gets what a cold store
    gives."""
    presentation = BLOCK_CASES["binary_doubled"]()[0]
    elements = [
        random_element(presentation.sig, rng, max_length=8, terms=4) for _ in range(20)
    ]
    requests = []
    relation_rows = varieties.relation_rows

    def counted_rows(*args):
        requests.append(args)
        return relation_rows(*args)

    monkeypatch.setattr(varieties, "relation_rows", counted_rows)
    fresh_block_store(monkeypatch)
    narrow = [quotient_space(presentation, 8).reduce(a) for a in elements]
    assert requests
    requests.clear()
    wide = [quotient_space(presentation, 10).reduce(a) for a in elements]
    assert requests == []
    fresh_block_store(monkeypatch)
    assert [quotient_space(presentation, 10).reduce(a) for a in elements] == wide
    assert requests
    assert wide == narrow


def test_window_gates_blocks_a_wider_window_built():
    """A block built through a wider window never answers for a narrower
    one, so no verdict of a narrow window turns from unknown into an index."""
    presentation = binary_nilpotent()
    J = jacobian(Derivation(S21, [_x() * _x()]))
    verdicts = [
        mat_is_nilpotent(J, 12, quotient_space(presentation, t)) for t in (11, 10, 9, 8)
    ]
    assert verdicts == [10, UNKNOWN, UNKNOWN, UNKNOWN]

    sextic = _x() * (_x() * (_x() * (_x() * (_x() * _x()))))
    # window 11 reads the degree-6 block, so it exists from here on
    assert QuotientSpace(presentation, 11).reduce(sextic).is_zero
    narrow = QuotientSpace(presentation, 5)
    with pytest.raises(TruncationError, match="^degree 6 beyond truncation 5$"):
        narrow.reduce(sextic)
    with pytest.raises(TruncationError, match="^degree 6 beyond truncation 5$"):
        narrow.basis(6)
