import itertools
from fractions import Fraction

import pytest

from derivalg import genpos
from derivalg.deriv import (
    Derivation,
    apply,
    euler_derivation,
    grading_decompose,
    lsym_mul,
)
from derivalg.freealg import (
    AlgebraError,
    Element,
    Signature,
    enumerate_reduced,
    generator,
    node,
    words_of_content,
)
from derivalg.genpos import (
    Certificate,
    SpanReport,
    certificate,
    rho,
    seed_derivation,
    span_check,
)
from derivalg.rowreduce import RowReducer
from derivalg.sexpr import parse_derivation

S21 = Signature(2, True, False, 1)
S31 = Signature(3, True, False, 1)


def test_rho_examples():
    x = generator(1)
    x2 = node([x, x])
    assert rho(S21, node([x2, x])) == 1
    assert rho(S21, node([x2, x2])) == 2
    assert rho(S21, x2) is None
    assert rho(S31, node([node([x, x, x]), node([x, x, x]), x])) == 2


def test_rho_validation():
    x = generator(1)
    with pytest.raises(AlgebraError):
        rho(S21, x)
    with pytest.raises(AlgebraError):
        rho(S21, node([x, node([x, x])]))  # children out of order
    with pytest.raises(AlgebraError):
        rho(Signature(2, True, False, 2), node([x, x]))


def test_seed_derivation():
    x = generator(1)
    assert seed_derivation(S21) == Derivation(
        S21, [Element.from_word(S21, node([x, x]))]
    )
    D3 = seed_derivation(S31)
    assert D3.coords[0] == Element.from_word(S31, node([x, x, x]))


def test_certificate_of_the_seeds():
    x = generator(1)
    cg = certificate(S21, x)
    assert cg.terms == ((Fraction(1), "E"),)
    assert cg.evaluate() == euler_derivation(S21)
    cd = certificate(S31, node([x, x, x]))
    assert cd.terms == ((Fraction(1), "D"),)
    assert str(cd).endswith("= D")


def test_certificate_pinned_expressions():
    x = generator(1)
    x2 = node([x, x])
    c1 = certificate(S21, node([x2, x]))
    assert str(c1) == "((x1 x1) x1) dx = 1/2*D*D"
    c2 = certificate(S21, node([x2, x2]))
    assert str(c2) == "((x1 x1) (x1 x1)) dx = 1/2*D*(D*D) - 1/2*(D*D)*D"


def test_certificates_evaluate_to_their_targets():
    for sig, top in ((S21, 7), (S31, 9)):
        for length in range(1, top + 1):
            for w in enumerate_reduced(sig, length):
                cert = certificate(sig, w)
                assert cert.evaluate() == Derivation(
                    sig, [Element.from_word(sig, w)]
                ), w


def test_long_certificates_use_only_the_seed():
    for length in range(2, 8):
        for w in enumerate_reduced(S21, length):
            assert certificate(S21, w).atoms() == {"D"}


def test_recursion_measure_decreases():
    # the subtargets at each step are shorter, or same length with
    # strictly smaller rho
    x = generator(1)
    for length in range(2, 7):
        for w in enumerate_reduced(S21, length):
            i = rho(S21, w)
            if i is None:
                continue
            wi = w.children[i - 1]
            u = node(w.children[: i - 1] + (x,) * (S21.arity - i + 1))
            assert wi.length < w.length
            assert u.length < w.length
            expansion = apply(
                Derivation(S21, [Element.from_word(S21, wi)]),
                Element.from_word(S21, u),
            )
            for t, _ in expansion:
                if t == w:
                    continue
                assert t.length == w.length
                assert rho(S21, t) == i - 1


def test_certificate_validation():
    x = generator(1)
    with pytest.raises(AlgebraError):
        certificate(S21, node([x, node([x, x])]))
    with pytest.raises(AlgebraError):
        certificate(Signature(2, False, False, 1), node([x, x]))


def test_span_binary():
    rep = span_check(S21, 6)
    assert rep.passed
    assert rep.dimensions() == (1, 1, 1, 2, 3, 6, 11)
    assert rep.rows[0] == (0, 1, 1)
    assert [want for _, _, want in rep.rows] == [
        len(enumerate_reduced(S21, s + 1)) for s in range(0, 7)
    ]


def test_span_ternary():
    rep = span_check(S31, 6)
    assert rep.passed
    assert rep.dimensions() == (1, 0, 1, 0, 1, 0, 2)


def test_span_never_exceeds_the_word_count():
    rep = span_check(S21, 5, seeds=[seed_derivation(S21)])
    for _, got, want in rep.rows:
        assert got <= want


def test_span_with_euler_seed_only():
    rep = span_check(S21, 3, seeds=[euler_derivation(S21)])
    assert not rep.passed
    assert rep.rows[0] == (0, 1, 1)
    assert rep.dimensions() == (1, 0, 0, 0)
    assert "gap" in str(rep)
    assert "do not generate" in str(rep)


def test_span_accepts_inhomogeneous_seeds():
    mixed = euler_derivation(S21) + seed_derivation(S21)
    rep = span_check(S21, 4, seeds=[mixed])
    # the graded components are split out, so this matches the default
    assert rep.rows == span_check(S21, 4).rows


def test_span_validation():
    with pytest.raises(AlgebraError):
        span_check(S21, -1)
    with pytest.raises(AlgebraError):
        span_check(Signature(2, True, False, 2), 3)
    with pytest.raises(AlgebraError):
        span_check(S21, 3, seeds=[euler_derivation(S31)])


def _product_closure_rows(sig, max_degree, seeds):
    """Reference closure that keeps the products themselves as the basis
    of every degree, full or not, and multiplies them again higher up."""
    by_degree = {}
    for d in seeds:
        for s, part in grading_decompose(d).items():
            by_degree.setdefault(s, []).append(part)
    basis, rows = {}, []
    for s in range(max_degree + 1):
        words = words_of_content(sig, (s + 1,))
        index = {w: i for i, w in enumerate(words)}
        red, kept = RowReducer(), []
        products = (
            lsym_mul(u, v)
            for a in range(1, s)
            for u in basis.get(a, ())
            for v in basis.get(s - a, ())
        )
        for d in itertools.chain(by_degree.get(s, ()), products):
            if red.rank == len(words):
                break
            vec = {index[w]: c for w, c in d.coords[0]}
            if vec and red.add(vec):
                kept.append(d)
        basis[s] = kept
        rows.append((s, len(kept), len(words)))
    return tuple(rows)


def _seeds(sig, *texts):
    return [parse_derivation(t, sig) for t in texts]


@pytest.mark.parametrize(
    "sig, seeds, dims",
    [
        (S21, None, None),
        (S21, [seed_derivation(S21)], None),
        # a full degree 2 below the gap degrees 4, 6 and 8
        (S21, _seeds(S21, "(x1 (x1 x1)) d1"), (0, 0, 1, 0, 1, 0, 2, 0, 4)),
        (
            S21,
            _seeds(S21, "(x1 (x1 x1)) d1", "(x1 (x1 (x1 x1))) d1"),
            (0, 0, 1, 1, 1, 2, 3, 5, 9),
        ),
        (S31, [seed_derivation(S31)], None),
        (S31, None, None),
    ],
    ids=["S21", "S21-D", "S21-cubic", "S21-cubic-quartic", "S31-D", "S31"],
)
def test_span_matches_the_product_closure(sig, seeds, dims):
    rep = span_check(sig, 8, seeds=seeds)
    default = (euler_derivation(sig), seed_derivation(sig))
    assert rep.rows == _product_closure_rows(sig, 8, seeds or default)
    if dims is not None:
        assert rep.dimensions() == dims


def test_span_is_independent_of_the_seed_scales(monkeypatch):
    calls = {"lsym_mul": 0, "add": 0}
    operands = []
    add = RowReducer.add

    def counting_mul(u, v):
        calls["lsym_mul"] += 1
        operands.extend((u, v))
        return lsym_mul(u, v)

    def counting_add(self, row):
        calls["add"] += 1
        return add(self, row)

    monkeypatch.setattr(genpos, "lsym_mul", counting_mul)
    monkeypatch.setattr(RowReducer, "add", counting_add)
    e, d = euler_derivation(S21), seed_derivation(S21)
    runs = []
    for a, b in ((Fraction(1), Fraction(1)), (Fraction(-7, 3), Fraction(5, 11))):
        calls.update(lsym_mul=0, add=0)
        rep = span_check(S21, 8, seeds=[a * e, b * d])
        runs.append((rep.rows, dict(calls)))
    assert runs[0] == runs[1]
    assert runs[0][1]["lsym_mul"] > 0
    # every degree is full, so only single words with coefficient 1 are
    # ever multiplied, whatever the scales of the seeds
    assert all([c for _, c in u.coords[0]] == [Fraction(1)] for u in operands)


def _binary_word_counts(top):
    """Words of each length in one symmetric binary generator: a word of
    length n > 1 is an unordered pair of words of lengths i + j = n."""
    t = [0, 1]
    for n in range(2, top + 1):
        total = 0
        for i in range(1, n // 2 + 1):
            j = n - i
            total += t[i] * t[j] if i < j else t[i] * (t[i] + 1) // 2
        t.append(total)
    return t[1:]


def test_span_binary_degree_10():
    rep = span_check(S21, 10)
    assert rep.dimensions() == tuple(_binary_word_counts(11))
    assert rep.rows[-1] == (10, 207, 207)
    assert rep.passed
