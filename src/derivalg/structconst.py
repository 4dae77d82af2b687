"""Graded algebras on integer-indexed bases with explicit structure constants.

Several derivation algebras of one-variable algebras have a basis
indexed by the degree, with a product rule that is a closed formula in
the two indices.  This module packages such rules — the one-variable
Witt algebra, the derivation algebras of the free Leibniz and free dual
Leibniz algebras, the free dual Leibniz algebra itself with its
binomial rule, and the m-ary restriction of the Witt algebra — and
checks multilinear identities against them exhaustively over finite
index windows.  A check reports the window it covered and the first
failing basis tuple in lexicographic order, never an unbounded claim.

Every product goes through one kernel, ``_product``, on plain
``{index: coefficient}`` dicts whose integral coefficients are ``int``;
an ``IndexedElement`` turns them into ``Fraction`` once, when it is
built from the kernel's result.  Two memos feed the kernel: the
validated structure constants of an algebra at ``(s, t)``
(``_constants``, keyed on the algebra value, so each rule is called
once per index pair), and the post-order program of an identity word
(``_program``), which ``evaluate`` walks on a stack, so words of any
depth evaluate.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Sequence

from .freealg import (
    AlgebraError,
    Element,
    LinearCombination,
    Signature,
    Word,
    format_linear,
    generators,
)
from .varieties import Identity


@dataclass(frozen=True)
class IndexedAlgebra:
    """A graded algebra with basis ``symbol<i>`` over an integer index set.

    The index set is an arithmetic progression ``min_index, min_index +
    modulus, ...``; the product of basis vectors ``s, t`` is given by
    ``_rule(s, t)`` as a list of ``(coefficient, index)`` pairs, all
    concentrated in index ``s + t``.  An algebra is a value: two compare
    equal when their name, notation, rule and index set do.
    """

    name: str
    symbol: str
    _rule: Callable[[int, int], Iterable[tuple]]
    min_index: int
    modulus: int = 1
    power_style: bool = False
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise AlgebraError("index modulus must be positive")
        # _constants hashes its algebra on every lookup: hash a few fields once
        object.__setattr__(self, "_hash", hash((self.name, self._rule, self.min_index)))

    def __hash__(self) -> int:
        return self._hash

    def contains(self, i: int) -> bool:
        return i >= self.min_index and (i - self.min_index) % self.modulus == 0

    def indices(self, lo: int, hi: int) -> list[int]:
        """The part of the index set inside ``lo..hi`` inclusive."""
        return [i for i in range(lo, hi + 1) if self.contains(i)]

    def rule(self, s: int, t: int) -> tuple[tuple[Fraction, int], ...]:
        return tuple((Fraction(c), i) for c, i in _constants(self, s, t))

    def basis_name(self, i: int) -> str:
        if self.power_style:
            return f"{self.symbol}^{i}"
        return f"{self.symbol}{i}"

    def basis(self, i: int) -> "IndexedElement":
        return IndexedElement(self, {i: 1})

    def element(self, data) -> "IndexedElement":
        return IndexedElement(self, data)


def _exact(c: Fraction):
    """``c`` as an ``int`` when it is integral."""
    return c.numerator if c.denominator == 1 else c


@cache
def _constants(alg: IndexedAlgebra, s: int, t: int) -> tuple[tuple, ...]:
    """The nonzero ``(coefficient, index)`` pairs of ``alg``'s rule at
    ``(s, t)`` in the rule's order, ``int`` where integral; the first
    fault of the pair, the grading or the index set raises.  Keyed on
    the algebra value, so each rule is called once per valid pair."""
    _check_index(alg, s)
    _check_index(alg, t)
    out = []
    for c, i in alg._rule(s, t):
        c = Fraction(c)
        if not c:
            continue
        if i != s + t:
            raise AlgebraError(f"rule of {alg.name} is not graded at ({s},{t})")
        if not alg.contains(i):
            raise AlgebraError(f"rule of {alg.name} leaves the index set")
        out.append((_exact(c), i))
    return tuple(out)


def _product(alg: IndexedAlgebra, a: dict, b: dict) -> dict:
    """The product of two ``{index: coefficient}`` combinations of
    ``alg``: the one product kernel of the module."""
    out: dict = {}
    for s, cs in a.items():
        for t, ct in b.items():
            for c, i in _constants(alg, s, t):
                v = out.get(i, 0) + cs * ct * c
                if v:
                    out[i] = v
                else:
                    del out[i]
    return out


def _vector(alg: IndexedAlgebra, x: "IndexedElement") -> dict:
    """The kernel's ``{index: coefficient}`` form of an element of ``alg``
    (identity first: value equality compares every field)."""
    if x.alg is not alg and x.alg != alg:
        raise AlgebraError(x._mismatch)
    return {i: _exact(c) for i, c in x.terms}


def _check_index(alg: IndexedAlgebra, i: int) -> int:
    if not alg.contains(i):
        raise AlgebraError(f"index {i} outside {alg.name}")
    return i


class IndexedElement(LinearCombination):
    """Finite rational combination of basis vectors of an IndexedAlgebra,
    with terms in increasing index order."""

    __slots__ = ()

    #: the parent slot, read as the algebra
    alg = LinearCombination._parent
    _check_key = staticmethod(_check_index)
    _mismatch = "elements of different indexed algebras"

    def __mul__(self, other):
        if isinstance(other, IndexedElement):
            alg = self.alg
            return IndexedElement(
                alg, _product(alg, _vector(alg, self), _vector(alg, other))
            )
        return self.scale(other)

    def __str__(self) -> str:
        return format_linear((self.alg.basis_name(i), c) for i, c in self.terms)

    def __repr__(self) -> str:
        return f"IndexedElement({self!s})"


def _witt_rule(s: int, t: int):
    return [(t + 1, s + t)]


def _leibniz_rule(s: int, t: int):
    if s == 0:
        return [(t + 1, t)]
    return [(1, s + t)]


def _binomial_rule(i: int, j: int):
    return [(math.comb(i + j - 1, j), i + j)]


_MARY = re.compile(r"^witt1_mary\((\d+)\)$")


@cache
def builtin(name: str) -> IndexedAlgebra:
    """The named algebra: witt1, leibniz_der, dual_leibniz_der,
    dual_leibniz_alg, or witt1_mary(m) with m >= 3."""
    key = name.replace(" ", "")
    if key == "witt1":
        return IndexedAlgebra("witt1", "e", _witt_rule, -1)
    if key == "leibniz_der":
        return IndexedAlgebra("leibniz_der", "f", _leibniz_rule, 0)
    if key == "dual_leibniz_der":
        return IndexedAlgebra("dual_leibniz_der", "g", _witt_rule, 0)
    if key == "dual_leibniz_alg":
        return IndexedAlgebra(
            "dual_leibniz_alg", "x", _binomial_rule, 1, power_style=True
        )
    m = _MARY.match(key)
    if m:
        arity = int(m.group(1))
        if arity < 3:
            raise AlgebraError("witt1_mary needs arity at least 3")
        return IndexedAlgebra(key, "e", _witt_rule, 0, modulus=arity - 1)
    raise AlgebraError(f"unknown indexed algebra {name!r}")


@dataclass(frozen=True)
class Counterexample:
    indices: tuple[int, ...]
    defect: IndexedElement

    def __str__(self) -> str:
        alg = self.defect.alg
        spot = ", ".join(alg.basis_name(i) for i in self.indices)
        return f"fails at ({spot}): defect {self.defect}"


@cache
def _program(w: Word) -> tuple[int, ...]:
    """``w`` in post order, built on an explicit stack: generator ``i``
    is ``i`` (push its image), a bracket is ``0`` (multiply the top two
    values)."""
    out = []
    stack = [w]
    while stack:
        u = stack.pop()
        if u.is_generator:
            out.append(u.gen)
        else:
            # the node before its children: reversed, the children come first
            out.append(0)
            stack.extend(u.children)
    out.reverse()
    return tuple(out)


def evaluate(alg: IndexedAlgebra, elem: Element, images: Sequence[IndexedElement]) -> IndexedElement:
    """Evaluate a binary non-symmetric element on the given images."""
    sig = elem.sig
    if sig.arity != 2 or sig.symmetric or sig.unital:
        raise AlgebraError("indexed algebras evaluate plain binary elements")
    if len(images) < sig.num_generators:
        raise AlgebraError("not enough images")
    vectors: dict = {}
    total: dict = {}
    for w, c in elem:
        stack = []
        for op in _program(w):
            if op:
                v = vectors.get(op)
                if v is None:
                    v = vectors[op] = _vector(alg, images[op - 1])
                stack.append(v)
            else:
                b = stack.pop()
                stack[-1] = _product(alg, stack[-1], b)
        c = _exact(c)
        for i, v in stack[0].items():
            v = total.get(i, 0) + c * v
            if v:
                total[i] = v
            else:
                del total[i]
    return IndexedElement(alg, total)


def check_identity(alg: IndexedAlgebra, ident: Identity, lo: int, hi: int):
    """Exhaustively test a multilinear identity on basis tuples with
    indices in ``lo..hi`` (clipped to the index set).  Returns ``None``
    on a clean pass or the lexicographically first
    :class:`Counterexample`."""
    if not ident.is_multilinear:
        raise AlgebraError("basis checks need a multilinear identity")
    window = alg.indices(lo, hi)
    images = {i: alg.basis(i) for i in window}
    for spot in itertools.product(window, repeat=len(ident.multidegree)):
        defect = evaluate(alg, ident.element, [images[i] for i in spot])
        if not defect.is_zero:
            return Counterexample(spot, defect)
    return None


def _triple():
    return generators(Signature(2, False, False, 3))


def left_symmetric_identity() -> Identity:
    """Associator symmetry in the first two arguments."""
    a, b, c = _triple()
    return Identity((a * b) * c - a * (b * c) - (b * a) * c + b * (a * c))


def novikov_identity() -> Identity:
    """Right multiplications commute."""
    a, b, c = _triple()
    return Identity((a * b) * c - (a * c) * b)


def jacobi_identity() -> Identity:
    """Jacobi identity of the commutator, expanded into products."""
    a, b, c = _triple()

    def comm(u, v):
        return u * v - v * u

    return Identity(comm(comm(a, b), c) + comm(comm(b, c), a) + comm(comm(c, a), b))


_NAMED = {
    "left_symmetric": left_symmetric_identity,
    "novikov": novikov_identity,
    "jacobi": jacobi_identity,
}


def named_identity(name: str) -> Identity:
    try:
        return _NAMED[name]()
    except KeyError:
        raise AlgebraError(f"unknown identity {name!r}") from None


def derivation_of_power(alg: IndexedAlgebra, s: int, n: int) -> IndexedElement:
    """Image of ``x^n`` under the derivation ``x -> x^{s+1}``, expanded
    through the left-normed recursion ``x^n = x * x^{n-1}``."""
    if n < 1:
        raise AlgebraError("powers start at 1")
    x = alg.basis(1)
    image = alg.basis(s + 1)
    out = image
    for r in range(2, n + 1):
        # D(x^r) = D(x) x^{r-1} + x D(x^{r-1})
        out = image * alg.basis(r - 1) + x * out
    return out
