"""Exact free m-ary algebras: tree words and rational linear combinations.

A :class:`Signature` fixes an arity ``m >= 2``, whether the bracket is
symmetric (invariant under every permutation of its arguments), whether a
unit element is adjoined (binary case only) and the number of free
generators.  A :class:`Word` is a rooted tree whose leaves are generators
``x1..xn`` (or the unit) and whose internal nodes carry exactly ``m``
children.  Symmetric words are kept canonical by sorting children in
non-increasing word order, and the unit is absorbed into brackets, so
structural equality of canonical words is algebra equality and every
computation stays exact over ``Fraction`` coefficients.

The word order is total: shorter words first, generators by index, nodes
lexicographically by their children.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from operator import attrgetter


class AlgebraError(Exception):
    """Domain error: malformed word, mismatched signature, bad argument."""


class ArityError(AlgebraError):
    """A bracket does not carry exactly the signature's number of arguments."""


class TruncationError(AlgebraError):
    """A computation needed degrees beyond a truncated quotient's window."""


class _Unknown:
    __slots__ = ()

    def __repr__(self) -> str:
        return "unknown"

    def __bool__(self) -> bool:
        return False


#: Sentinel returned by bounded searches that a truncation cut short:
#: the property could neither be confirmed nor refuted inside the window.
UNKNOWN = _Unknown()


def first_vanishing(powers: Iterable, bound: int, vanishes: Callable[..., bool]):
    """The loop under every bounded probe: the least ``k <= bound`` whose
    ``k``-th item of ``powers`` passes ``vanishes``; ``None`` if none up to
    the bound does; :data:`UNKNOWN` if making or testing one raises
    :class:`TruncationError`.  No item past the answer or bound is made."""
    if bound < 1:
        raise AlgebraError("bound must be positive")
    try:
        for k, item in zip(range(1, bound + 1), powers):
            if vanishes(item):
                return k
    except TruncationError:
        return UNKNOWN
    return None


@dataclass(frozen=True)
class Signature:
    """Shape of a free algebra: arity, symmetry, unit, generator count."""

    arity: int = 2
    symmetric: bool = True
    unital: bool = False
    num_generators: int = 1

    def __post_init__(self) -> None:
        if self.arity < 2:
            raise AlgebraError("arity must be at least 2")
        if self.unital and self.arity != 2:
            raise AlgebraError("a unit is only supported in the binary case")
        if self.num_generators < 1:
            raise AlgebraError("need at least one generator")


def doubled_signature(sig: Signature) -> Signature:
    """The same operations over ``x_1..x_n`` plus partners ``y_1..y_n``."""
    return replace(sig, num_generators=2 * sig.num_generators)


_NODE = -1


class Word:
    """Immutable tree word.

    Instances are interned: build them through :func:`generator`,
    :data:`UNIT` and :func:`node`, never directly.  ``node`` keeps one
    word per child tuple for the life of the process; ``generator`` is a
    ``functools.cache`` memo.  Raw (non-canonical) trees are accepted
    only by :func:`normalize`; every other operation expects canonical
    input.  ``key`` is a total-order sort key that also encodes the full
    tree, so key equality is structural equality, and words stay equal
    across a ``cache_clear()``.  A word carries its generator ``content``,
    the sorted ``(index, multiplicity)`` pairs of the generators in it
    (invariant under canonicalization; :func:`words_of_content` enumerates
    the canonical words of one content).  ``node`` sums the children's
    contents and a word hashes its children's cached hashes: no tree walks.
    """

    __slots__ = ("gen", "children", "length", "content", "key", "_hash")

    def __init__(self, gen, children, length, content, key):
        self.gen = gen
        self.children = children
        self.length = length
        self.content = content
        self.key = key
        self._hash = hash((gen, length) + tuple(c._hash for c in children))

    @property
    def is_unit(self) -> bool:
        return self.gen == 0

    @property
    def is_generator(self) -> bool:
        return self.gen > 0

    @property
    def is_node(self) -> bool:
        return self.gen == _NODE

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Word) and self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Word") -> bool:
        return self.key < other.key

    def __le__(self, other: "Word") -> bool:
        return self.key <= other.key

    def __gt__(self, other: "Word") -> bool:
        return self.key > other.key

    def __ge__(self, other: "Word") -> bool:
        return self.key >= other.key

    def __str__(self) -> str:
        # words and literal pieces on one stack, so that words of any depth print
        out = []
        stack: list = [self]
        while stack:
            w = stack.pop()
            if isinstance(w, str):
                out.append(w)
            elif w.children:
                stack.append(")")
                for c in reversed(w.children):
                    stack += (c, " ")
                stack[-1] = "("
            else:
                out.append(f"x{w.gen}" if w.is_generator else "1")
        return "".join(out)

    def __repr__(self) -> str:
        return str(self)


UNIT = Word(0, (), 0, (), (0, 0))

_key = attrgetter("key")

_NODE_CACHE: dict[tuple, Word] = {}


@cache
def generator(i: int) -> Word:
    """The generator leaf ``x_i`` (indices are 1-based)."""
    if i < 1:
        raise AlgebraError("generator indices are 1-based")
    return Word(i, (), 1, ((i, 1),), (1, 0, i))


def node(children: Iterable[Word]) -> Word:
    """A bracket node over the given children, without canonicalization."""
    tup = tuple(children)
    w = _NODE_CACHE.get(tup)
    if w is None:
        counts: dict[int, int] = {}
        for c in tup:
            for i, k in c.content:
                counts[i] = counts.get(i, 0) + k
        length = sum(c.length for c in tup)
        key = (length, 1) + tuple(c.key for c in tup)
        content = tuple(sorted(counts.items()))
        w = _NODE_CACHE[tup] = Word(_NODE, tup, length, content, key)
    return w


def bracket_words(sig: Signature, children: Sequence[Word]) -> Word:
    """Canonical bracket of canonical words: absorbs the unit, sorts
    symmetric children non-increasingly."""
    if len(children) != sig.arity:
        raise ArityError(
            f"bracket of {len(children)} arguments in arity {sig.arity}"
        )
    if sig.unital:
        if children[0].is_unit:
            return children[1]
        if children[1].is_unit:
            return children[0]
    if sig.symmetric:
        children = sorted(children, reverse=True)
    return node(children)


def normalize(sig: Signature, w: Word) -> Word:
    """Canonical form of a raw tree.

    Validates leaf indices and node arities against the signature, absorbs
    unit children (binary unital case) and sorts the children of symmetric
    nodes.  Idempotent on canonical words.  Words of any depth are walked
    on an explicit stack, checking the nodes in pre-order, so the first
    fault from the left is the one reported.
    """
    m = sig.arity
    done: list[Word] = []  # canonical forms of the finished subtrees
    stack: list[Word | None] = [w]  # None: bracket the last m finished ones
    while stack:
        u = stack.pop()
        if u is None:
            children = done[-m:]
            del done[-m:]
            done.append(bracket_words(sig, children))
        elif u.is_generator:
            if u.gen > sig.num_generators:
                raise AlgebraError(f"generator x{u.gen} outside signature")
            done.append(u)
        elif u.is_unit:
            if not sig.unital:
                raise AlgebraError("unit in a non-unital signature")
            done.append(u)
        elif len(u.children) != m:
            raise ArityError(f"node with {len(u.children)} children in arity {m}")
        else:
            stack.append(None)
            stack.extend(reversed(u.children))
    return done[0]


def is_canonical(sig: Signature, w: Word) -> bool:
    """Whether ``w`` is already in the canonical form of ``sig``."""
    try:
        return normalize(sig, w) == w
    except AlgebraError:
        return False


def format_linear(items: Iterable[tuple[str, Fraction]]) -> str:
    """Render ``(text, coefficient)`` pairs as a signed sum.

    Unit coefficients are suppressed, the first sign attaches without a
    space, and an empty sum renders as ``0``.
    """
    chunks: list[str] = []
    for text, c in items:
        mag = abs(c)
        body = text if mag == 1 else f"{mag}*{text}"
        if not chunks:
            chunks.append(f"-{body}" if c < 0 else body)
        else:
            chunks.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(chunks) if chunks else "0"


class LinearCombination:
    """A finite rational linear combination of keys over a parent.

    The one sparse core behind :class:`Element`, ``envfox.EnvElement``
    and ``structconst.IndexedElement``.  Callers pass raw ``(key,
    coefficient)`` pairs and only the constructor sums them: repeated
    keys are added, zero coefficients dropped, every coefficient becomes
    a ``Fraction``, and ``terms`` is an association tuple sorted by the
    subclass's ``_order`` (a sort key on ``(key, coefficient)`` pairs;
    ``None`` sorts the keys naturally), which makes equality, hashing and
    printing deterministic.  A subclass exposes the parent under its own
    name, may validate and convert every key through ``_check_key``, and
    defines its own product and printing.
    """

    __slots__ = ("_parent", "terms")

    _order = None
    _check_key = None
    _mismatch = "mixed parents"

    def __init__(self, parent, data: Mapping | Iterable = ()):
        items = data.items() if isinstance(data, Mapping) else data
        check = self._check_key
        if check is not None:
            items = ((check(parent, k), c) for k, c in items)
        acc: dict = {}
        for k, c in items:
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                prev = acc.get(k)
                total = c if prev is None else prev + c
                if total:
                    acc[k] = total
                elif prev is not None:
                    del acc[k]
        self._parent = parent
        self.terms = tuple(sorted(acc.items(), key=self._order))

    @classmethod
    def zero(cls, parent):
        return cls(parent)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, key) -> Fraction:
        for k, c in self.terms:
            if k == key:
                return c
        return Fraction(0)

    def __iter__(self) -> Iterator[tuple[object, Fraction]]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check(self, other: "LinearCombination") -> None:
        if self._parent != other._parent:
            raise AlgebraError(self._mismatch)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return type(self)(self._parent, self.terms + other.terms)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        negated = ((k, -c) for k, c in other.terms)
        return type(self)(self._parent, itertools.chain(self.terms, negated))

    def __neg__(self):
        return type(self)(self._parent, [(k, -c) for k, c in self.terms])

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return type(self)(self._parent)
        return type(self)(self._parent, [(k, c * v) for k, v in self.terms])

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __truediv__(self, c):
        return self.scale(Fraction(1, 1) / Fraction(c))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._parent == other._parent and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self._parent, self.terms))


class Element(LinearCombination):
    """A finite rational linear combination of canonical words.

    Terms are sorted in increasing word order.  Supports addition,
    subtraction, scalar multiplication and (in the binary case) ``a * b``
    as the bracket.
    """

    __slots__ = ()

    #: the parent slot, read as the signature
    sig = LinearCombination._parent
    _order = staticmethod(lambda t: t[0].key)
    _mismatch = "mixed signatures"

    @classmethod
    def from_word(cls, sig: Signature, w: Word, coeff=1) -> "Element":
        return cls(sig, [(w, coeff)])

    def support(self) -> tuple[Word, ...]:
        return tuple(w for w, _ in self.terms)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, Element):
            if self.sig.arity != 2:
                raise ArityError("a * b is binary; use bracket() for m > 2")
            return bracket([self, other])
        return NotImplemented

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({w.length for w, _ in self.terms}))

    def degree_part(self, d: int) -> "Element":
        return Element(self.sig, [(w, c) for w, c in self.terms if w.length == d])

    def homogeneous_parts(self) -> dict[int, "Element"]:
        return {d: self.degree_part(d) for d in self.degrees()}

    def __str__(self) -> str:
        return format_linear((str(w), c) for w, c in reversed(self.terms))

    def __repr__(self) -> str:
        return str(self)


def generators(sig: Signature) -> tuple[Element, ...]:
    """The generators of the free algebra, as elements."""
    return tuple(
        Element.from_word(sig, generator(i))
        for i in range(1, sig.num_generators + 1)
    )


def unit_element(sig: Signature) -> Element:
    if not sig.unital:
        raise AlgebraError("unit in a non-unital signature")
    return Element.from_word(sig, UNIT)


def bracket(args: Sequence[Element]) -> Element:
    """The m-linear bracket of m elements (canonical result)."""
    if not args:
        raise ArityError("empty bracket")
    sig = args[0].sig
    for a in args[1:]:
        if a.sig != sig:
            raise AlgebraError("mixed signatures in bracket")
    if len(args) != sig.arity:
        raise ArityError(f"bracket of {len(args)} arguments in arity {sig.arity}")
    pairs = []
    for combo in itertools.product(*(a.terms for a in args)):
        c = combo[0][1]
        for t in combo[1:]:
            c = c * t[1]
        pairs.append((bracket_words(sig, [t[0] for t in combo]), c))
    return Element(sig, pairs)


def contents(total: int, bound: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The generator contents ``c`` with ``0 <= c[i] <= bound[i]`` and
    ``sum(c) == total``, in lexicographic order."""
    if not bound:
        if total == 0:
            yield ()
        return
    for first in range(max(0, total - sum(bound[1:])), min(total, bound[0]) + 1):
        for rest in contents(total - first, bound[1:]):
            yield (first,) + rest


@cache
def words_of_content(sig: Signature, content: tuple[int, ...]) -> tuple[Word, ...]:
    """The canonical words in which generator ``x_i`` occurs
    ``content[i - 1]`` times, in increasing word order.

    The one word enumerator of the package: a bracket splits the content
    among its children, none of them empty, since the unit is absorbed.
    """
    if len(content) != sig.num_generators or min(content) < 0:
        raise AlgebraError(f"content {content} does not fit {sig}")
    total = sum(content)
    if total == 0:
        return (UNIT,) if sig.unital else ()
    if total == 1:
        return (generator(content.index(1) + 1),)
    symmetric = sig.symmetric

    # symmetric children come in non-increasing order, so each tuple is canonical
    def rec(bound: Word | None, slots: int, budget: tuple[int, ...]):
        if slots == 1:
            for w in words_of_content(sig, budget):
                if symmetric and bound is not None and bound < w:
                    return
                yield (w,)
            return
        for l in range(1, sum(budget) - slots + 2):
            for c in contents(l, budget):
                rest = tuple(b - x for b, x in zip(budget, c))
                for w in words_of_content(sig, c):
                    if symmetric and bound is not None and bound < w:
                        break
                    for tail in rec(w, slots - 1, rest):
                        yield (w,) + tail

    return tuple(sorted((node(t) for t in rec(None, sig.arity, content)), key=_key))


@cache
def enumerate_reduced(sig: Signature, length: int) -> tuple[Word, ...]:
    """All canonical words of the given length, in increasing word order:
    the merged :func:`words_of_content` of every content of that length.

    Lengths that no word of the signature can attain (for instance even
    lengths when m = 3, or 0 in the non-unital case) give the empty tuple.
    """
    blocks = contents(length, (length,) * sig.num_generators)
    words = itertools.chain.from_iterable(words_of_content(sig, c) for c in blocks)
    return tuple(sorted(words, key=_key))


def substitute(template: Element, images: Mapping[int, Element]) -> Element:
    """Evaluate a template word-by-word, sending generator ``i`` to
    ``images[i]``.

    The images fix the target signature (their arity must agree with the
    template's); every generator occurring in the template must be
    assigned.  A symmetric template may not be evaluated in a
    non-symmetric target, where its canonical representative would be an
    arbitrary choice.
    """
    if not images:
        raise AlgebraError("empty assignment")
    vals = list(images.values())
    target = vals[0].sig
    for v in vals[1:]:
        if v.sig != target:
            raise AlgebraError("mixed signatures in assignment")
    if target.arity != template.sig.arity:
        raise AlgebraError("arity mismatch between template and images")
    if template.sig.symmetric and not target.symmetric:
        raise AlgebraError("symmetric template over a non-symmetric target")

    cache: dict[Word, Element] = {}

    def ev(w: Word) -> Element:
        got = cache.get(w)
        if got is None:
            if w.is_generator:
                try:
                    got = images[w.gen]
                except KeyError:
                    raise AlgebraError(f"unassigned variable x{w.gen}") from None
            elif w.is_unit:
                got = unit_element(target)
            else:
                got = bracket([ev(c) for c in w.children])
            cache[w] = got
        return got

    return Element(
        target, [(u, c * k) for w, c in template.terms for u, k in ev(w).terms]
    )


def generator_degrees(w: Word) -> dict[int, int]:
    """Leaf multiplicities of a word: generator index -> occurrence count."""
    return dict(w.content)
