"""Finitely based varieties: T-ideal quotients of free algebras at
bounded degree.

A :class:`VarietyPresentation` is a signature together with finitely many
homogeneous identities over auxiliary variables.  Over the rationals the
T-ideal of an identity equals the T-ideal of its full multilinearization,
so the engine multilinearizes every identity first.  The homogeneous
component of degree ``d`` of the T-ideal is then spanned by one-hole
contexts filled with substitution instances:

* an *instance* substitutes reduced words (of total length ``D``) for the
  variables of a multilinear identity;
* a *context* is a canonical word over the signature plus a marker
  generator ``x_{n+1}`` that occurs exactly once, with ``d - D`` genuine
  generator leaves; filling replaces the marker by a word and
  re-canonicalizes the brackets above it.

Every such row is multihomogeneous: a context keeps its generator content
and an instance of a multilinear identity has the summed content of its
arguments.  So each degree splits into independent blocks, one per
generator content, and the rows of one block are generated directly by
pairing the contexts of every smaller content with the instances of the
complementary content.  Words, contexts and blocks all come from one
enumerator, :func:`~derivalg.freealg.words_of_content`.

Each block is row-reduced exactly with pivots on the *smallest* words, so
normal forms are spanned by the later (larger) words of each degree and
rewrite signs match hand computation.  A block depends on the
presentation and the content only, so the ``functools.cache`` memo
:func:`_block` is the one block store, shared by every truncation
window; it builds a block when it is first needed.  A
:class:`QuotientSpace` is an immutable ``(presentation, truncation)``
value whose truncation only gates which blocks it may read: ``reduce``
reads the blocks its argument touches, ``basis`` and ``dimension`` every
block of their degree.  It provides normal forms, bases, dimensions,
left-multiplication operator matrices and a bounded Engel probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from itertools import count, product
from typing import Sequence

from .freealg import (
    UNIT,
    AlgebraError,
    Element,
    Signature,
    TruncationError,
    Word,
    bracket,
    bracket_words,
    contents,
    doubled_signature,
    first_vanishing,
    generator,
    substitute,
    words_of_content,
)
from .rowreduce import RowReducer


def _content(w: Word, n: int) -> tuple[int, ...]:
    """Generator content of a word: the multiplicities of ``x1..xn``."""
    degs = dict(w.content)
    return tuple(degs.get(i, 0) for i in range(1, n + 1))


class Identity:
    """A multihomogeneous polynomial identity over auxiliary variables.

    The element lives in a free algebra whose generators play the role of
    the variables; every term must have the same multidegree.
    """

    __slots__ = ("element", "multidegree", "_hash")

    def __init__(self, element: Element):
        if element.is_zero:
            raise AlgebraError("the zero element presents no identity")
        nvars = element.sig.num_generators
        counts: tuple[int, ...] | None = None
        for w, _ in element.terms:
            tup = _content(w, nvars)
            if counts is None:
                counts = tup
            elif counts != tup:
                raise AlgebraError("identity is not multihomogeneous")
        self.element = element
        self.multidegree = counts
        self._hash = hash(element)

    @property
    def degree(self) -> int:
        return sum(self.multidegree)

    @property
    def is_multilinear(self) -> bool:
        return all(d <= 1 for d in self.multidegree)

    def variables(self) -> tuple[int, ...]:
        """Indices of the variables that actually occur."""
        return tuple(i for i, d in enumerate(self.multidegree, 1) if d > 0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Identity) and self.element == other.element

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return str(self.element)

    def __repr__(self) -> str:
        return f"Identity({self.element})"


def _linear_substitution(
    ident: Identity, images: dict[int, Element], linear_in: Sequence[int]
) -> Identity:
    """Substitute ``images`` into the identity and keep the terms of
    degree exactly one in each generator of ``linear_in``."""
    expanded = substitute(ident.element, images)
    keep = []
    for w, c in expanded.terms:
        degs = dict(w.content)
        if all(degs.get(i, 0) == 1 for i in linear_in):
            keep.append((w, c))
    return Identity(Element(expanded.sig, keep))


def multilinearize(ident: Identity) -> Identity:
    """Full multilinearization.

    Each variable of degree ``d`` is replaced by a sum of ``d`` fresh
    variables and the component linear in every fresh variable is kept.
    Over the rationals this generates the same T-ideal as the original
    identity; an already multilinear identity comes back unchanged.
    """
    if ident.is_multilinear:
        return ident
    sig = ident.element.sig
    total = sum(ident.multidegree)
    new_sig = replace(sig, num_generators=total)
    fresh = [Element.from_word(new_sig, generator(j)) for j in range(1, total + 1)]
    images: dict[int, Element] = {}
    pos = 0
    for i, d in enumerate(ident.multidegree, 1):
        if d == 0:
            continue
        img = fresh[pos]
        for j in range(pos + 1, pos + d):
            img = img + fresh[j]
        images[i] = img
        pos += d
    return _linear_substitution(ident, images, range(1, total + 1))


def partial_linearize(ident: Identity, var: int = 1) -> Identity:
    """One linearization step in a single variable.

    Substitutes ``z_var -> z_var + z_new`` (``z_new`` a fresh last
    variable) and keeps the component of degree one in ``z_new``.
    """
    d = ident.multidegree[var - 1]
    if d < 2:
        raise AlgebraError(f"variable {var} has degree {d}; nothing to linearize")
    sig = ident.element.sig
    new_sig = replace(sig, num_generators=sig.num_generators + 1)
    fresh = Element.from_word(new_sig, generator(new_sig.num_generators))
    images = {
        i: Element.from_word(new_sig, generator(i))
        for i in range(1, sig.num_generators + 1)
    }
    images[var] = images[var] + fresh
    return _linear_substitution(ident, images, (new_sig.num_generators,))


@dataclass(frozen=True)
class VarietyPresentation:
    """A signature with finitely many defining identities."""

    sig: Signature
    identities: tuple[Identity, ...] = ()

    def __post_init__(self) -> None:
        for ident in self.identities:
            isig = ident.element.sig
            if isig.arity != self.sig.arity:
                raise AlgebraError("identity arity differs from the variety's")
            if isig.symmetric and not self.sig.symmetric:
                raise AlgebraError("symmetric identity over a non-symmetric variety")
            if isig.unital and not self.sig.unital:
                raise AlgebraError("unital identity over a non-unital variety")


def variety(sig: Signature, *relations) -> VarietyPresentation:
    """Convenience constructor accepting elements and/or identities."""
    idents = tuple(
        r if isinstance(r, Identity) else Identity(r) for r in relations
    )
    return VarietyPresentation(sig, idents)


def default_truncation(sig: Signature) -> int:
    return 8 if sig.arity == 2 else 9


def _word_subst(sig: Signature, w: Word, images: dict[int, Word]) -> Word:
    """Replace the generator leaves of ``w`` that ``images`` names and
    re-canonicalize the brackets above them."""
    if w.is_generator:
        return images.get(w.gen, w)
    if w.is_unit:
        return UNIT
    return bracket_words(sig, [_word_subst(sig, c, images) for c in w.children])


def _distinct(rows) -> list[dict[Word, Fraction]]:
    """The distinct nonzero vectors among ``rows``, in first-seen order;
    each row comes as ``(word, coefficient)`` pairs, summed by word."""
    out: dict[frozenset, dict[Word, Fraction]] = {}
    for pairs in rows:
        row: dict[Word, Fraction] = {}
        for w, c in pairs:
            row[w] = row.get(w, 0) + c
        row = {w: c for w, c in row.items() if c}
        if row:
            out.setdefault(frozenset(row.items()), row)
    return list(out.values())


def _with_content(pools, budget):
    """The word tuples of the product of ``pools`` whose contents add up
    to ``budget``, in product order; ``pools`` hold ``(word, content)``
    pairs."""
    if not pools:
        if not any(budget):
            yield ()
        return
    for w, c in pools[0]:
        left = tuple(b - x for b, x in zip(budget, c))
        if min(left) >= 0:
            for rest in _with_content(pools[1:], left):
                yield (w,) + rest


@cache
def _instances(
    sig: Signature, ident: Identity, content: tuple[int, ...]
) -> list[dict[Word, Fraction]]:
    """Distinct substitution instances of a multilinear identity whose
    word arguments have generator contents summing to ``content``."""
    variables = ident.variables()
    k = len(variables)
    total = sum(content)
    # words of each length inside the content, in word order
    pools = {
        l: sorted(
            ((w, c) for c in contents(l, content) for w in words_of_content(sig, c)),
            key=lambda t: t[0].key,
        )
        for l in range(1, total - k + 2)
    }
    # the argument lengths: compositions of ``total`` into ``k`` positive parts
    images = (
        dict(zip(variables, combo))
        for parts in contents(total - k, (total - k,) * k)
        for combo in _with_content([pools[p + 1] for p in parts], content)
    )
    return _distinct(
        [(_word_subst(sig, w, im), c) for w, c in ident.element.terms] for im in images
    )


def one_hole_contexts(sig: Signature, content: tuple[int, ...]) -> tuple[Word, ...]:
    """Canonical words of generator content ``content`` plus one leaf of
    the marker generator ``x_{n+1}``, the place a filling word goes."""
    marked = replace(sig, num_generators=sig.num_generators + 1)
    return words_of_content(marked, content + (1,))


@cache
def _multilinearized(presentation: VarietyPresentation) -> tuple[Identity, ...]:
    return tuple(multilinearize(i) for i in presentation.identities)


def _context_pairs(sig, ident, degree, total, content):
    """``(context, instance)`` pairs that fill to degree ``degree``,
    grouped by context content; with a ``content``, each context meets
    the instances of the complementary content, so only rows of that
    content arise; without one, it meets the instances of every content
    of length ``total``."""
    outer = degree - total
    n = sig.num_generators
    bound = (outer,) * n if content is None else content
    for ctx_content in contents(outer, bound):
        contexts = one_hole_contexts(sig, ctx_content)
        if contexts:
            if content is None:
                rests = contents(total, (total,) * n)
            else:
                rests = [tuple(a - b for a, b in zip(content, ctx_content))]
            instances = [i for rest in rests for i in _instances(sig, ident, rest)]
            yield from product(contexts, instances)


def relation_rows(
    presentation: VarietyPresentation,
    degree: int,
    content: tuple[int, ...] | None = None,
) -> list[dict[Word, Fraction]]:
    """Spanning rows of the degree-``degree`` component of the T-ideal,
    as sparse word-keyed vectors (deduplicated, not row-reduced).

    Every row is multihomogeneous.  Given a ``content`` (one multiplicity
    per generator), only the rows of that generator content are
    generated: the same rows, in the same order, as filtering all rows.
    """
    sig = presentation.sig
    marker = sig.num_generators + 1
    pairs = (
        pair
        for ident in _multilinearized(presentation)
        for total in range(len(ident.variables()), degree + 1)
        for pair in _context_pairs(sig, ident, degree, total, content)
    )
    return _distinct(
        [(_word_subst(sig, ctx, {marker: w}), c) for w, c in inst.items()]
        for ctx, inst in pairs
    )


@cache
def _block(presentation: VarietyPresentation, content: tuple[int, ...]):
    """The words, column index and row reducer of one content block,
    built on first use from the relation rows of that content alone: the
    one block store, read by every truncation window of the presentation."""
    words = words_of_content(presentation.sig, content)
    index = {w: j for j, w in enumerate(words)}
    reducer = RowReducer()
    for row in relation_rows(presentation, sum(content), content):
        reducer.add({index[w]: c for w, c in row.items()})
    return words, index, reducer


@dataclass(frozen=True)
class QuotientSpace:
    """Degreewise normal forms modulo the T-ideal, up to a truncation.

    A value: equal presentations and truncations give equal spaces, and
    all of them read their blocks from the shared :func:`_block` store.
    The truncation gates that store: no block past it is read, even one
    a wider window has built.
    """

    presentation: VarietyPresentation
    truncation: int | None = None
    sig: Signature = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sig", self.presentation.sig)
        if self.truncation is None:
            object.__setattr__(self, "truncation", default_truncation(self.sig))
        if self.truncation < 1:
            raise AlgebraError("truncation must be positive")

    def _admit(self, degree: int) -> None:
        """Raise :class:`TruncationError` for a degree past the window."""
        if degree > self.truncation:
            raise TruncationError(f"degree {degree} beyond truncation {self.truncation}")

    def dimension(self, degree: int) -> int:
        return len(self.basis(degree))

    def basis(self, degree: int) -> tuple[Word, ...]:
        """Normal-form words at one degree (non-pivot words, increasing),
        merged from every content block of the degree."""
        if degree == 0:
            return (UNIT,) if self.sig.unital else ()
        self._admit(degree)
        free: list[Word] = []
        for content in contents(degree, (degree,) * self.sig.num_generators):
            words, _, reducer = _block(self.presentation, content)
            pivots = set(reducer.pivot_columns())
            free.extend(w for j, w in enumerate(words) if j not in pivots)
        return tuple(sorted(free))

    def reduce(self, a: Element) -> Element:
        """Normal form of an element; raises
        :class:`~derivalg.freealg.TruncationError` beyond the window.
        Only the content blocks that the element touches are built."""
        if a.sig != self.sig:
            raise AlgebraError("element signature mismatch")
        n = self.sig.num_generators
        groups: dict[tuple[int, ...], list] = {}
        for w, c in a.terms:
            groups.setdefault(_content(w, n), []).append((w, c))
        out = []
        for content, terms in groups.items():
            if not any(content):
                # no relations reach the unit's degree
                out.extend(terms)
                continue
            self._admit(sum(content))
            words, index, reducer = _block(self.presentation, content)
            row = {index[w]: c for w, c in terms}
            out.extend((words[j], v) for j, v in reducer.reduce(row).items())
        return Element(self.sig, out)

    def doubled(self) -> "QuotientSpace":
        """The same variety presented on twice as many generators, used
        as the coefficient algebra for universal-derivation computations."""
        return quotient_space(
            VarietyPresentation(
                doubled_signature(self.sig), self.presentation.identities
            ),
            self.truncation,
        )


@cache
def quotient_space(
    presentation: VarietyPresentation, truncation: int | None = None
) -> QuotientSpace:
    """Shared quotient context for a presentation.

    A ``functools.cache`` memo: one instance serves all callers until
    ``quotient_space.cache_clear()``.  Its blocks live in the
    :func:`_block` store, which every window of the presentation shares.
    """
    return QuotientSpace(presentation, truncation)


def left_mul_matrix(
    b: Element,
    presentation: VarietyPresentation,
    degree: int,
    truncation: int | None = None,
) -> list[list[Fraction]]:
    """Matrix of ``a -> <b, ..., b, a>`` between quotient bases.

    ``b`` must be homogeneous; the operator maps degree ``degree`` to
    ``degree + (m-1) * deg b``.  Rows are indexed by the target basis,
    columns by the source basis, both in increasing word order.
    """
    space = quotient_space(presentation, truncation)
    b = space.reduce(b)
    if b.is_zero:
        degs = [0]
    else:
        degs = b.degrees()
    if len(degs) > 1:
        raise AlgebraError("left multiplication needs a homogeneous element")
    step = (space.sig.arity - 1) * degs[0]
    source = space.basis(degree)
    target = space.basis(degree + step)
    tindex = {w: i for i, w in enumerate(target)}
    matrix = [[Fraction(0)] * len(source) for _ in target]
    for j, w in enumerate(source):
        img = space.reduce(
            bracket([b] * (space.sig.arity - 1) + [Element.from_word(space.sig, w)])
        )
        for u, c in img.terms:
            matrix[tindex[u]][j] = c
    return matrix


def mat_mul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """Product of dense Fraction matrices (zero-row/column tolerant)."""
    if a and b and len(a[0]) != len(b):
        raise AlgebraError("matrix shape mismatch")
    cols = len(b[0]) if b else 0
    out = [[Fraction(0)] * cols for _ in a]
    for i, arow in enumerate(a):
        for k, v in enumerate(arow):
            if v:
                brow = b[k]
                orow = out[i]
                for j in range(cols):
                    if brow[j]:
                        orow[j] += v * brow[j]
    return out


def mat_is_zero(a: list[list[Fraction]]) -> bool:
    return all(not v for row in a for v in row)


def engel_index(
    presentation: VarietyPresentation,
    bound: int = 10,
    truncation: int | None = None,
):
    """Least ``q <= bound`` such that the q-th power of left multiplication
    by the first generator vanishes on every degree the truncation lets us
    test; ``None`` when every ``q`` up to the bound fails on a computed
    degree; ``UNKNOWN`` when the search reaches a ``q`` the window cannot test."""
    sig = presentation.sig
    x = Element.from_word(sig, generator(1))
    step = sig.arity - 1
    m = sig.arity

    def kills(q: int) -> bool:
        # fetched here, so a bad bound is reported before a bad truncation
        space = quotient_space(presentation, truncation)
        space._admit(1 + q * step)
        for d in range(1, space.truncation - q * step + 1):
            for w in space.basis(d):
                e = Element.from_word(sig, w)
                for _ in range(q):
                    e = space.reduce(bracket([x] * (m - 1) + [e]))
                    if e.is_zero:
                        break
                if not e.is_zero:
                    return False
        return True

    return first_vanishing(count(1), bound, kills)
