"""Derivations of a free m-ary algebra and their left-symmetric product.

A derivation is determined by its coordinates, the images of the
generators: ``D = f1 d1 + ... + fn dn`` sends ``x_i`` to ``f_i`` and
extends by the Leibniz rule over brackets.  The product of two
derivations keeps the coordinates of the second, derived by the first:

    ``(u . v)(x_j) = u(v(x_j))``

This product is left-symmetric — its associator is symmetric in the
first two arguments — and its commutator is the usual Lie bracket of
derivations (composition commutator).  The Euler derivation
``x1 d1 + ... + xn dn`` is a right identity.

Derivations grade by coordinate degree: the component of degree ``s``
has coordinates of word length ``s + 1``, with ``s = -1`` possible in
the unital case.  A derivation may carry a *context*, a truncated
quotient by a variety; coordinates are then reduced after every
operation, and computations that leave the truncation window raise
:class:`~derivalg.freealg.TruncationError`, which the bounded
nilpotency probes report as :data:`~derivalg.freealg.UNKNOWN`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, islice, repeat
from operator import attrgetter
from typing import Iterable

from .freealg import (
    AlgebraError,
    Element,
    Signature,
    Word,
    bracket_words,
    first_vanishing,
    format_linear,
    generator,
)


class Derivation:
    """A derivation given by its generator images, optionally in a context."""

    __slots__ = ("sig", "coords", "context")

    def __init__(self, sig: Signature, coords: Iterable[Element], context=None):
        coords = tuple(coords)
        if len(coords) != sig.num_generators:
            raise AlgebraError(
                f"expected {sig.num_generators} coordinates, got {len(coords)}"
            )
        for f in coords:
            if f.sig != sig:
                raise AlgebraError("coordinate signature mismatch")
        if context is not None:
            if context.sig != sig:
                raise AlgebraError("context signature mismatch")
            coords = tuple(context.reduce(f) for f in coords)
        self.sig = sig
        self.coords = coords
        self.context = context

    @classmethod
    def zero(cls, sig: Signature, context=None) -> "Derivation":
        return cls(sig, [Element.zero(sig)] * sig.num_generators, context)

    @classmethod
    def single(cls, sig: Signature, i: int, f: Element, context=None) -> "Derivation":
        """The derivation ``f d_i`` (all other coordinates zero)."""
        if not 1 <= i <= sig.num_generators:
            raise AlgebraError(f"coordinate index {i} outside signature")
        coords = [Element.zero(sig)] * sig.num_generators
        coords[i - 1] = f
        return cls(sig, coords, context)

    @property
    def is_zero(self) -> bool:
        return all(f.is_zero for f in self.coords)

    def _compatible(self, other: "Derivation") -> None:
        if self.sig != other.sig or self.context != other.context:
            raise AlgebraError("derivations live in different algebras")

    def __add__(self, other: "Derivation") -> "Derivation":
        if not isinstance(other, Derivation):
            return NotImplemented
        self._compatible(other)
        return Derivation(
            self.sig,
            [f + g for f, g in zip(self.coords, other.coords)],
            self.context,
        )

    def __sub__(self, other: "Derivation") -> "Derivation":
        if not isinstance(other, Derivation):
            return NotImplemented
        self._compatible(other)
        return Derivation(
            self.sig,
            [f - g for f, g in zip(self.coords, other.coords)],
            self.context,
        )

    def __neg__(self) -> "Derivation":
        return Derivation(self.sig, [-f for f in self.coords], self.context)

    def __rmul__(self, c) -> "Derivation":
        if isinstance(c, (int, Fraction)):
            return Derivation(self.sig, [c * f for f in self.coords], self.context)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Derivation):
            return lsym_mul(self, other)
        if isinstance(other, (int, Fraction)):
            return self.__rmul__(other)
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Derivation)
            and self.sig == other.sig
            and self.coords == other.coords
            and self.context == other.context
        )

    def __hash__(self) -> int:
        return hash((self.sig, self.coords))

    def __str__(self) -> str:
        items = []
        for i, f in enumerate(self.coords, start=1):
            for w, c in reversed(f.terms):
                items.append((f"{w} d{i}", c))
        return format_linear(items)

    def __repr__(self) -> str:
        return str(self)

    def __call__(self, a: Element) -> Element:
        return apply(self, a)


def euler_derivation(sig: Signature, context=None) -> Derivation:
    """``x1 d1 + ... + xn dn``, the right identity of the product."""
    return Derivation(
        sig,
        [Element.from_word(sig, generator(i)) for i in range(1, sig.num_generators + 1)],
        context,
    )


def apply(d: Derivation, a: Element) -> Element:
    """Apply a derivation to an element by the Leibniz rule."""
    out = _leibniz(d, a)
    if d.context is not None:
        out = d.context.reduce(out)
    return out


def _leibniz(d: Derivation, a: Element) -> Element:
    """``d(a)`` by the Leibniz rule, not reduced in the context."""
    if a.sig != d.sig:
        raise AlgebraError("element signature mismatch")
    sig = d.sig
    cache: dict[Word, Element] = {}

    def der(w: Word) -> Element:
        got = cache.get(w)
        if got is None:
            if w.is_unit:
                got = Element.zero(sig)
            elif w.is_generator:
                got = d.coords[w.gen - 1]
            else:
                kids = w.children
                got = Element(sig, [
                    (bracket_words(sig, kids[:i] + (u,) + kids[i + 1:]), k)
                    for i, c in enumerate(kids)
                    for u, k in der(c).terms
                ])
            cache[w] = got
        return got

    return Element(sig, [(u, c * k) for w, c in a.terms for u, k in der(w).terms])


def lsym_mul(u: Derivation, v: Derivation) -> Derivation:
    """The left-symmetric product: coordinates of ``v`` derived by ``u``."""
    u._compatible(v)
    # the constructor reduces each coordinate in the context, once
    return Derivation(u.sig, [_leibniz(u, f) for f in v.coords], u.context)


def commutator(u: Derivation, v: Derivation) -> Derivation:
    """``u . v - v . u``, the Lie bracket of derivations."""
    return lsym_mul(u, v) - lsym_mul(v, u)


def _powers(d: Derivation, left: bool):
    """``D, D^2, D^3, ...``: left-normed (``D . p``) or right-normed
    (``p . D``), each made only when it is drawn."""
    return accumulate(repeat(d), (lambda p, e: lsym_mul(e, p)) if left else lsym_mul)


def left_power(d: Derivation, r: int) -> Derivation:
    """Left-normed power: ``D^1 = D``, ``D^(r+1) = D . D^r``."""
    if r < 1:
        raise AlgebraError("power exponent must be positive")
    return next(islice(_powers(d, left=True), r - 1, None))


def right_power(d: Derivation, r: int) -> Derivation:
    """Right-normed power: ``D^[1] = D``, ``D^[r+1] = D^[r] . D``."""
    if r < 1:
        raise AlgebraError("power exponent must be positive")
    return next(islice(_powers(d, left=False), r - 1, None))


def is_left_nilpotent(d: Derivation, bound: int = 10):
    """Least ``r <= bound`` with ``D^r = 0``; ``None`` if no such power
    exists within the bound; ``UNKNOWN`` if a context truncation cut the
    search short."""
    return first_vanishing(_powers(d, left=True), bound, attrgetter("is_zero"))


def is_right_nilpotent(d: Derivation, bound: int = 10):
    """Least ``r <= bound`` with ``D^[r] = 0``; see :func:`is_left_nilpotent`."""
    return first_vanishing(_powers(d, left=False), bound, attrgetter("is_zero"))


def grading_decompose(d: Derivation) -> dict[int, Derivation]:
    """Split into homogeneous components, keyed by grading degree.

    The component of degree ``s`` has coordinates of word length
    ``s + 1``; a constant coordinate (unital case) contributes degree -1.
    Components sum back to the derivation, and only nonzero components
    appear.
    """
    lengths: set[int] = set()
    for f in d.coords:
        lengths.update(f.degrees())
    out: dict[int, Derivation] = {}
    for l in sorted(lengths):
        out[l - 1] = Derivation(
            d.sig, [f.degree_part(l) for f in d.coords], d.context
        )
    return out
