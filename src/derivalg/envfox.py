"""Formal multiplication operators, Fox derivatives and Jacobian matrices.

Doubling the generator set ``x_1..x_n`` with partners ``y_1..y_n`` lets
the free algebra differentiate itself: the derivation ``x_i -> y_i``
(sending every partner to zero) maps an element ``b`` to its universal
derivative ``omega(b)``, homogeneous of degree one in the partners.
Peeling the root-to-partner path of each term writes ``omega(b)`` as
``sum_j u_j y_j`` where each ``u_j`` is a formal product of one-hole
multiplication operators

    ``U(b_1, .., b_{m-1}) : a  ->  <b_1, .., a, .., b_{m-1}>``

(non-symmetric products mark the hole position with an explicit slot).
The tuple ``(u_1, .., u_n)`` collects the Fox derivatives of ``b``, and
stacking the derivatives of a coordinate tuple rowwise gives its
Jacobian matrix.  Operator words act back on the algebra — optionally
reduced in a truncated variety context — and powers of a Jacobian
drive the bounded nilpotency probe :func:`mat_is_nilpotent`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from operator import matmul
from typing import Sequence

from .deriv import Derivation, apply
from .freealg import (
    AlgebraError,
    Element,
    LinearCombination,
    Signature,
    Word,
    bracket_words,
    doubled_signature,
    first_vanishing,
    format_linear,
    generator,
    is_canonical,
    normalize,
)


def partner(sig: Signature, j: int) -> Word:
    """The partner generator ``y_j``, living at index ``n + j``."""
    if not 1 <= j <= sig.num_generators:
        raise AlgebraError(f"no generator x{j} to pair")
    return generator(sig.num_generators + j)


def embed(a: Element) -> Element:
    """View an element of the base algebra inside the doubled one."""
    return Element(doubled_signature(a.sig), a.terms)


def omega(b: Element) -> Element:
    """Universal derivative: apply the derivation ``x_i -> y_i`` of the
    doubled algebra.  The result is linear in ``b`` and every term holds
    exactly one partner leaf."""
    sig = b.sig
    n = sig.num_generators
    dsig = doubled_signature(sig)
    coords = [Element.from_word(dsig, generator(n + j)) for j in range(1, n + 1)]
    coords.extend(Element.zero(dsig) for _ in range(n))
    return apply(Derivation(dsig, coords), embed(b))


class EnvGenerator:
    """One-hole multiplication operator ``U(b_1,..,b_{m-1})``.

    ``args`` are the fixed canonical words around the hole; ``slot`` is
    the 1-based hole position and must be omitted exactly when the
    product is symmetric (all positions then coincide and the args are
    kept sorted non-increasing).
    """

    __slots__ = ("sig", "slot", "args", "_key")

    def __init__(self, sig: Signature, args: Sequence[Word], slot: int | None = None):
        args = tuple(args)
        if len(args) != sig.arity - 1:
            raise AlgebraError(
                f"expected {sig.arity - 1} operator arguments, got {len(args)}"
            )
        for w in args:
            if not isinstance(w, Word):
                raise AlgebraError("operator arguments must be words")
            if not is_canonical(sig, w):
                raise AlgebraError(f"operator argument {w} is not canonical")
        if sig.symmetric:
            if slot is not None:
                raise AlgebraError("symmetric operators do not take a slot")
            args = tuple(sorted(args, reverse=True))
        elif slot is None or not 1 <= slot <= sig.arity:
            raise AlgebraError(f"slot must be in 1..{sig.arity}")
        self.sig = sig
        self.slot = slot
        self.args = args
        self._key = (0 if slot is None else slot, tuple(w.key for w in args))

    @property
    def degree(self) -> int:
        """By how much the operator raises word length."""
        return sum(w.length for w in self.args)

    def insert(self, w: Word) -> tuple[Word, ...]:
        """The children tuple with ``w`` placed in the hole."""
        if self.slot is None:
            return self.args + (w,)
        return self.args[: self.slot - 1] + (w,) + self.args[self.slot - 1 :]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EnvGenerator):
            return NotImplemented
        return self.sig == other.sig and self._key == other._key

    def __hash__(self) -> int:
        return hash((self.sig, self._key))

    def __str__(self) -> str:
        tag = "U" if self.slot is None else f"U{self.slot}"
        return f"{tag}({', '.join(str(w) for w in self.args)})"

    def __repr__(self) -> str:
        return f"EnvGenerator({self!s})"


def _mono_key(mono: tuple[EnvGenerator, ...]):
    return (len(mono), tuple(g._key for g in mono))


def _mono_str(mono: tuple[EnvGenerator, ...]) -> str:
    return "".join(str(g) for g in mono) if mono else "1"


def _check_mono(sig: Signature, mono) -> tuple[EnvGenerator, ...]:
    mono = tuple(mono)
    for g in mono:
        if not isinstance(g, EnvGenerator) or g.sig != sig:
            raise AlgebraError("operator factor signature mismatch")
    return mono


class EnvElement(LinearCombination):
    """Rational combination of formal products of one-hole operators.

    The empty product is the identity operator; terms are sorted by
    product length, then factor by factor.  Structural equality of
    normal forms is faithful for the free action; in a quotient use
    :func:`env_is_zero` on a difference for the semantic comparison.
    """

    __slots__ = ()

    #: the parent slot, read as the signature
    sig = LinearCombination._parent
    _order = staticmethod(lambda t: _mono_key(t[0]))
    _check_key = staticmethod(_check_mono)
    _mismatch = "operator signature mismatch"

    @classmethod
    def one(cls, sig: Signature) -> "EnvElement":
        return cls(sig, [((), Fraction(1))])

    def __mul__(self, other):
        if isinstance(other, EnvElement):
            self._check(other)
            return EnvElement(self.sig, [
                (m1 + m2, c1 * c2) for m1, c1 in self.terms for m2, c2 in other.terms
            ])
        return self.scale(other)

    def __str__(self) -> str:
        return format_linear((_mono_str(m), c) for m, c in reversed(self.terms))

    def __repr__(self) -> str:
        return f"EnvElement({self!s})"


def env_generator(sig: Signature, args: Sequence, slot: int | None = None) -> EnvElement:
    """Build ``U(args)`` as an operator element, expanding multilinearly
    when some arguments are algebra elements rather than single words."""
    if len(args) != sig.arity - 1:
        raise AlgebraError(
            f"expected {sig.arity - 1} operator arguments, got {len(args)}"
        )
    expanded: list[tuple[Fraction, list[Word]]] = [(Fraction(1), [])]
    for a in args:
        if isinstance(a, Word):
            pairs = [(normalize(sig, a), Fraction(1))]
        elif isinstance(a, Element):
            if a.sig != sig:
                raise AlgebraError("operator argument signature mismatch")
            pairs = list(a)
        else:
            raise AlgebraError("operator arguments must be words or elements")
        expanded = [
            (c * cw, ws + [w]) for c, ws in expanded for w, cw in pairs
        ]
    return EnvElement(sig, [((EnvGenerator(sig, ws, slot),), c) for c, ws in expanded])


def fox_derivatives(b: Element) -> tuple[EnvElement, ...]:
    """The unique operators ``u_1..u_n`` with ``omega(b) = sum u_j y_j``,
    read off by peeling the root-to-partner path of every term."""
    sig = b.sig
    n = sig.num_generators
    out: list[list] = [[] for _ in range(n)]
    for w, c in omega(b):
        factors = []
        cur = w
        while cur.is_node:
            (k,) = [
                i
                for i, ch in enumerate(cur.children)
                if ch.content and ch.content[-1][0] > n
            ]
            others = cur.children[:k] + cur.children[k + 1 :]
            factors.append(
                EnvGenerator(sig, others, None if sig.symmetric else k + 1)
            )
            cur = cur.children[k]
        out[cur.gen - n - 1].append((tuple(factors), c))
    return tuple(EnvElement(sig, terms) for terms in out)


class JacobianMatrix:
    """Square matrix of operator elements; row ``i`` lists the Fox
    derivatives of the ``i``-th coordinate."""

    __slots__ = ("sig", "entries")

    def __init__(self, sig: Signature, entries: Sequence[Sequence[EnvElement]]):
        entries = tuple(tuple(row) for row in entries)
        n = sig.num_generators
        if len(entries) != n or any(len(row) != n for row in entries):
            raise AlgebraError(f"expected a {n} by {n} matrix")
        for row in entries:
            for e in row:
                if not isinstance(e, EnvElement) or e.sig != sig:
                    raise AlgebraError("matrix entry signature mismatch")
        self.sig = sig
        self.entries = entries

    @classmethod
    def identity(cls, sig: Signature) -> "JacobianMatrix":
        n = sig.num_generators
        return cls(
            sig,
            [
                [
                    EnvElement.one(sig) if i == j else EnvElement.zero(sig)
                    for j in range(n)
                ]
                for i in range(n)
            ],
        )

    def __matmul__(self, other: "JacobianMatrix") -> "JacobianMatrix":
        if not isinstance(other, JacobianMatrix):
            return NotImplemented
        if self.sig != other.sig:
            raise AlgebraError("matrix signature mismatch")
        n = self.sig.num_generators
        rows = []
        for i in range(n):
            row = []
            for k in range(n):
                total = EnvElement.zero(self.sig)
                for j in range(n):
                    total = total + self.entries[i][j] * other.entries[j][k]
                row.append(total)
            rows.append(row)
        return JacobianMatrix(self.sig, rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JacobianMatrix):
            return NotImplemented
        return self.sig == other.sig and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.sig, self.entries))

    def __str__(self) -> str:
        rows = ["[" + ", ".join(str(e) for e in row) + "]" for row in self.entries]
        return "[" + ", ".join(rows) + "]"

    def __repr__(self) -> str:
        return f"JacobianMatrix({self!s})"


def jacobian(F) -> JacobianMatrix:
    """Jacobian of a coordinate tuple or of a derivation (its coordinates)."""
    if isinstance(F, Derivation):
        sig, coords = F.sig, F.coords
    else:
        coords = tuple(F)
        if not coords:
            raise AlgebraError("empty coordinate tuple")
        sig = coords[0].sig
    if len(coords) != sig.num_generators:
        raise AlgebraError(
            f"expected {sig.num_generators} coordinates, got {len(coords)}"
        )
    for f in coords:
        if not isinstance(f, Element) or f.sig != sig:
            raise AlgebraError("coordinate signature mismatch")
    return JacobianMatrix(sig, [fox_derivatives(f) for f in coords])


def _act(u: EnvElement, a: Element, space) -> Element:
    """Apply ``u`` to ``a`` by bracket insertion, reducing stepwise in
    ``space`` when one is given (so truncation overflow surfaces as
    :class:`~derivalg.freealg.TruncationError` rather than silent growth)."""
    sig = a.sig
    if space is not None:
        a = space.reduce(a)
    out = Element.zero(sig)
    for mono, c in u.terms:
        cur = a
        for g in reversed(mono):
            cur = Element(sig, [(bracket_words(sig, g.insert(w)), cw) for w, cw in cur])
            if space is not None:
                cur = space.reduce(cur)
            if cur.is_zero:
                break
        # every cur is a normal form (the empty product keeps the reduced a)
        out = out + c * cur
    return out


def env_act(u: EnvElement, target: Element, context=None) -> Element:
    """Module action on the doubled algebra (where the partners live)."""
    if target.sig != doubled_signature(u.sig):
        raise AlgebraError("action target must live in the doubled algebra")
    return _act(u, target, None if context is None else context.doubled())


def env_apply_alg(u: EnvElement, a: Element, context=None) -> Element:
    """Action back on the base algebra: each operator factor becomes an
    actual bracket around its argument, outermost factor last."""
    if a.sig != u.sig:
        raise AlgebraError("operator and argument signature mismatch")
    if context is not None and context.sig != u.sig:
        raise AlgebraError("context signature mismatch")
    return _act(u, a, context)


def env_is_zero(u: EnvElement, context=None) -> bool:
    """Whether ``u`` kills every partner generator — exact in the free
    case, reduced in the doubled quotient when a context is given."""
    sig = u.sig
    dsig = doubled_signature(sig)
    for j in range(1, sig.num_generators + 1):
        target = Element.from_word(dsig, partner(sig, j))
        if not env_act(u, target, context).is_zero:
            return False
    return True


def mat_is_nilpotent(J: JacobianMatrix, bound: int = 10, context=None):
    """Least ``k <= bound`` with all entries of ``J^k`` acting as zero.

    Returns ``None`` when no power within the bound vanishes and
    :data:`UNKNOWN` when a context truncation cuts the decision off.
    """
    return first_vanishing(
        accumulate(repeat(J), matmul),
        bound,
        lambda P: all(env_is_zero(e, context) for row in P.entries for e in row),
    )
