"""Generation of the positive derivations of a free one-variable algebra.

Over a symmetric signature with a single generator x, every derivation
``w dx`` with ``l(w) > 1`` is a rational combination of left-symmetric
products of the single seed ``D = <x,..,x> dx``.  The construction runs
by induction on the pair ``(l(w), rho(w))``, where ``rho(w)`` counts the
children of ``w`` longer than a generator: replacing the last long
child ``w_i`` by ``x`` gives a shorter word ``u``, the product
``(w_i dx)(u dx)`` hits ``w`` with coefficient ``m - i + 1``, and the
remaining terms of the expansion have smaller ``rho``.  The coefficient
is asserted at runtime instead of trusted.

:func:`certificate` returns the resulting expression over the atoms
``D`` and ``E`` (``E`` is the Euler derivation ``x dx``), checked by
evaluation before it is handed out.  :func:`span_check` confirms the
generation claim degree by degree, closing the seeds under the product
and comparing dimensions against the count of reduced words.  A degree
that reaches full rank is carried forward as its word basis ``w dx``,
so the products above it are of sparse monomials with integer scalars.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable

from .deriv import Derivation, apply, euler_derivation, grading_decompose, lsym_mul
from .freealg import (
    AlgebraError,
    Element,
    Signature,
    Word,
    bracket_words,
    format_linear,
    generator,
    is_canonical,
    words_of_content,
)
from .rowreduce import RowReducer


def _validate_signature(sig: Signature) -> None:
    if sig.num_generators != 1:
        raise AlgebraError("generation analysis needs exactly one generator")
    if not sig.symmetric:
        raise AlgebraError("generation analysis needs a symmetric product")
    if sig.unital:
        raise AlgebraError("generation analysis needs a non-unital signature")


def rho(sig: Signature, w: Word) -> int | None:
    """Position of the last child longer than a generator, or ``None``
    when every child is ``x``.  Canonical sorting makes this the count
    of non-generator children."""
    _validate_signature(sig)
    if w.is_generator:
        raise AlgebraError("rho is defined for words of length > 1")
    if not is_canonical(sig, w):
        raise AlgebraError(f"{w} is not canonical")
    count = sum(1 for c in w.children if c.length > 1)
    return count if count else None


def seed_derivation(sig: Signature) -> Derivation:
    """The generator ``D = <x,..,x> dx`` of the positive part."""
    _validate_signature(sig)
    x = generator(1)
    return Derivation(
        sig, [Element.from_word(sig, bracket_words(sig, (x,) * sig.arity))]
    )


def _atom(sig: Signature, name: str) -> Derivation:
    return seed_derivation(sig) if name == "D" else euler_derivation(sig)


def _eval_expr(sig: Signature, expr) -> Derivation:
    if isinstance(expr, str):
        return _atom(sig, expr)
    left, right = expr
    return lsym_mul(_eval_expr(sig, left), _eval_expr(sig, right))


def _expr_str(expr, top: bool = True) -> str:
    if isinstance(expr, str):
        return expr
    left, right = expr
    body = f"{_expr_str(left, False)}*{_expr_str(right, False)}"
    return body if top else f"({body})"


@dataclass(frozen=True)
class Certificate:
    """A target word together with an expression over the atoms ``D``
    and ``E`` whose evaluation is exactly ``target dx``.  Scalars sit
    only at the root of each summand."""

    sig: Signature
    target: Word
    terms: tuple[tuple[Fraction, object], ...]

    def evaluate(self) -> Derivation:
        total = Derivation.zero(self.sig)
        for c, expr in self.terms:
            total = total + c * _eval_expr(self.sig, expr)
        return total

    def atoms(self) -> set[str]:
        out: set[str] = set()

        def walk(expr):
            if isinstance(expr, str):
                out.add(expr)
            else:
                walk(expr[0])
                walk(expr[1])

        for _, expr in self.terms:
            walk(expr)
        return out

    def expression(self) -> str:
        return format_linear((_expr_str(e), c) for c, e in self.terms)

    def __str__(self) -> str:
        return f"{self.target} dx = {self.expression()}"


def _combine(scale: Fraction, parts: Iterable[tuple[Fraction, object]]):
    acc: dict[object, Fraction] = {}
    for c, expr in parts:
        total = acc.get(expr, Fraction(0)) + scale * c
        if total:
            acc[expr] = total
        elif expr in acc:
            del acc[expr]
    return tuple((c, expr) for expr, c in acc.items())


@cache
def certificate(sig: Signature, w: Word) -> Certificate:
    """Express ``w dx`` through the seed, following the rho-induction."""
    _validate_signature(sig)
    if not is_canonical(sig, w):
        raise AlgebraError(f"{w} is not canonical")
    if w.is_generator:
        return Certificate(sig, w, ((Fraction(1), "E"),))
    i = rho(sig, w)
    if i is None:
        return Certificate(sig, w, ((Fraction(1), "D"),))
    m = sig.arity
    x = generator(1)
    wi = w.children[i - 1]
    u = bracket_words(sig, w.children[: i - 1] + (x,) * (m - i + 1))
    expansion = apply(
        Derivation(sig, [Element.from_word(sig, wi)]), Element.from_word(sig, u)
    )
    coef = expansion.coeff(w)
    if coef != m - i + 1:
        raise AlgebraError(
            f"expansion coefficient {coef} at {w}, expected {m - i + 1}"
        )
    cert_wi = certificate(sig, wi)
    cert_u = certificate(sig, u)
    parts = [
        (c1 * c2, (e1, e2))
        for c1, e1 in cert_wi.terms
        for c2, e2 in cert_u.terms
    ]
    for t, ct in expansion:
        if t == w:
            continue
        for c, expr in certificate(sig, t).terms:
            parts.append((-ct * c, expr))
    cert = Certificate(sig, w, _combine(Fraction(1, coef), parts))
    if cert.evaluate() != Derivation(sig, [Element.from_word(sig, w)]):
        raise AlgebraError(f"certificate for {w} failed its evaluation check")
    return cert


def _vector(f: Element, index: dict[Word, int]) -> dict[int, Fraction]:
    return {index[w]: c for w, c in f}


@dataclass(frozen=True)
class SpanReport:
    """Per-degree dimensions of the product closure of the seeds next
    to the reduced-word counts; passes when every degree matches."""

    sig: Signature
    max_degree: int
    rows: tuple[tuple[int, int, int], ...]  # (degree, closed, expected)

    @property
    def passed(self) -> bool:
        return all(got == want for _, got, want in self.rows)

    def dimensions(self) -> tuple[int, ...]:
        return tuple(got for _, got, _ in self.rows)

    def __str__(self) -> str:
        lines = [
            f"degree {d}: {got}/{want}" + ("" if got == want else "  <- gap")
            for d, got, want in self.rows
        ]
        verdict = "generate" if self.passed else "do not generate"
        return "\n".join(lines + [f"seeds {verdict} up to degree {self.max_degree}"])


def span_check(
    sig: Signature, max_degree: int, seeds: Iterable[Derivation] | None = None
) -> SpanReport:
    """Close the seeds (default ``E`` and ``D``) under the product and
    compare each degree with the full space of derivations.  Degree s
    is spanned by the products of degrees a and s - a, so it depends only
    on the spans below it: a full-rank degree is carried forward as the
    words ``w dx``, and a degree with a gap keeps its kept products."""
    _validate_signature(sig)
    if max_degree < 0:
        raise AlgebraError("max_degree must be non-negative")
    if seeds is None:
        seeds = (euler_derivation(sig), seed_derivation(sig))
    by_degree: dict[int, list[Derivation]] = {}
    for d in seeds:
        if d.sig != sig:
            raise AlgebraError("seed signature mismatch")
        for s, part in grading_decompose(d).items():
            by_degree.setdefault(s, []).append(part)

    basis: dict[int, list[Derivation]] = {}
    rows = []
    for s in range(0, max_degree + 1):
        words = words_of_content(sig, (s + 1,))
        index = {w: i for i, w in enumerate(words)}
        red = RowReducer()
        kept: list[Derivation] = []
        products = (
            lsym_mul(u, v)
            for a in range(1, s)
            for u in basis.get(a, ())
            for v in basis.get(s - a, ())
        )
        for d in itertools.chain(by_degree.get(s, ()), products):
            if red.rank == len(words):
                break  # full rank: every later candidate is dependent
            if not d.is_zero and red.add(_vector(d.coords[0], index)):
                kept.append(d)
        if red.rank == len(words):  # the closure is every w dx: carry words on
            kept = [Derivation(sig, [Element.from_word(sig, w)]) for w in words]
        basis[s] = kept
        rows.append((s, len(kept), len(words)))
    return SpanReport(sig, max_degree, tuple(rows))
