"""Text grammar for words, elements, derivations and indexed elements.

Words are s-expressions over generators ``x1..xn`` and the unit ``1``:
``(x1 (x1 x1))``.  Elements are signed sums of terms ``coeff*word``
with rational coefficients (``3/2*(x1 x1) - x1``); a bare ``1`` is the
unit word and a bare ``0`` the zero element.  Derivations are either
signed sums of coordinate terms ``coeff*word d<i>`` or the compact
``D[f1, .., fn]`` listing every coordinate.  Indexed-algebra elements
are sums like ``2*e2 - e-1`` or ``3/2*x^3``.  Parsing is
whitespace-tolerant; every error carries the offset it occurred at.
All output printed by the package parses back to an equal value.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .deriv import Derivation
from .freealg import (
    UNIT,
    AlgebraError,
    Element,
    Signature,
    Word,
    generator,
    node,
    normalize,
)
from .structconst import IndexedAlgebra, IndexedElement


class ParseError(AlgebraError):
    """Syntax error with the offset into the input text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _int(text: str, pos: int) -> int:
    """``int(text)``; a numeral longer than the interpreter converts
    raises a :class:`ParseError` at ``pos`` instead of ``ValueError``."""
    try:
        return int(text)
    except ValueError:
        raise ParseError("numeral too long", pos) from None


_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<lparen>\()"
    r"|(?P<rparen>\))"
    r"|(?P<lbracket>\[)"
    r"|(?P<rbracket>\])"
    r"|(?P<comma>,)"
    r"|(?P<plus>\+)"
    r"|(?P<minus>-)"
    r"|(?P<star>\*)"
    r"|(?P<slash>/)"
    r"|(?P<ident>[A-Za-z]\w*)"
    r"|(?P<number>\d+)"
)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    return out


class _Stream:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.length = len(text)
        self.i = 0

    @property
    def done(self) -> bool:
        return self.i >= len(self.tokens)

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if not self.done else None

    def advance(self) -> _Token:
        if self.done:
            raise ParseError("unexpected end of input", self.length)
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.advance()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text!r}", tok.pos)
        return tok

    def finish(self) -> None:
        if not self.done:
            tok = self.tokens[self.i]
            raise ParseError(f"trailing input {tok.text!r}", tok.pos)


_GEN = re.compile(r"^x([1-9]\d*)$")


def _word(stream: _Stream) -> Word:
    tok = stream.advance()
    if tok.kind == "number":
        if tok.text == "1":
            return UNIT
        raise ParseError(f"{tok.text!r} is not a word", tok.pos)
    if tok.kind == "ident":
        m = _GEN.match(tok.text)
        if m:
            return generator(_int(m.group(1), tok.pos + 1))
        raise ParseError(f"unknown symbol {tok.text!r}", tok.pos)
    if tok.kind == "lparen":
        children = []
        while True:
            nxt = stream.peek()
            if nxt is None:
                raise ParseError("unclosed parenthesis", stream.length)
            if nxt.kind == "rparen":
                break
            children.append(_word(stream))
        stream.expect("rparen")
        if not children:
            raise ParseError("empty product", tok.pos)
        return node(children)
    raise ParseError(f"expected a word, found {tok.text!r}", tok.pos)


def parse_word(text: str, sig: Signature) -> Word:
    """A single canonical word."""
    stream = _Stream(text)
    w = _word(stream)
    stream.finish()
    return normalize(sig, w)


def _coefficient(stream: _Stream) -> Fraction:
    num = stream.expect("number")
    value = Fraction(_int(num.text, num.pos))
    nxt = stream.peek()
    if nxt is not None and nxt.kind == "slash":
        stream.advance()
        den = stream.expect("number")
        d = _int(den.text, den.pos)
        if d == 0:
            raise ParseError("zero denominator", den.pos)
        value /= d
    return value


def _term(stream: _Stream, sig: Signature) -> tuple[Fraction, Word]:
    """One ``coeff*word`` (or bare word / bare unit) term."""
    tok = stream.peek()
    if tok is None:
        raise ParseError("expected a term", stream.length)
    if tok.kind == "number":
        nxt = (
            stream.tokens[stream.i + 1]
            if stream.i + 1 < len(stream.tokens)
            else None
        )
        if nxt is not None and nxt.kind in ("star", "slash"):
            coeff = _coefficient(stream)
            stream.expect("star")
            return coeff, normalize(sig, _word(stream))
        # a bare number must be the unit word
        return Fraction(1), normalize(sig, _word(stream))
    return Fraction(1), normalize(sig, _word(stream))


def _sign(stream: _Stream, first: bool) -> int | None:
    tok = stream.peek()
    if tok is None:
        return None
    if tok.kind == "plus":
        stream.advance()
        return 1
    if tok.kind == "minus":
        stream.advance()
        return -1
    if first:
        return 1
    raise ParseError(f"expected + or -, found {tok.text!r}", tok.pos)


def _is_bare_zero(stream: _Stream) -> bool:
    return (
        len(stream.tokens) == 1
        and stream.tokens[0].kind == "number"
        and stream.tokens[0].text == "0"
    )


def parse_element(text: str, sig: Signature) -> Element:
    """A rational combination of canonical words."""
    stream = _Stream(text)
    if _is_bare_zero(stream):
        return Element.zero(sig)
    terms = []
    first = True
    while not stream.done:
        sign = _sign(stream, first)
        coeff, w = _term(stream, sig)
        terms.append((w, sign * coeff))
        first = False
    if first:
        raise ParseError("empty element", 0)
    return Element(sig, terms)


_DER = re.compile(r"^d([1-9]\d*)$")


def parse_derivation(text: str, sig: Signature) -> Derivation:
    """Either ``D[f1, .., fn]`` or a sum of ``coeff*word d<i>`` terms."""
    stream = _Stream(text)
    if _is_bare_zero(stream):
        return Derivation.zero(sig)
    tok = stream.peek()
    if tok is not None and tok.kind == "ident" and tok.text == "D":
        stream.advance()
        stream.expect("lbracket")
        coords = []
        while True:
            coords.append(_element_until(stream, sig, ("comma", "rbracket")))
            if stream.advance().kind == "rbracket":
                break
        stream.finish()
        return Derivation(sig, coords)

    pairs: dict[int, list[tuple[Word, Fraction]]] = {}
    first = True
    while not stream.done:
        sign = _sign(stream, first)
        coeff, w = _term(stream, sig)
        d = stream.expect("ident")
        m = _DER.match(d.text)
        if not m:
            raise ParseError(f"expected d<i>, found {d.text!r}", d.pos)
        i = _int(m.group(1), d.pos + 1)
        if i > sig.num_generators:
            raise ParseError(f"no coordinate d{i}", d.pos)
        pairs.setdefault(i, []).append((w, sign * coeff))
        first = False
    if first:
        raise ParseError("empty derivation", 0)
    return Derivation(
        sig,
        [
            Element(sig, pairs.get(i, ()))
            for i in range(1, sig.num_generators + 1)
        ],
    )


def _element_until(stream: _Stream, sig: Signature, stops: tuple[str, ...]) -> Element:
    tok = stream.peek()
    if (
        tok is not None
        and tok.kind == "number"
        and tok.text == "0"
        and (
            stream.i + 1 >= len(stream.tokens)
            or stream.tokens[stream.i + 1].kind in stops
        )
    ):
        stream.advance()
        return Element.zero(sig)
    terms = []
    first = True
    while True:
        tok = stream.peek()
        if tok is None:
            raise ParseError("unclosed derivation bracket", stream.length)
        if tok.kind in stops:
            break
        sign = _sign(stream, first)
        coeff, w = _term(stream, sig)
        terms.append((w, sign * coeff))
        first = False
    if first:
        raise ParseError("empty coordinate", stream.length)
    return Element(sig, terms)


_IDX_SIGN = re.compile(r"\s*(?P<sign>[+-])\s*")
_IDX_TERM = re.compile(
    r"\s*(?:(?P<num>\d+)(?:/(?P<den>\d+))?\s*\*\s*)?"
    r"(?P<sym>[A-Za-z]+)(?P<caret>\^)?(?P<idx>-?\d+)\s*"
)


def parse_indexed(text: str, alg: IndexedAlgebra) -> IndexedElement:
    """An element of an indexed algebra, e.g. ``2*e2 - e-1`` or ``3/2*x^3``."""
    if text.strip() == "0":
        return IndexedElement(alg)
    terms = []
    pos = 0
    first = True
    while pos < len(text):
        m = _IDX_SIGN.match(text, pos)
        if m is not None:
            sign = 1 if m.group("sign") == "+" else -1
            pos = m.end()
        elif first:
            sign = 1
        elif not text[pos:].strip():
            break
        else:
            raise ParseError("expected + or -", pos)
        m = _IDX_TERM.match(text, pos)
        if m is None:
            raise ParseError("expected an indexed term", pos)
        coeff = Fraction(1)
        if m.group("num") is not None:
            den = m.group("den")
            coeff = Fraction(
                _int(m.group("num"), m.start("num")),
                1 if den is None else _int(den, m.start("den")),
            )
        if m.group("sym") != alg.symbol:
            raise ParseError(
                f"expected basis symbol {alg.symbol!r}, found {m.group('sym')!r}",
                m.start("sym"),
            )
        if bool(m.group("caret")) != alg.power_style:
            raise ParseError("wrong basis notation for this algebra", m.start("sym"))
        terms.append((_int(m.group("idx"), m.start("idx")), sign * coeff))
        pos = m.end()
        first = False
    if first:
        raise ParseError("empty element", 0)
    return IndexedElement(alg, terms)


def parse_index_range(text: str) -> tuple[int, int]:
    """An inclusive window written ``lo..hi``."""
    m = re.fullmatch(r"\s*(-?\d+)\.\.(-?\d+)\s*", text)
    if m is None:
        raise ParseError("expected a range like -1..12", 0)
    lo, hi = _int(m.group(1), m.start(1)), _int(m.group(2), m.start(2))
    if lo > hi:
        raise ParseError("empty range", 0)
    return lo, hi
