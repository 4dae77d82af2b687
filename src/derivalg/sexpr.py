"""Text grammar for words, elements, derivations and indexed elements.

Words are s-expressions over generators ``x1..xn`` and the unit ``1``,
nested to any depth: ``(x1 (x1 x1))``.  Every other format but the index
range ``lo..hi`` is one grammar, a signed sum of terms ``[p[/q]*]key``
with rational coefficients, in which a lone ``0`` is the empty sum.  The
formats differ only in the key: a word for elements (``3/2*(x1 x1) -
x1``, where a bare ``1`` is the unit word), a word followed by ``d<i>``
for derivations in sum form (``2*(x1 x2) d1 - x1 d2``; the compact
``D[f1, .., fn]`` lists every coordinate as an element), and a basis
name such as ``e2``, ``e-1`` or ``x^3`` for indexed-algebra elements.
Parsing is whitespace-tolerant except inside a basis name and around the
``/`` of an indexed coefficient; every error carries the offset it
occurred at.  All output printed by the package parses back to an equal
value.
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
    r"|(?P<caret>\^)"
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
    """The tokens of ``text``, closed by an ``end`` token at its length."""
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(_Token("end", "", len(text)))
    return out


class _Stream:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.peek()
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.pos)
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.advance()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text!r}", tok.pos)
        return tok

    def finish(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r}", tok.pos)


_GEN = re.compile(r"^x([1-9]\d*)$")


def _word(stream: _Stream) -> Word:
    """A raw word; brackets nest to any depth on an explicit stack of
    ``(position of the open bracket, children read so far)``."""
    stack: list[tuple[int, list[Word]]] = []
    while True:
        if stack and stream.peek().kind == "end":
            raise ParseError("unclosed parenthesis", stream.peek().pos)
        tok = stream.advance()
        if tok.kind == "lparen":
            stack.append((tok.pos, []))
            continue
        if tok.kind == "rparen" and stack:
            pos, children = stack.pop()
            if not children:
                raise ParseError("empty product", pos)
            w = node(children)
        elif tok.kind == "number" and tok.text == "1":
            w = UNIT
        elif tok.kind == "ident" and (m := _GEN.match(tok.text)):
            w = generator(_int(m.group(1), tok.pos + 1))
        elif tok.kind == "ident":
            raise ParseError(f"unknown symbol {tok.text!r}", tok.pos)
        else:
            raise ParseError(f"expected a word, found {tok.text!r}", tok.pos)
        if not stack:
            return w
        stack[-1][1].append(w)


def parse_word(text: str, sig: Signature) -> Word:
    """A single canonical word."""
    stream = _Stream(text)
    w = _word(stream)
    stream.finish()
    return normalize(sig, w)


_SIGNS = {"plus": 1, "minus": -1}


def _sum(stream: _Stream, key, stops: tuple[str, ...] = ()) -> list[tuple]:
    """Signed ``[p[/q]*]key`` terms up to a token of a kind in ``stops``
    or the end of input, as ``(key(stream), coefficient)`` pairs; a lone
    ``0`` is the empty sum."""
    stops += ("end",)
    if stream.peek().text == "0" and stream.peek(1).kind in stops:
        stream.advance()
        return []
    terms = []
    while (tok := stream.peek()).kind not in stops:
        sign = _SIGNS.get(tok.kind)
        if sign is not None:
            stream.advance()
        elif terms:
            raise ParseError(f"expected + or -, found {tok.text!r}", tok.pos)
        coeff = Fraction(sign or 1)
        if stream.peek().kind == "number" and stream.peek(1).kind in ("star", "slash"):
            num = stream.advance()
            coeff *= _int(num.text, num.pos)
            if stream.advance().kind == "slash":
                den = stream.expect("number")
                if not (d := _int(den.text, den.pos)):
                    raise ParseError("zero denominator", den.pos)
                coeff /= d
                stream.expect("star")
        terms.append((key(stream), coeff))
    if not terms:
        raise ParseError("expected a term", tok.pos)
    return terms


def _element(stream: _Stream, sig: Signature, stops: tuple[str, ...] = ()) -> Element:
    return Element(sig, _sum(stream, lambda s: normalize(sig, _word(s)), stops))


def parse_element(text: str, sig: Signature) -> Element:
    """A rational combination of canonical words."""
    return _element(_Stream(text), sig)


_DER = re.compile(r"^d([1-9]\d*)$")


def parse_derivation(text: str, sig: Signature) -> Derivation:
    """Either ``D[f1, .., fn]`` or a sum of ``coeff*word d<i>`` terms."""
    stream = _Stream(text)
    if stream.peek().kind == "ident" and stream.peek().text == "D":
        stream.advance()
        stream.expect("lbracket")
        coords = [_element(stream, sig, ("comma", "rbracket"))]
        while stream.advance().kind == "comma":
            coords.append(_element(stream, sig, ("comma", "rbracket")))
        stream.finish()
        return Derivation(sig, coords)

    def coordinate(stream: _Stream) -> tuple[int, Word]:
        w = normalize(sig, _word(stream))
        d = stream.expect("ident")
        m = _DER.match(d.text)
        if not m:
            raise ParseError(f"expected d<i>, found {d.text!r}", d.pos)
        i = _int(m.group(1), d.pos + 1)
        if i > sig.num_generators:
            raise ParseError(f"no coordinate d{i}", d.pos)
        return i, w

    terms = _sum(stream, coordinate)
    return Derivation(
        sig,
        [
            Element(sig, [(w, c) for (j, w), c in terms if j == i])
            for i in range(1, sig.num_generators + 1)
        ],
    )


_BASIS = re.compile(r"([A-Za-z]+)(\^?)(-?\d+)")


def parse_indexed(text: str, alg: IndexedAlgebra) -> IndexedElement:
    """An element of an indexed algebra, e.g. ``2*e2 - e-1`` or ``3/2*x^3``.

    A basis name is one unbroken run such as ``e-1`` or ``x^3``, and a
    coefficient ``p/q`` has no space around its ``/``."""
    spaced = re.search(r"\s/|/\s", text)
    if spaced:
        raise ParseError("space around '/'", spaced.start())

    def basis_index(stream: _Stream) -> int:
        first = stream.expect("ident")
        name, end = first.text, first.pos + len(first.text)
        # extend the name by the ^, - and numeral written right after it
        while not name[-1].isdigit():
            tok = stream.peek()
            if tok.pos != end or tok.kind not in ("caret", "minus", "number"):
                break
            stream.advance()
            name, end = name + tok.text, end + len(tok.text)
        m = _BASIS.fullmatch(name)
        if m is None:
            raise ParseError(f"expected a basis name, found {name!r}", first.pos)
        if m[1] != alg.symbol:
            raise ParseError(
                f"expected basis symbol {alg.symbol!r}, found {m[1]!r}", first.pos
            )
        if bool(m[2]) != alg.power_style:
            raise ParseError("wrong basis notation for this algebra", first.pos)
        return _int(m[3], first.pos + m.start(3))

    return IndexedElement(alg, _sum(_Stream(text), basis_index))


def parse_index_range(text: str) -> tuple[int, int]:
    """An inclusive window written ``lo..hi``."""
    m = re.fullmatch(r"\s*(-?\d+)\.\.(-?\d+)\s*", text)
    if m is None:
        raise ParseError("expected a range like -1..12", 0)
    lo, hi = _int(m.group(1), m.start(1)), _int(m.group(2), m.start(2))
    if lo > hi:
        raise ParseError("empty range", 0)
    return lo, hi
