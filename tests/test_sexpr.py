import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derivalg.freealg import (
    AlgebraError,
    Element,
    Signature,
    bracket_words,
    generator,
    node,
    unit_element,
)
from derivalg.sexpr import (
    ParseError,
    parse_derivation,
    parse_element,
    parse_index_range,
    parse_indexed,
    parse_word,
)
from derivalg.structconst import builtin

from conftest import random_derivation, random_element, random_word

S21 = Signature(2, True, False, 1)
S22 = Signature(2, True, False, 2)
S24 = Signature(2, False, True, 2)
S31 = Signature(3, True, False, 2)

ALL_SIGS = [S21, S22, S24, S31]


def test_parse_word_examples():
    assert parse_word("x1", S21) == generator(1)
    assert parse_word("(x1 x1)", S21) == node([generator(1), generator(1)])
    assert parse_word("1", S24) == parse_word(" 1 ", S24)
    # non-canonical input comes out normalized
    assert parse_word("(x1 x2)", S22) == parse_word("(x2 x1)", S22)


def test_parse_word_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_word("x0", S21)
    with pytest.raises(ParseError):
        parse_word("(x1 x1", S21)
    with pytest.raises(ParseError):
        parse_word("()", S21)
    # semantic problems surface from the algebra layer, not the tokenizer
    with pytest.raises(AlgebraError):
        parse_word("(x1 x1 x1)", S21)  # arity 2
    with pytest.raises(AlgebraError):
        parse_word("x2", S21)  # outside signature
    with pytest.raises(AlgebraError):
        parse_word("1", S21)  # no unit here


def test_parse_error_carries_position():
    try:
        parse_element("2*(x1 x1) + ?", S21)
    except ParseError as exc:
        assert exc.pos == 12
        assert "position 12" in str(exc)
    else:
        assert False, "expected ParseError"


def test_parse_element_examples():
    e = parse_element("2*(x1 x1) - x1", S21)
    assert e.coeff(node([generator(1), generator(1)])) == 2
    assert e.coeff(generator(1)) == -1
    assert parse_element("0", S21).is_zero
    assert parse_element("3/2*1", S24) == unit_element(S24) * 3 / 2
    # like terms collapse, signs distribute
    assert parse_element("x1 + x1 - 2*x1", S21).is_zero


def test_parse_element_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_element("", S21)
    with pytest.raises(ParseError):
        parse_element("2*", S21)
    with pytest.raises(ParseError):
        parse_element("1/0*x1", S24)
    with pytest.raises(ParseError):
        parse_element("x1 x1", S21)


def test_element_round_trip(rng):
    for sig in ALL_SIGS:
        for _ in range(25):
            a = random_element(sig, rng, max_length=4, terms=3)
            assert parse_element(str(a), sig) == a


def test_word_round_trip(rng):
    for sig in ALL_SIGS:
        for length in range(1, 6):
            w = random_word(sig, length, rng)
            if w is not None:
                assert parse_word(str(w), sig) == w


def test_parse_derivation_bracket_form():
    d = parse_derivation("D[(x1 x1)]", S21)
    assert d.coords[0] == parse_element("(x1 x1)", S21)
    d = parse_derivation("D[x2, 0]", S22)
    assert d.coords[0] == parse_element("x2", S22)
    assert d.coords[1].is_zero
    with pytest.raises(AlgebraError):
        parse_derivation("D[x1]", S22)  # wrong coordinate count
    with pytest.raises(ParseError):
        parse_derivation("D[x1", S21)


def test_parse_derivation_sum_form():
    d = parse_derivation("2*(x1 x2) d1 - x1 d2", S22)
    assert d.coords[0] == parse_element("2*(x1 x2)", S22)
    assert d.coords[1] == parse_element("-x1", S22)
    with pytest.raises(ParseError):
        parse_derivation("x1 d3", S22)
    with pytest.raises(ParseError):
        parse_derivation("x1", S21)  # no d<i> marker


def test_derivation_round_trip(rng):
    for sig in ALL_SIGS:
        for _ in range(25):
            d = random_derivation(sig, rng, max_length=3, terms=2)
            assert parse_derivation(str(d), sig) == d


def test_parse_indexed():
    witt = builtin("witt1")
    a = parse_indexed("2*e2 - e-1", witt)
    assert a.coeff(2) == 2 and a.coeff(-1) == -1
    assert parse_indexed("0", witt).is_zero
    powers = builtin("dual_leibniz_alg")
    assert parse_indexed("3/2*x^3", powers).coeff(3).numerator == 3
    with pytest.raises(ParseError):
        parse_indexed("2*f1", witt)  # wrong symbol
    with pytest.raises(ParseError):
        parse_indexed("e^2", witt)  # wrong notation
    with pytest.raises(ParseError):
        parse_indexed("x3", powers)


def test_indexed_round_trip(rng):
    for name in ("witt1", "leibniz_der", "dual_leibniz_alg", "witt1_mary(3)"):
        alg = builtin(name)
        lo = alg.min_index
        step = alg.modulus or 1
        for _ in range(25):
            terms = [
                (lo + step * rng.randrange(8), rng.randint(-4, 4))
                for _ in range(3)
            ]
            a = alg.element(terms)
            assert parse_indexed(str(a), alg) == a


def test_parse_index_range():
    assert parse_index_range("-1..12") == (-1, 12)
    assert parse_index_range(" 0..5 ") == (0, 5)
    with pytest.raises(ParseError):
        parse_index_range("5..0")
    with pytest.raises(ParseError):
        parse_index_range("1-5")


@pytest.mark.parametrize("sig", [S21, S24], ids=["S21", "S24"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_words_of_any_depth_parse(sig, side):
    depth = 5000
    x = generator(1)
    if side == "left":
        text = "(" * depth + "x1" + " x1)" * depth
    else:
        text = "(x1 " * depth + "x1" + ")" * depth
    want = x
    for _ in range(depth):
        want = bracket_words(sig, [want, x] if side == "left" else [x, want])
    assert parse_word(text, sig) is want
    assert parse_element(text, sig) == Element.from_word(sig, want)
    assert parse_element(f"2*{text} - x1", sig).coeff(want) == 2


def test_words_of_any_depth_print():
    depth = 5000
    x = generator(1)
    comb = x
    for _ in range(depth):
        comb = bracket_words(S24, [comb, x])
    text = str(comb)
    assert text == "(" * depth + "x1" + " x1)" * depth
    assert parse_word(text, S24) is comb


PIECES = "x1 x2 x3 1 0 2 3/2 * + - ( ) [ ] , d1 d2 D e e2 e-1 x ^ f1 / -1 x0 ?"
PIECE = st.sampled_from(PIECES.split() + [" "])
# signed terms with a coefficient in front of one to three pieces
TERM = st.tuples(
    st.sampled_from(["", "+", " - "]),
    st.sampled_from(["", "2*", "3/2*", "1/0*", "2 / 3*", "0*"]),
    st.lists(PIECE, min_size=1, max_size=3).map("".join),
).map("".join)
TEXTS = st.one_of(
    st.lists(PIECE, max_size=14).map("".join),
    st.lists(TERM, min_size=1, max_size=3).map("".join),
)


@settings(max_examples=400, deadline=None)
@given(TEXTS)
def test_parsers_return_or_raise_algebra_error(text):
    parsers = [
        lambda: parse_word(text, S22),
        lambda: parse_element(text, S24),
        lambda: parse_derivation(text, S22),
        lambda: parse_indexed(text, builtin("witt1")),
        lambda: parse_indexed(text, builtin("dual_leibniz_alg")),
        lambda: parse_index_range(text),
    ]
    for parse in parsers:
        try:
            parse()
        except AlgebraError:
            pass


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(ALL_SIGS))
def test_bracket_form_parses_like_sum_form(rng, sig):
    d = random_derivation(sig, rng, max_length=4, terms=3)
    bracket_form = "D[" + ", ".join(str(f) for f in d.coords) + "]"
    assert parse_derivation(bracket_form, sig) == parse_derivation(str(d), sig) == d
