import itertools

import pytest

from derivalg import deriv
from derivalg.freealg import (
    AlgebraError,
    Element,
    Signature,
    bracket,
    generator,
    generators,
    unit_element,
)
from derivalg.deriv import (
    Derivation,
    apply,
    commutator,
    euler_derivation,
    grading_decompose,
    is_left_nilpotent,
    is_right_nilpotent,
    left_power,
    lsym_mul,
    right_power,
)

from conftest import random_derivation, random_element

S21 = Signature(2, True, False, 1)
S22 = Signature(2, True, False, 2)
S31 = Signature(3, True, False, 1)
SU = Signature(2, True, True, 1)


def _x(sig=S21):
    return Element.from_word(sig, generator(1))


def test_apply_leibniz_on_brackets(rng):
    for sig in (S22, S31):
        for _ in range(15):
            d = random_derivation(sig, rng)
            args = [random_element(sig, rng, max_length=2, terms=1) for _ in range(sig.arity)]
            lhs = apply(d, bracket(args))
            rhs = Element.zero(sig)
            for i in range(sig.arity):
                derived = args[:i] + [apply(d, args[i])] + args[i + 1:]
                rhs = rhs + bracket(derived)
            assert lhs == rhs


def test_apply_is_linear(rng):
    for _ in range(15):
        d = random_derivation(S22, rng)
        a = random_element(S22, rng)
        b = random_element(S22, rng)
        assert apply(d, a + 3 * b) == apply(d, a) + 3 * apply(d, b)


def test_apply_kills_unit():
    one = unit_element(SU)
    d = Derivation(SU, [one])  # the constant derivation 1 d1
    assert apply(d, one).is_zero
    x = _x(SU)
    assert apply(d, x * x) == 2 * x


def test_product_keeps_second_coordinates_derived():
    x = _x()
    d = Derivation(S21, [x * x])
    e = euler_derivation(S21)
    assert lsym_mul(d, e) == d
    assert lsym_mul(e, d) == 2 * d  # x d1 scales degree-1 components by 2


def test_euler_is_right_identity(rng):
    for sig in (S21, S22, S31):
        e = euler_derivation(sig)
        for _ in range(10):
            u = random_derivation(sig, rng)
            assert lsym_mul(u, e) == u


def test_euler_scales_homogeneous_by_length(rng):
    e = euler_derivation(S22)
    for l in range(1, 4):
        u = random_derivation(S22, rng, max_length=l, terms=1)
        parts = grading_decompose(u)
        for s, comp in parts.items():
            assert lsym_mul(e, comp) == (s + 1) * comp


def test_no_left_identity():
    # the Euler derivation is only a one-sided identity
    x = _x()
    d = Derivation(S21, [x * x])
    e = euler_derivation(S21)
    assert lsym_mul(e, d) != d


def test_left_symmetric_identity(rng):
    def assoc(a, b, c):
        return lsym_mul(lsym_mul(a, b), c) - lsym_mul(a, lsym_mul(b, c))

    for sig in (S21, S22, S31):
        for _ in range(25):
            a = random_derivation(sig, rng, max_length=2)
            b = random_derivation(sig, rng, max_length=2)
            c = random_derivation(sig, rng, max_length=2)
            assert assoc(a, b, c) == assoc(b, a, c)


def test_commutator_is_composition_bracket(rng):
    for sig in (S22, S31):
        for _ in range(15):
            u = random_derivation(sig, rng, max_length=2)
            v = random_derivation(sig, rng, max_length=2)
            c = commutator(u, v)
            a = random_element(sig, rng)
            assert apply(c, a) == apply(u, apply(v, a)) - apply(v, apply(u, a))


def test_degree_zero_part_multiplies_like_matrix_units():
    # (x_j d_i) . (x_l d_k) = delta_il x_j d_k
    for sig in (S22, Signature(2, True, False, 3)):
        n = sig.num_generators
        xs = generators(sig)
        for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
            u = Derivation.single(sig, i, xs[j - 1])
            v = Derivation.single(sig, k, xs[l - 1])
            prod = lsym_mul(u, v)
            expect = (
                Derivation.single(sig, k, xs[j - 1])
                if i == l
                else Derivation.zero(sig)
            )
            assert prod == expect


def test_left_powers_are_iterated_coordinates(rng):
    # D^i has the coordinates of D derived i-1 times
    for _ in range(10):
        d = random_derivation(S21, rng, max_length=2, terms=1)
        coords = d.coords
        for i in range(2, 5):
            coords = tuple(apply(d, f) for f in coords)
            assert left_power(d, i) == Derivation(S21, coords)


def test_power_recursions():
    x = _x()
    d = Derivation(S21, [x * x])
    assert left_power(d, 1) == d
    assert left_power(d, 3) == lsym_mul(d, lsym_mul(d, d))
    assert right_power(d, 3) == lsym_mul(lsym_mul(d, d), d)
    with pytest.raises(AlgebraError):
        left_power(d, 0)


def test_triangular_derivation_is_nilpotent():
    x1, x2 = generators(S22)
    d = Derivation.single(S22, 1, x2 * x2)
    assert is_left_nilpotent(d, 6) == 2
    assert is_right_nilpotent(d, 6) == 2
    assert left_power(d, 2).is_zero


def test_nonnilpotent_reports_absent():
    e = euler_derivation(S21)
    assert is_left_nilpotent(e, 6) is None
    x = _x()
    d = Derivation(S21, [x * x])
    assert is_right_nilpotent(d, 5) is None


def test_zero_derivation_nilpotency_index_one():
    assert is_left_nilpotent(Derivation.zero(S21), 3) == 1


def _shift(k):
    """``x1 d2 + ... + x(k-1) dk``: both nilpotency indices are ``k``."""
    sig = Signature(2, True, False, k)
    xs = generators(sig)
    return Derivation(sig, [Element.zero(sig)] + list(xs[:-1]))


@pytest.mark.parametrize("probe", [is_left_nilpotent, is_right_nilpotent])
@pytest.mark.parametrize("k, bound", [(1, 6), (2, 6), (3, 6), (4, 6), (3, 2), (4, 1)])
def test_nilpotency_probe_makes_no_power_past_answer_or_bound(
    monkeypatch, probe, k, bound
):
    # D^1..D^r cost r - 1 products, r the answer or the bound
    calls = []
    product = deriv.lsym_mul
    monkeypatch.setattr(
        deriv, "lsym_mul", lambda u, v: calls.append(1) or product(u, v)
    )
    expected = k if k <= bound else None
    assert probe(_shift(k), bound) == expected
    assert len(calls) == (k if expected else bound) - 1


@pytest.mark.parametrize("sig", [S21, S22], ids=["S21", "S22"])
def test_nilpotency_probes_agree_with_the_powers(sig, rng):
    # each probe answers the least r with a zero power, or None up to the bound
    seen = set()
    for _ in range(30):
        d = Derivation(sig, [
            random_element(sig, rng, max_length=2) if rng.random() < 0.6
            else Element.zero(sig)
            for _ in range(sig.num_generators)
        ])
        for probe, power in (
            (is_left_nilpotent, left_power), (is_right_nilpotent, right_power)
        ):
            least = next((r for r in range(1, 5) if power(d, r).is_zero), None)
            assert probe(d, 4) == least
            seen.add(least is None)
    assert seen == {True, False}


def test_left_and_right_powers_differ(rng):
    # found at small degree: left and right powers of x^2 d1 diverge at r=3
    x = _x()
    d = Derivation(S21, [x * x])
    assert left_power(d, 3) != right_power(d, 3)


def test_grading_decompose_examples():
    x = _x()
    d = Derivation(S21, [x + x * x])
    parts = grading_decompose(d)
    assert sorted(parts) == [0, 1]
    assert parts[0] == Derivation(S21, [x])
    assert parts[1] == Derivation(S21, [x * x])

    one = unit_element(SU)
    d1 = Derivation(SU, [one])
    assert sorted(grading_decompose(d1)) == [-1]


def test_grading_components_sum_back(rng):
    for _ in range(10):
        d = random_derivation(S22, rng, max_length=3, terms=3)
        parts = grading_decompose(d)
        total = Derivation.zero(S22)
        for comp in parts.values():
            total = total + comp
        assert total == d


def test_grading_is_multiplicative(rng):
    for _ in range(10):
        u = random_derivation(S21, rng, max_length=2, terms=1)
        v = random_derivation(S21, rng, max_length=2, terms=1)
        pu = grading_decompose(u)
        pv = grading_decompose(v)
        prod = lsym_mul(u, v)
        acc: dict[int, Derivation] = {}
        for s, a in pu.items():
            for t, b in pv.items():
                acc[s + t] = acc.get(s + t, Derivation.zero(S21)) + lsym_mul(a, b)
        for s, comp in grading_decompose(prod).items():
            assert acc.get(s, Derivation.zero(S21)) == comp


def test_derivation_str():
    x = _x()
    d = Derivation(S21, [2 * ((x * x) * x)])
    assert str(d) == "2*((x1 x1) x1) d1"
    x1, x2 = generators(S22)
    d2 = Derivation(S22, [x2, -x1])
    assert str(d2) == "x2 d1 - x1 d2"
    assert str(Derivation.zero(S21)) == "0"


def test_coordinate_count_validated():
    x = _x()
    with pytest.raises(AlgebraError):
        Derivation(S22, [x])
