"""End-to-end acceptance checks.

Each numbered criterion is one test that prints a single
``criterion N (<label>): PASS`` or ``... FAIL`` line (run with ``-s``
to see the lines as they happen; captured output shows them otherwise).
All comparisons are exact rational arithmetic — no tolerances anywhere.
No criterion asserts a tight wall-clock time: criterion 5 only keeps a
30 s ceiling on work that takes a fraction of a second, and criterion 1
bounds the work of ``check_identity`` by counting the basis tuples it
evaluates and the product-rule calls it makes, which no host can change.
"""

import random
import time
from collections import Counter
from contextlib import contextmanager
from math import factorial

from derivalg import structconst
from derivalg.deriv import (
    Derivation,
    apply,
    commutator,
    is_right_nilpotent,
    lsym_mul,
)
from derivalg.envfox import env_apply_alg, env_generator, jacobian, mat_is_nilpotent
from derivalg.freealg import (
    Element,
    Signature,
    bracket,
    enumerate_reduced,
    generator,
    generators,
    unit_element,
)
from derivalg.genpos import certificate, span_check
from derivalg.structconst import (
    IndexedAlgebra,
    builtin,
    check_identity,
    derivation_of_power,
    named_identity,
)
from derivalg.varieties import (
    default_truncation,
    engel_index,
    left_mul_matrix,
    mat_is_zero,
    mat_mul,
    quotient_space,
    variety,
)

from conftest import random_derivation, random_element

S21 = Signature(2, True, False, 1)
S22 = Signature(2, True, False, 2)
S31 = Signature(3, True, False, 1)
S32 = Signature(3, True, False, 2)

SEED = 20260815


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL")
        raise
    print(f"criterion {num} ({label}): PASS")


def binary_nilpotent():
    (x,) = generators(S21)
    return variety(S21, x * (x * (x * x)))


def ternary_nilpotent():
    (x,) = generators(S31)
    return variety(S31, bracket([x, x, bracket([x, x, x])]))


def count_identity_work(monkeypatch):
    """Count the basis tuples ``check_identity`` evaluates and the
    product-rule calls it makes; ``monkeypatch`` restores both."""
    work = Counter()
    evaluate = structconst.evaluate
    rule = IndexedAlgebra.rule

    def counted_evaluate(*args, **kwargs):
        work["tuples"] += 1
        return evaluate(*args, **kwargs)

    def counted_rule(self, s, t):
        work["rules"] += 1
        return rule(self, s, t)

    monkeypatch.setattr(structconst, "evaluate", counted_evaluate)
    monkeypatch.setattr(IndexedAlgebra, "rule", counted_rule)
    return work


def test_criterion_1_structure_constant_identities(monkeypatch):
    with criterion(1, "indexed structure constants"):
        work = count_identity_work(monkeypatch)
        # an exhaustive pass over the 14 indices -1..12 evaluates each of
        # the 14**3 basis tuples once, with at most one rule call per
        # product: 4 words of 2 products (left_symmetric), 2 words (novikov)
        w = builtin("witt1")
        assert check_identity(w, named_identity("left_symmetric"), -1, 12) is None
        assert work["tuples"] == 14**3
        assert work["rules"] <= 14**3 * 8
        work.clear()
        assert check_identity(w, named_identity("novikov"), -1, 12) is None
        assert work["tuples"] == 14**3
        assert work["rules"] <= 14**3 * 4

        f = builtin("leibniz_der")
        assert check_identity(f, named_identity("left_symmetric"), 0, 12) is None
        work.clear()
        ce = check_identity(f, named_identity("novikov"), 0, 12)
        # stops at its first counterexample (0, 1, 2): 13 tuples (0, 0, *),
        # then (0, 1, 0), (0, 1, 1), (0, 1, 2)
        assert work["tuples"] == 16
        assert ce is not None
        assert ce.indices == (0, 1, 2)
        assert (f.basis(0) * f.basis(1)) * f.basis(2) == 2 * f.basis(3)
        assert (f.basis(0) * f.basis(2)) * f.basis(1) == 3 * f.basis(3)
        assert ce.defect == -f.basis(3)

        g = builtin("dual_leibniz_der")
        assert check_identity(g, named_identity("left_symmetric"), 0, 12) is None


def test_criterion_2_scaled_power_images():
    # two routes to g_s g_t: the closed product rule, and expanding the
    # derivation x -> x^{s+1} through powers with the (i+1)! change of basis
    with criterion(2, "factorial-scaled derivation images"):
        alg = builtin("dual_leibniz_alg")
        der = builtin("dual_leibniz_der")
        for s in range(0, 11):
            for t in range(0, 11):
                img = (
                    factorial(s + 1)
                    * factorial(t + 1)
                    * derivation_of_power(alg, s, t + 1)
                )
                rule = der.basis(s) * der.basis(t)
                assert rule == (t + 1) * der.basis(s + t)
                lifted = alg.element(
                    [(i + 1, c * factorial(i + 1)) for i, c in rule.terms]
                )
                assert img == lifted, (s, t)


def test_criterion_3_left_symmetric_law():
    with criterion(3, "left-symmetric law and commutator bracket"):
        rng = random.Random(SEED)
        sigs = (S21, S22, S31, S32)
        for trial in range(200):
            sig = sigs[trial % 4]
            a = random_derivation(sig, rng, max_length=4)
            b = random_derivation(sig, rng, max_length=4)
            c = random_derivation(sig, rng, max_length=4)
            lhs = lsym_mul(lsym_mul(a, b), c) - lsym_mul(a, lsym_mul(b, c))
            rhs = lsym_mul(lsym_mul(b, a), c) - lsym_mul(b, lsym_mul(a, c))
            assert lhs == rhs, trial
        for trial in range(200):
            sig = sigs[trial % 4]
            u = random_derivation(sig, rng, max_length=4)
            v = random_derivation(sig, rng, max_length=4)
            e = random_element(sig, rng, max_length=4)
            assert apply(commutator(u, v), e) == apply(u, apply(v, e)) - apply(
                v, apply(u, e)
            ), trial


def test_criterion_4_jacobian_product_and_chain():
    with criterion(4, "jacobian product and chain rules"):
        rng = random.Random(SEED)
        sigs = (S21, S22, S31)
        for trial in range(100):
            sig = sigs[trial % 3]
            n = sig.num_generators
            F = tuple(random_element(sig, rng, max_length=2) for _ in range(n))
            G = tuple(random_element(sig, rng, max_length=2) for _ in range(n))
            JG = jacobian(G)
            DG = Derivation(sig, G)
            prod = Derivation(sig, F)
            power = JG
            for _step in range(3):
                prod = lsym_mul(prod, DG)
                coords = [
                    sum(
                        (env_apply_alg(power.entries[i][j], F[j]) for j in range(n)),
                        Element.zero(sig),
                    )
                    for i in range(n)
                ]
                assert prod == Derivation(sig, coords), trial
                power = power @ JG


def test_criterion_5_seed_generation():
    with criterion(5, "seed generation of the positive part"):
        start = time.monotonic()
        rep2 = span_check(S21, 6)
        assert rep2.passed
        assert rep2.dimensions() == (1, 1, 1, 2, 3, 6, 11)
        rep3 = span_check(S31, 6)
        assert rep3.passed
        dims3 = {d: got for d, got, _ in rep3.rows}
        assert (dims3[2], dims3[4], dims3[6]) == (1, 1, 2)
        for length in range(1, 7):
            for w in enumerate_reduced(S21, length):
                cert = certificate(S21, w)
                assert cert.evaluate() == Derivation(
                    S21, [Element.from_word(S21, w)]
                ), w
        assert time.monotonic() - start < 30.0


def test_criterion_6_binary_nilpotent_quotient():
    with criterion(6, "binary nilpotent quotient"):
        v = binary_nilpotent()
        sp = quotient_space(v)
        assert [sp.dimension(d) for d in range(1, 9)] == [1, 1, 1, 1, 1, 1, 0, 0]

        (x,) = generators(S21)
        x2 = x * x
        xx2 = x * x2
        x2x2 = x2 * x2
        xx2x2 = x * x2x2
        xxx2x2 = x * xx2x2
        assert sp.reduce(x2 * (x * x2)) == -xx2x2
        assert sp.reduce(x2 * x2x2) == xxx2x2
        assert sp.reduce(xx2 * xx2) == xxx2x2
        assert sp.reduce(x * (x * xx2x2)).is_zero
        assert sp.reduce(x2 * xx2x2).is_zero
        assert sp.reduce(xx2 * x2x2).is_zero

        def L(b, d):
            return left_mul_matrix(b, v, d)

        # degree-three operator identity on every degree the window allows
        for d in range(1, 6):
            terms = [
                L(xx2, d),
                mat_mul(L(x, d + 2), L(x2, d)),
                mat_mul(L(x, d + 2), mat_mul(L(x, d + 1), L(x, d))),
            ]
            coeffs = [1, 1, 2]
            total = [
                [
                    sum(c * t[i][j] for c, t in zip(coeffs, terms))
                    for j in range(len(row))
                ]
                for i, row in enumerate(terms[0])
            ]
            assert mat_is_zero(total), d

        # degree-four operator identity likewise
        for d in range(1, 5):
            terms = [
                L(x2x2, d),
                mat_mul(L(x2, d + 2), L(x2, d)),
                mat_mul(L(x, d + 3), L(xx2, d)),
                mat_mul(L(x2, d + 2), mat_mul(L(x, d + 1), L(x, d))),
                mat_mul(L(x, d + 3), mat_mul(L(x2, d + 1), L(x, d))),
                mat_mul(L(x, d + 3), mat_mul(L(x, d + 2), L(x2, d))),
            ]
            coeffs = [1, 1, 2, 2, 2, 2]
            total = [
                [
                    sum(c * t[i][j] for c, t in zip(coeffs, terms))
                    for j in range(len(row))
                ]
                for i, row in enumerate(terms[0])
            ]
            assert mat_is_zero(total), d

        assert engel_index(v, 6) == 3

        # brute-force cross-check: compose explicit operator matrices
        def power_is_zero(q):
            for d in range(1, default_truncation(S21) - q + 1):
                mat = L(x, d)
                for step in range(1, q):
                    mat = mat_mul(L(x, d + step), mat)
                if not mat_is_zero(mat):
                    return False
            return True

        assert not power_is_zero(2)
        assert power_is_zero(3)


def test_criterion_7_ternary_nilpotent_quotient():
    with criterion(7, "ternary nilpotent quotient"):
        v = ternary_nilpotent()
        sp = quotient_space(v)
        assert [sp.dimension(d) for d in (1, 3, 5, 7, 9)] == [1, 1, 0, 0, 0]

        (x,) = generators(S31)
        w = bracket([x, x, x])
        seed = Derivation(S31, [w], sp)
        assert is_right_nilpotent(seed, 6) == 2

        J = jacobian((w,))
        assert J.entries[0][0] == 3 * env_generator(
            S31, (generator(1), generator(1))
        )
        out = mat_is_nilpotent(J, 10, sp)
        assert isinstance(out, int) and out == 4


def test_criterion_8_unital_one_variable_products():
    with criterion(8, "unital one-variable product computations"):
        sig = Signature(2, True, True, 1)
        (x,) = generators(sig)
        one = unit_element(sig)
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x

        def D(a):
            return Derivation(sig, [a])

        lhs1 = lsym_mul(lsym_mul(D(one), D(x3)), D(x2))
        lhs2 = lsym_mul(lsym_mul(D(one), D(x2)), D(x3))
        lhs3 = lsym_mul(lsym_mul(D(x), D(x2)), D(x3))
        lhs4 = lsym_mul(lsym_mul(D(x), D(x3)), D(x2))
        assert lhs1 == D(3 * (x2 * x + x3))
        assert lhs2 == D(6 * x3)
        assert lhs3 == D(2 * (x2 * x2 + 2 * x4))
        assert lhs4 == D(6 * x4)
        # the first pair already agrees in the free algebra; the second
        # pair differs, which is exactly what forces x2x2 = x4 downstream
        assert lhs1 == lhs2
        assert lhs3 != lhs4


def test_criterion_9_jacobian_nilpotency():
    with criterion(9, "jacobian nilpotency and right products"):
        (x1,) = generators(S21)
        J2 = jacobian((x1 * x1,))
        assert J2.entries[0][0] == 2 * env_generator(S21, (generator(1),))
        (y1,) = generators(S31)
        J3 = jacobian((bracket([y1, y1, y1]),))
        assert J3.entries[0][0] == 3 * env_generator(
            S31, (generator(1), generator(1))
        )

        z1, z2 = generators(S22)
        D = Derivation(S22, (z2 * z2, Element.zero(S22)))
        J = jacobian(D)
        assert J.entries[0][0].is_zero and J.entries[1][0].is_zero
        assert J.entries[1][1].is_zero
        assert J.entries[0][1] == 2 * env_generator(S22, (generator(2),))
        assert mat_is_nilpotent(J) == 2

        rng = random.Random(SEED)
        for trial in range(20):
            F = tuple(random_element(S22, rng, max_length=3) for _ in range(2))
            once = lsym_mul(Derivation(S22, F), D)
            assert lsym_mul(once, D).is_zero, trial


def test_criterion_10_word_counts():
    with criterion(10, "reduced word counts by two methods"):
        by_trees = [len(enumerate_reduced(S21, n)) for n in range(1, 9)]

        # independent recursion over unordered pairs of subtrees
        counts = {1: 1}
        for n in range(2, 9):
            total = sum(
                counts[i] * counts[n - i] for i in range(1, (n - 1) // 2 + 1)
            )
            if n % 2 == 0:
                half = counts[n // 2]
                total += half * (half + 1) // 2
            counts[n] = total
        by_recursion = [counts[n] for n in range(1, 9)]

        assert by_trees == [1, 1, 1, 2, 3, 6, 11, 23]
        assert by_recursion == by_trees
