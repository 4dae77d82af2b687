from fractions import Fraction

import pytest

from derivalg.freealg import (
    UNKNOWN,
    AlgebraError,
    Element,
    Signature,
    bracket,
    generator,
    generators,
    node,
)
from derivalg.deriv import Derivation, lsym_mul
from derivalg.envfox import (
    EnvElement,
    EnvGenerator,
    JacobianMatrix,
    doubled_signature,
    embed,
    env_act,
    env_apply_alg,
    env_generator,
    env_is_zero,
    fox_derivatives,
    jacobian,
    mat_is_nilpotent,
    omega,
    partner,
)
from derivalg.varieties import quotient_space, variety

from conftest import random_element

S21 = Signature(2, True, False, 1)
S22 = Signature(2, True, False, 2)
S31 = Signature(3, True, False, 1)


def _x(sig=S21):
    return Element.from_word(sig, generator(1))


def binary_nilpotent_context():
    x = _x()
    return quotient_space(variety(S21, x * (x * (x * x))))


def ternary_nilpotent_context():
    (x,) = generators(S31)
    return quotient_space(variety(S31, bracket([x, x, bracket([x, x, x])])))


def test_doubled_signature_and_partner():
    d = doubled_signature(S22)
    assert d == Signature(2, True, False, 4)
    assert partner(S22, 1) == generator(3)
    assert partner(S22, 2) == generator(4)
    with pytest.raises(AlgebraError):
        partner(S22, 3)


def test_embed_keeps_terms():
    x = _x()
    a = 3 * (x * x) - x / 2
    b = embed(a)
    assert b.sig == doubled_signature(S21)
    assert [(w, c) for w, c in b] == [(w, c) for w, c in a]


def test_omega_of_generator_is_partner():
    x = _x()
    assert omega(x) == Element.from_word(doubled_signature(S21), partner(S21, 1))


def test_omega_of_squares():
    x = _x()
    d = doubled_signature(S21)
    xy = Element.from_word(d, node([generator(2), generator(1)]))
    assert omega(x * x) == 2 * xy

    (t,) = generators(S31)
    d3 = doubled_signature(S31)
    xxy = Element.from_word(d3, node([generator(2), generator(1), generator(1)]))
    assert omega(bracket([t, t, t])) == 3 * xxy


def test_omega_is_linear_and_a_derivation(rng):
    m_sigs = [S21, S22, S31]
    for sig in m_sigs:
        d = doubled_signature(sig)
        for _ in range(8):
            args = [random_element(sig, rng, max_length=2) for _ in range(sig.arity)]
            lhs = omega(bracket(args))
            rhs = Element.zero(d)
            for i in range(sig.arity):
                slots = [embed(a) for a in args]
                slots[i] = omega(args[i])
                rhs = rhs + bracket(slots)
            assert lhs == rhs
        a = random_element(sig, rng, max_length=3)
        b = random_element(sig, rng, max_length=3)
        assert omega(a + 2 * b) == omega(a) + 2 * omega(b)


def test_every_omega_term_holds_one_partner_leaf(rng):
    n = S22.num_generators
    for _ in range(10):
        b = random_element(S22, rng, max_length=4, terms=3)
        for w, _ in omega(b):

            def partners(v):
                if v.is_generator:
                    return 1 if v.gen > n else 0
                if v.is_node:
                    return sum(partners(c) for c in v.children)
                return 0

            assert partners(w) == 1


def test_fox_derivative_of_square():
    x = _x()
    (u,) = fox_derivatives(x * x)
    assert u == 2 * env_generator(S21, [generator(1)])


def test_fox_derivative_peels_both_paths():
    x = _x()
    (u,) = fox_derivatives((x * x) * x)
    U = env_generator(S21, [generator(1)])
    Uxx = env_generator(S21, [node([generator(1), generator(1)])])
    assert u == Uxx + 2 * U * U
    assert str(u) == "2*U(x1)U(x1) + U((x1 x1))"


def test_fox_derivative_vanishes_off_support():
    x1, x2 = generators(S22)
    u1, u2 = fox_derivatives(x2 * x2)
    assert u1.is_zero
    assert u2 == 2 * env_generator(S22, [generator(2)])


def test_fox_derivatives_reassemble_omega(rng):
    for sig in (S21, S22, S31):
        d = doubled_signature(sig)
        for _ in range(6):
            b = random_element(sig, rng, max_length=3, terms=3)
            parts = fox_derivatives(b)
            total = Element.zero(d)
            for j, u in enumerate(parts, start=1):
                yj = Element.from_word(d, partner(sig, j))
                total = total + env_act(u, yj)
            assert total == omega(b)


def test_env_generator_is_multilinear():
    x = _x()
    combined = env_generator(S21, [x + 2 * (x * x)])
    split = env_generator(S21, [generator(1)]) + 2 * env_generator(
        S21, [node([generator(1), generator(1)])]
    )
    assert combined == split


def test_env_generator_slot_rules():
    ns = Signature(2, False, False, 1)
    with pytest.raises(AlgebraError):
        env_generator(S21, [generator(1)], slot=1)
    with pytest.raises(AlgebraError):
        env_generator(ns, [generator(1)])
    with pytest.raises(AlgebraError):
        env_generator(ns, [generator(1)], slot=3)
    assert env_generator(ns, [generator(1)], 1) != env_generator(ns, [generator(1)], 2)


def test_env_element_algebra():
    U = env_generator(S21, [generator(1)])
    V = env_generator(S21, [node([generator(1), generator(1)])])
    assert U * V != V * U
    one = EnvElement.one(S21)
    assert one * U == U == U * one
    assert (U - U).is_zero
    assert (2 * U + V) - V == U + U
    assert (4 * U) / 2 == 2 * U
    assert U.coeff((EnvGenerator(S21, (generator(1),)),)) == 1
    assert str(one) == "1"
    assert str(EnvElement.zero(S21)) == "0"


def test_action_on_partner_words():
    x = _x()
    d = doubled_signature(S21)
    y = Element.from_word(d, partner(S21, 1))
    U = env_generator(S21, [generator(1)])
    xy = Element.from_word(d, node([generator(2), generator(1)]))
    assert env_act(U, y) == xy
    assert env_act(U * U, y) == Element.from_word(
        d, node([node([generator(2), generator(1)]), generator(1)])
    )
    assert env_act(EnvElement.zero(S21), y).is_zero
    with pytest.raises(AlgebraError):
        env_act(U, x)


def test_action_applies_factors_right_to_left():
    ns = Signature(2, False, False, 1)
    dns = doubled_signature(ns)
    y = Element.from_word(dns, partner(ns, 1))
    a = generator(1)
    u = env_generator(ns, [a], 1) * env_generator(ns, [a], 2)
    # rightmost factor first: slot-2 insertion, then slot-1 insertion
    inner = node([a, generator(2)])
    assert env_act(u, y) == Element.from_word(dns, node([inner, a]))


def test_algebra_action_examples():
    x = _x()
    U = env_generator(S21, [generator(1)])
    assert env_apply_alg(U, x) == x * x
    Ux2 = env_generator(S21, [node([generator(1), generator(1)])])
    assert env_apply_alg(Ux2, x) == (x * x) * x
    ctx = binary_nilpotent_context()
    assert env_apply_alg(U * U * U, x, ctx).is_zero
    assert env_apply_alg(U * U, x, ctx) == x * (x * x)


def test_env_application_is_a_homomorphism(rng):
    words = [generator(1), node([generator(1), generator(1)])]
    pool = [env_generator(S21, [w]) for w in words]
    pool.append(pool[0] * pool[1] - 2 * pool[0])
    for _ in range(10):
        u = rng.choice(pool)
        v = rng.choice(pool)
        a = random_element(S21, rng, max_length=2)
        assert env_apply_alg(u * v, a) == env_apply_alg(u, env_apply_alg(v, a))


def test_env_is_zero_free_cases():
    U = env_generator(S21, [generator(1)])
    Ux2 = env_generator(S21, [node([generator(1), generator(1)])])
    assert not env_is_zero(U * U)
    assert env_is_zero(U * U - U * U)
    assert env_is_zero(3 * Ux2 - 3 * Ux2)
    assert env_is_zero(EnvElement.zero(S21))
    assert not env_is_zero(EnvElement.one(S21))


def test_env_is_zero_sees_quotient_relations():
    # the degree-three left-multiplication identity as an operator element
    x = _x()
    U = env_generator(S21, [generator(1)])
    Ux2 = env_generator(S21, [x * x])
    Uxx2 = env_generator(S21, [x * (x * x)])
    ident = Uxx2 + U * Ux2 + 2 * U * U * U
    assert not env_is_zero(ident)
    assert env_is_zero(ident, binary_nilpotent_context())


def test_jacobian_of_identity_tuple():
    x1, x2 = generators(S22)
    assert jacobian((x1, x2)) == JacobianMatrix.identity(S22)


def test_jacobian_pinned_examples():
    x = _x()
    assert jacobian((x * x,)).entries[0][0] == 2 * env_generator(
        S21, [generator(1)]
    )
    (t,) = generators(S31)
    D = Derivation(S31, [bracket([t, t, t])])
    assert jacobian(D).entries[0][0] == 3 * env_generator(
        S31, [generator(1), generator(1)]
    )
    x1, x2 = generators(S22)
    J = jacobian((x2 * x2, Element.zero(S22)))
    assert J.entries[0][0].is_zero
    assert J.entries[0][1] == 2 * env_generator(S22, [generator(2)])
    assert J.entries[1][0].is_zero and J.entries[1][1].is_zero


def test_jacobian_validation():
    x = _x()
    with pytest.raises(AlgebraError):
        jacobian(())
    with pytest.raises(AlgebraError):
        jacobian((x, x))
    with pytest.raises(AlgebraError):
        JacobianMatrix(S22, [[EnvElement.zero(S22)]])


def test_matrix_product_follows_composition(rng):
    x1, x2 = generators(S22)
    A = jacobian((x1 * x2, x2 * x2))
    B = jacobian((x2, x1 * x1))
    d = doubled_signature(S22)
    for j in (1, 2):
        yj = Element.from_word(d, partner(S22, j))
        for i in (0, 1):
            lhs = env_act((A @ B).entries[i][j - 1], yj)
            rhs = sum(
                (env_act(A.entries[i][k], env_act(B.entries[k][j - 1], yj))
                 for k in (0, 1)),
                Element.zero(d),
            )
            assert lhs == rhs


def test_product_rule_for_derivations(rng):
    # composing derivations multiplies coordinates through the Jacobian
    for sig in (S21, S22, S31):
        n = sig.num_generators
        for _ in range(8):
            F = tuple(random_element(sig, rng, max_length=2) for _ in range(n))
            G = tuple(random_element(sig, rng, max_length=2) for _ in range(n))
            JG = jacobian(G)
            coords = [
                sum(
                    (env_apply_alg(JG.entries[i][j], F[j]) for j in range(n)),
                    Element.zero(sig),
                )
                for i in range(n)
            ]
            assert lsym_mul(Derivation(sig, F), Derivation(sig, G)) == Derivation(
                sig, coords
            )


def test_chain_of_right_products_matches_matrix_powers(rng):
    n = S22.num_generators
    for _ in range(5):
        F = tuple(random_element(S22, rng, max_length=2) for _ in range(n))
        G = tuple(random_element(S22, rng, max_length=2) for _ in range(n))
        JG = jacobian(G)
        prod = Derivation(S22, F)
        power = JG
        DG = Derivation(S22, G)
        for _k in range(3):
            prod = prod * DG
            coords = [
                sum(
                    (env_apply_alg(power.entries[i][j], F[j]) for j in range(n)),
                    Element.zero(S22),
                )
                for i in range(n)
            ]
            assert prod == Derivation(S22, coords)
            power = power @ JG


def test_nilpotency_of_triangular_jacobian():
    x1, x2 = generators(S22)
    J = jacobian((x2 * x2, Element.zero(S22)))
    assert mat_is_nilpotent(J) == 2


def test_triangular_nilpotency_kills_right_products(rng):
    x1, x2 = generators(S22)
    D = Derivation(S22, (x2 * x2, Element.zero(S22)))
    k = mat_is_nilpotent(jacobian(D))
    assert k == 2
    for _ in range(10):
        F = Derivation(
            S22, tuple(random_element(S22, rng, max_length=3) for _ in range(2))
        )
        prod = F
        for _i in range(k):
            prod = prod * D
        assert prod.is_zero


def test_nilpotency_absent_in_the_free_algebra():
    x = _x()
    assert mat_is_nilpotent(jacobian((x * x,)), 6) is None


@pytest.fixture
def matmuls(monkeypatch):
    """A list that grows by one item per matrix product."""
    calls = []
    product = JacobianMatrix.__matmul__
    monkeypatch.setattr(
        JacobianMatrix, "__matmul__", lambda a, b: calls.append(1) or product(a, b)
    )
    return calls


@pytest.mark.parametrize("bound", [1, 2, 6])
def test_nilpotency_probe_makes_no_power_past_the_bound(matmuls, bound):
    # J^1..J^bound cost bound - 1 products, and J^(bound + 1) is never made
    x = _x()
    assert mat_is_nilpotent(jacobian((x * x,)), bound) is None
    assert len(matmuls) == bound - 1


def test_nilpotency_probe_makes_no_power_past_the_answer(matmuls):
    x1, x2 = generators(S22)
    assert mat_is_nilpotent(jacobian((x2 * x2, Element.zero(S22))), 6) == 2
    assert len(matmuls) == 1


def test_nilpotency_probe_hits_truncation():
    x = _x()
    out = mat_is_nilpotent(jacobian((x * x,)), 8, binary_nilpotent_context())
    assert out is UNKNOWN


def test_nilpotency_probe_ternary_quotient():
    (t,) = generators(S31)
    D = Derivation(S31, [bracket([t, t, t])])
    assert mat_is_nilpotent(jacobian(D), 6, ternary_nilpotent_context()) == 4


def test_nilpotency_bound_validation():
    x = _x()
    with pytest.raises(AlgebraError):
        mat_is_nilpotent(jacobian((x,)), 0)
