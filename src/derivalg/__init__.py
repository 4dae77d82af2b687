"""Left-symmetric algebras of derivations of free m-ary algebras.

Everything is computed exactly over the rationals: free algebras of tree
words, their derivation algebras with the left-symmetric product, Fox
derivatives and Jacobians in the multiplication envelope, finitely based
quotient varieties at bounded degree, structure-constant algebras on
integer-indexed bases, and generation certificates for the positive part.
"""

__version__ = "0.1.0"

from .freealg import (
    UNKNOWN,
    AlgebraError,
    ArityError,
    Element,
    Signature,
    TruncationError,
    Word,
    UNIT,
    bracket,
    bracket_words,
    enumerate_reduced,
    generator,
    generators,
    node,
    normalize,
    substitute,
    unit_element,
)
from .deriv import (
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
from .varieties import (
    Identity,
    QuotientSpace,
    VarietyPresentation,
    default_truncation,
    engel_index,
    multilinearize,
    partial_linearize,
    quotient_space,
    variety,
)
from .envfox import (
    EnvElement,
    EnvGenerator,
    JacobianMatrix,
    env_act,
    env_apply_alg,
    env_generator,
    env_is_zero,
    fox_derivatives,
    jacobian,
    mat_is_nilpotent,
    omega,
)
from .structconst import (
    Counterexample,
    IndexedAlgebra,
    IndexedElement,
    builtin,
    check_identity,
    derivation_of_power,
    named_identity,
)
from .genpos import Certificate, SpanReport, certificate, rho, seed_derivation, span_check
from .sexpr import (
    ParseError,
    parse_derivation,
    parse_element,
    parse_index_range,
    parse_indexed,
    parse_word,
)
