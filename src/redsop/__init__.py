"""Systems of parameters, reducing sequences and Cohen-Macaulay tests.

Exact computational commutative algebra over graded polynomial rings
viewed as graded-local rings: a Buchberger kernel, a combinatorial
oracle for monomial ideals, checkers and constructors for (parts of)
reducing systems of parameters, Cohen-Macaulay tests, and the strong
Cohen-Macaulay locus, all backed by seeded verification suites.
"""

from .poly import (
    GREVLEX,
    LEX,
    EliminationOrder,
    GrevlexOrder,
    HomogeneityError,
    LexOrder,
    ParseError,
    Polynomial,
    PolyRing,
    parse_poly,
)
from .groebner import Ideal, buchberger
from .monomial import (
    IrreducibleComponent,
    MonomialPrime,
    ass_monomial,
    assh_monomial,
    depth_monomial,
    irreducible_decomposition,
    localize_at_monomial_prime,
    member_of_monomial_prime,
    monomial_intersection,
    monomial_primes,
    oracle_dim,
)
from .sop import (
    CmCertificate,
    ConstructionResult,
    CyclicModule,
    ParamSequence,
    ReducingCheck,
    RetryBudgetError,
    ViolationWitness,
    depth_oracle,
    is_cm_reducing,
    is_part_of_sop,
    is_reducing_sop,
    is_regular_sequence,
    make_reducing,
    max_assoc_dim_containing,
    random_sop,
)
from .cmlocus import (
    CmLocusEntry,
    cm_locus_monomial_r,
    cm_membership_general,
    cm_membership_monomial,
    construct_reducing_part_in_prime,
)

__version__ = "0.1.0"
