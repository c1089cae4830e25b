"""gatecalc: reversible gates and shifts on the two-sided binary tape.

The group at the centre of this package is generated by the tape shift
and the gates, the invertible maps that touch only a bounded window of
cells.  Everything is built on one fact: each element factors uniquely
as a shift power followed by a gate in canonical table form, so group
equality is decidable and fast.  On top of that sit ring projections,
subgroup membership predicates, universality classification of pattern
swaps and of one-cell cellular-automaton updates, program synthesis for
the standard gate library, a straight-line program grammar with golden
data, and a bounded word search.

All public value types (InertGate, GroupElement, CyclicPerm, GateExpr,
Program) are immutable and safe to share between threads.
"""

from .bitcore import diff_set, gf2_divides, int_to_word, word_to_int
from .gates import (
    ExpansionCapError,
    GateExpr,
    GroupElement,
    IDENTITY,
    InertGate,
    NotInvertibleError,
    Program,
    WindowCapError,
    apply,
    canonicalize,
    compose_many,
    evaluate_expr,
    evaluate_program,
    identity_gate,
    make_eca,
    make_named,
    make_word_swap,
    program_matches,
)
from .cyclic import (
    CyclicPerm,
    LocalityOutcome,
    RingTooSmallError,
    check_conjugation_identity,
    check_locality_homomorphism,
    necklace_count,
    necklace_count_by_orbits,
    project_formula,
    project_periodic,
    sign,
)
from .analysis import (
    EcaClass,
    EcaVerdict,
    SwapClass,
    SwapVerdict,
    classify_eca,
    classify_swap,
    in_GL,
    in_GR,
    in_GV,
    is_affine,
    is_lamplighter,
    is_linear,
    is_wire_permutation,
)
from .synth import NotUniversalError, eliminate_bit, synthesize_nct
from .search import SearchConfig, SearchResult

__version__ = "0.1.0"
