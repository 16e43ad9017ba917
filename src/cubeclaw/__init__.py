"""Claw / induced-cycle structure detection and witness extraction in hypercubes.

Any subset of the n-cube's vertices holding at least 2^(n-1) + 1 of them
(n >= 4) contains four vertices inducing a claw or eight vertices
inducing a cycle.  This package machine-checks that statement's base
cases exhaustively, extracts explicit witnesses by subcube descent, and
establishes by branch-and-bound search that the half-the-vertices bound
is tight.
"""

from .detect import (
    Claw,
    FiveSetKind,
    InducedCycle,
    PathClassification,
    Witness,
    check_witness,
    classify_five_set,
    find_claw,
    find_induced_cycle,
    find_theorem_witness,
    witness_to_text,
)
from .errors import InsufficientCardinalityError, SetParseError, TheoremViolationError
from .hypercube import (
    VertexSet,
    canonical_form,
    embed,
    split,
    vertex_from_text,
    vertex_to_text,
)
from .verify import (
    ExtremalResult,
    VerificationReport,
    extremal_search,
    random_agreement_test,
    verify_case_claims,
    verify_proposition_exhaustive,
    verify_theorem_exhaustive,
)
from .witness import (
    ExtractionTrace,
    SplitStep,
    base_case_solve,
    base_case_solve_structured,
    find_witness_inductive,
    required_size,
)

__version__ = "0.1.0"
