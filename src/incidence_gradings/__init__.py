"""Exact construction, validation and classification of group gradings
on finite-dimensional incidence algebras.

The public surface mirrors the data the theory runs on: finitely
generated abelian groups and their finite subgroups, characters valued in
Q/Z, exact cyclotomic scalars, finite posets with their incidence
algebras, graded bimodule classes, and the grading datum
(skeleton poset, blocks, cover bimodules) with realization, validation,
isomorphism testing and a brute-force oracle.
"""

from .abelian import (
    AbelianGroup,
    GroupElement,
    Subgroup,
    all_subgroups,
    canonicalize,
    double_coset_eq,
    full_subgroup,
    intersect,
    subgroup_sum,
    trivial_subgroup,
)
from .bimodules import (
    BimoduleClass,
    bimodule_iso,
    bimodule_product,
    realizable,
    twist,
)
from .characters import (
    Character,
    dual_group,
    extension_fiber,
    restrict,
    trivial_character,
)
from .cyclo import CycloNumber, cyclotomic_polynomial, euler_phi, root_of_unity
from .datum import (
    BasisVector,
    GradingDatum,
    RealizedGrading,
    ValidationReport,
    derive_full_bimodules,
    grading_iso,
    realize,
    validate_datum,
)
from .errors import (
    AmbientMismatch,
    BlockMismatch,
    ChainInconsistency,
    ChainMismatch,
    CycleDetected,
    DegreeConflict,
    DomainMismatch,
    IncidenceGradingsError,
    InfiniteSubgroup,
    InternalTransitivityFailure,
    InvalidDatum,
    InvalidElement,
    InvalidPartition,
    MalformedInput,
    NoIntermediateBlock,
    NotASubgroup,
    NotValid,
    PosetMismatch,
)
from .incidence import IncidenceElement
from .oracle import (
    LinkEquationReport,
    VerificationReport,
    check_link_equation,
    radical_square_component,
    verify_grading,
)
from .posets import (
    Poset,
    antichain_poset,
    chain_poset,
    link_counts,
    poset_automorphisms,
    poset_from_relation,
    poset_isomorphisms,
)

__version__ = "0.1.0"
