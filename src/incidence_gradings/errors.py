"""Exception types shared across the library.

Every error raised by the library derives from IncidenceGradingsError, so
callers (in particular the CLI) can separate library failures from bugs.
"""


class IncidenceGradingsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidElement(IncidenceGradingsError):
    """Coordinates do not describe an element of the given group, an
    incidence element has a support pair that is not comparable, or a
    realized basis lacks a diagonal image the radical-square check needs
    or has one with an off-diagonal entry."""


class AmbientMismatch(IncidenceGradingsError):
    """Operands live over different ambient groups."""


class InfiniteSubgroup(IncidenceGradingsError):
    """Operation requires a finite subgroup."""


class NotASubgroup(IncidenceGradingsError):
    """The claimed containment K <= H does not hold."""


class DomainMismatch(IncidenceGradingsError):
    """Characters (or twist data) defined on incompatible domains."""


class CycleDetected(IncidenceGradingsError):
    """Transitive closure of the given relation violates antisymmetry."""


class PosetMismatch(IncidenceGradingsError):
    """Incidence elements over different posets."""


class InvalidPartition(IncidenceGradingsError):
    """The given blocks do not partition the poset's elements."""


class BlockMismatch(IncidenceGradingsError):
    """Bimodule classes over different (left, right) subgroup pairs."""


class ChainMismatch(IncidenceGradingsError):
    """Product of bimodule classes whose middle subgroups differ."""


class DegreeConflict(IncidenceGradingsError):
    """Two factorizations of one character force degrees in different
    double cosets."""


class ChainInconsistency(DegreeConflict):
    """Two saturated chains between the same pair of skeleton vertices
    produce non-isomorphic derived bimodules."""


class InvalidDatum(IncidenceGradingsError):
    """Structural invariants of a grading datum are violated."""


class NotValid(IncidenceGradingsError):
    """realize() called on a datum that fails validation.

    The offending ValidationReport is attached as .report.
    """

    def __init__(self, report, message="datum fails validation"):
        super().__init__(message)
        self.report = report


class InternalTransitivityFailure(IncidenceGradingsError):
    """Defensive check: the realized relation was not transitive.

    This indicates a library bug; it is never expected on validated input.
    """


class NoIntermediateBlock(IncidenceGradingsError):
    """Two-step product requested between blocks with nothing in between."""


class MalformedInput(IncidenceGradingsError):
    """JSON input does not match the documented schema."""


class BudgetExceeded(IncidenceGradingsError):
    """The input is larger than a fixed size budget of the library."""
