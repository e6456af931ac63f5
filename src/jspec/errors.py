"""Exception types shared across the library, and the float budget.

The CLI maps these onto its exit-code contract: input problems exit 2,
numerical failures exit 3, and violated mathematical hypotheses exit 4.
"""

FLOAT_BUDGET = 2**26
"""Most floats (512 MiB of float64) that one stacked array may hold: the
Haar draws of an orbit sample, a path's representation matrices and a
`connect` stack, the candidate rows of a pointedness probe, the candidates
and the NNLS stack of a certificate audit, a finite set's margin stacks, and
the factor-block assignments, frame and composition of `components`.  Each
is checked before it is allocated, so an oversized request (a huge `--count`,
`--samples` or `--steps`, too many generators or finite-set points, a huge
algebra) is an input error, never an allocation."""


def check_float_budget(floats: int, what: str):
    """Raise ValueError if `what` would allocate more than FLOAT_BUDGET floats."""
    if floats > FLOAT_BUDGET:
        raise ValueError(f"{what} would hold {floats} floats, over the budget of {FLOAT_BUDGET}")


class JspecError(Exception):
    """Base class for all library-specific errors."""


class AlgebraMismatchError(JspecError):
    """Operands carry different algebra descriptors."""


class InvalidFrameError(JspecError):
    """A claimed Jordan frame violates idempotency, orthogonality, or completeness."""


class UnsupportedAlgebraError(JspecError):
    """The operation is not defined for this algebra kind (e.g. needs a simple algebra)."""


class NumericError(JspecError):
    """A numerical kernel failed to converge.  Never swallowed silently."""


class NotInIdentityComponentError(JspecError):
    """The automorphism lies outside the identity component, so no path to it exists."""


class OrbitMismatchError(JspecError):
    """Endpoints do not share (factor-wise) eigenvalues, so no orbit path exists."""


class MembershipError(JspecError):
    """A required set-membership hypothesis does not hold."""


class InfeasiblePathError(JspecError):
    """No connectivity witness can be constructed; `clause` names the failed hypothesis."""

    def __init__(self, message: str, clause: str):
        super().__init__(message)
        self.clause = clause
