"""Exception hierarchy shared by all weyl_canon modules."""


class WeylCanonError(Exception):
    """Base class for every error raised by this package."""


class ExpressionSyntaxError(WeylCanonError):
    """Malformed expression text; carries the 1-based offending position."""

    def __init__(self, message, position, text=None):
        self.position = position
        self.text = text
        super().__init__(f"{message} (position {position})")


class UnknownIdentifierError(ExpressionSyntaxError):
    """Identifier that is neither x, i, pi, e nor a known function."""


class ExpressionDomainError(WeylCanonError):
    """Evaluation left the domain (division by zero, log of a non-positive
    real, overflow, non-finite result)."""


class SchemaError(WeylCanonError):
    """Problem document does not match the expected JSON layout."""


class ValidationError(WeylCanonError):
    """Problem data is structurally fine but mathematically inadmissible
    (non-Hermitian q, non-PSD w, atom outside the interval, ...)."""


class BadPointError(WeylCanonError):
    """lambda admits a bad point: some B-(x,lambda) or B+(x,lambda) is
    singular.  Carries the BadPointReport listing the offending atoms."""

    def __init__(self, report, message=None):
        self.report = report
        super().__init__(message or str(report))


class SingularForwardJumpError(WeylCanonError):
    """B+ is singular at an atom; the solution cannot be continued
    uniquely to the right."""

    def __init__(self, position, det_plus):
        self.position = position
        self.det_plus = det_plus
        super().__init__(
            f"B+ singular at x={position} (|det|={abs(det_plus):.3e}); "
            "forward propagation is not unique past this atom"
        )


class SingularBackwardJumpError(WeylCanonError):
    """B- is singular at an atom; backward propagation stops there."""

    def __init__(self, position, det_minus):
        self.position = position
        self.det_minus = det_minus
        super().__init__(
            f"B- singular at x={position} (|det|={abs(det_minus):.3e}); "
            "backward propagation is not unique past this atom"
        )


class IntegrationFailureError(WeylCanonError):
    """The ODE integrator gave up (step-size underflow, blow-up)."""

    def __init__(self, message, location=None):
        self.location = location
        super().__init__(message)


class DegenerateUError(WeylCanonError):
    """The fundamental matrix is numerically singular at the evaluation
    point.  Never happens for lambda outside Lambda; signals either a
    propagation failure or a lambda with a bad point."""


class DegenerateHalfPlaneError(WeylCanonError):
    """An operation that needs a positive psi-norm was called while the
    Weyl set is a half plane (psi-norm numerically zero)."""


class NonRealResultError(WeylCanonError):
    """A quantity that must be a real number (a Lagrange-identity norm)
    came out non-finite; signals a propagation defect."""


class InconclusiveError(WeylCanonError):
    """A limit/classification question could not be decided at the
    available truncation points."""


class UnknownExampleError(WeylCanonError):
    """Catalog lookup with a name that is not in the catalog."""


class UnknownQuantityError(WeylCanonError):
    """A closed-form record does not provide the requested quantity."""
