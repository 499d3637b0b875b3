"""Exception hierarchy shared across the package."""


class CFLimitsError(Exception):
    """Base class for all package-specific errors."""


class DegenerateMapError(CFLimitsError):
    """Moebius coefficients with (numerically) vanishing determinant."""


class ZeroPartialNumeratorError(CFLimitsError):
    """A continued fraction generated a partial numerator equal to zero."""

    def __init__(self, n: int):
        super().__init__(f"partial numerator a_{n} is zero")
        self.n = n


class IndeterminateValueError(CFLimitsError):
    """A projective pair degenerated to (0, 0); the recurrence invariant broke."""


class ZeroScaleError(CFLimitsError):
    """Equivalence transformation with a zero scale factor."""

    def __init__(self, n: int):
        super().__init__(f"equivalence scale c_{n} is zero")
        self.n = n


class EqualAlphaBetaError(CFLimitsError):
    """The two characteristic points on the unit circle coincide."""


class QEqualsAlphaBetaError(CFLimitsError):
    """A perturbation q_n hit alpha*beta, which zeroes a partial numerator."""

    def __init__(self, n: int):
        super().__init__(f"q_{n} equals alpha*beta; partial numerator vanishes")
        self.n = n


class NoConvergenceError(CFLimitsError):
    """An iteration exhausted its budget before reaching its tolerance."""

    def __init__(self, message: str, last_delta: float | None = None):
        super().__init__(message)
        self.last_delta = last_delta


class BudgetExceededError(NoConvergenceError):
    """Matrix-product iteration exhausted its budget."""


class SeriesNotConvergedError(NoConvergenceError):
    """A q-series or q-product truncation failed to meet its tolerance."""


class DegenerateTripleError(CFLimitsError):
    """Three prescribed Moebius images are not pairwise distinct."""


class DegenerateTermError(CFLimitsError):
    """A displayed denominator of a transformed continued fraction vanished."""

    def __init__(self, n: int):
        super().__init__(f"transformed continued fraction has a vanishing denominator at term {n}")
        self.n = n


class RootOfUnityLambdaError(CFLimitsError):
    """alpha/beta is a root of unity where the construction requires it not to be."""


class NotEllipticError(CFLimitsError):
    """Limit coefficients whose characteristic roots do not share a modulus."""


class MNotFiniteOrderError(CFLimitsError):
    """M^m differs from the identity beyond tolerance."""


class UnboundedMProductsError(CFLimitsError, ValueError):
    """M is singular, not diagonalizable or has an eigenvalue off the unit circle,
    so M^n or M^-n is unbounded; raised for the argument, so also a ValueError."""


class InvalidFactorError(CFLimitsError):
    """Factor n of a matrix product, or convergent n of a fraction, is not finite; or factor n is not M."""

    def __init__(self, message: str, n: int):
        super().__init__(message)
        self.n = n


class RootsNotDistinctError(CFLimitsError):
    """Characteristic roots are not pairwise distinct."""


class RootsNotUnitModulusError(CFLimitsError):
    """A characteristic root strays from the unit circle."""


class SingularBError(CFLimitsError):
    """The trailing block of a matrix is singular; the projection is undefined."""

    def __init__(self):
        super().__init__("singular trailing block")


class PoleInDenominatorError(CFLimitsError):
    """A q-series denominator factor vanished."""


class ConfigError(CFLimitsError):
    """Malformed experiment configuration."""
