"""Exception hierarchy for the realform package."""


class RealformError(Exception):
    """Base class for all realform errors."""


class RepeatedEigenvalues(RealformError):
    """Two eigenvalues coincide projectively within ``sep_tol``."""


class NonDiagonalizable(RealformError):
    """Eigenvector residuals exceed ``eig_tol``; no clean eigenbasis."""


class IncompatibleEigenvalues(RealformError):
    """No real line through the origin organizes the spectrum into
    on-line values and reflection-swapped pairs."""


class DegenerateFrame(RealformError):
    """k of the k+1 frame points lie in a common hyperplane."""


class NoConjugation(RealformError):
    """The antilinear system admits no conjugate-linear involution."""


class UnderdeterminedConjugation(RealformError):
    """The antilinear solve has extra freedom: infinitely many preserved
    projective real forms.  Carries a witness member of the family."""

    def __init__(self, message, witness=None, free_real_dims=0):
        super().__init__(message)
        self.witness = witness
        self.free_real_dims = free_real_dims


class NumericalDegeneracy(RealformError):
    """A construction that should succeed for valid input failed the
    numerical rank/conditioning gates."""


class SingularMatrix(NumericalDegeneracy, ValueError):
    """An input matrix is singular within ``deg_tol``."""


class GenericityViolation(RealformError):
    """A required direct-sum/genericity condition fails."""


class IndeterminateCrossRatio(RealformError):
    """Cross ratio of the form 0/0 (coincidences in both factors)."""


class DegenerateTriple(RealformError):
    """A triple-ratio denominator vanishes."""


class SharedEigendirections(RealformError):
    """No valid base pair: candidate generators share their whole
    eigendirection set."""


class SpectralPreconditionError(RealformError):
    """Input violates a spectral precondition of the chosen method."""


class InfeasibleSpec(RealformError):
    """Instance specification cannot be realized (parity/counts)."""
