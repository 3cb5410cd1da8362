"""Exception hierarchy shared by all walkweights modules.

Every error names the invariant or precondition it reports; messages carry
the offending vertices/values so callers can act without string parsing.
"""

from __future__ import annotations


class WalkWeightsError(Exception):
    """Base class for all library errors."""


# -- graph construction -------------------------------------------------

class SelfLoop(WalkWeightsError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(WalkWeightsError):
    """The same unordered vertex pair appears twice in the edge list."""


class Disconnected(WalkWeightsError):
    """The graph (or a required induced subgraph) is not connected."""


class InOutCoincide(WalkWeightsError):
    """The start and absorbing vertices are the same vertex."""


class NonpositiveWeight(WalkWeightsError):
    """A vertex weight is zero or negative."""


# -- spectral machinery --------------------------------------------------

class NotSymmetric(WalkWeightsError):
    """A matrix expected to be symmetric is not."""


class EigenFailure(WalkWeightsError):
    """Eigendecomposition failed or did not satisfy its post-conditions."""


class ZeroEigenvalueAmbiguous(WalkWeightsError):
    """More than one eigenvalue lies in the zero band (disconnected input)."""


class DimensionMismatch(WalkWeightsError):
    """Matrix operands have inconsistent shapes."""


# -- occupation times ----------------------------------------------------

class SingularSystem(WalkWeightsError):
    """The pinned fixed-point system has no unique solution."""


class StepLimitExceeded(WalkWeightsError):
    """A simulated walk hit the step cap before absorption."""


class InvalidTarget(WalkWeightsError, ValueError):
    """A target occupation vector has the wrong shape or a non-finite entry,
    or a negative entry where its support is taken."""


# -- reconstruction ------------------------------------------------------

class SupportMismatch(WalkWeightsError):
    """Target occupation support is unusable (zeros, disconnection, or
    missing start/absorbing vertex)."""


class NoDescent(WalkWeightsError):
    """A reconstruction found no decrease: the Newton system of
    ``reconstruct_weights`` turned singular, or the line search of either
    ``reconstruct_weights`` or ``steepest_descent`` underflowed.

    Carries the partial result in ``result`` when raised by the solver.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class ZeroVariance(WalkWeightsError):
    """Pearson correlation is undefined: one variable is constant."""


# -- solvability ---------------------------------------------------------

class CapTooSmall(WalkWeightsError):
    """No proper walk fits under the requested length cap."""


class NotInPsi(WalkWeightsError):
    """The target occupation vector is outside the solvable cone."""


class Irreducible(WalkWeightsError):
    """No pendant/twin reduction applies and no base-case solver fits."""


class VerificationError(WalkWeightsError):
    """A solver's internal round-trip check did not meet tolerance."""
