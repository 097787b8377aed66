"""Exception hierarchy shared by all pipeline stages."""


class KSDLabError(Exception):
    """Base class for all package errors."""


class DomainError(KSDLabError):
    """Parameters outside the admissible range (e.g. mu >= 1/3)."""


class NoConvergence(KSDLabError):
    """An error estimate (series, quadrature) or a residual stayed above its tolerance."""


class RegionExitScenario1(KSDLabError):
    """Trajectory crossed f = Q/3 (numerical failure; excluded analytically)."""


class RegionExitScenario2(KSDLabError):
    """Q crossed zero before f (numerical failure; excluded analytically)."""


class StepSizeUnderflow(KSDLabError):
    """Integrator step collapsed near the handoff (beta - f ~ 0)."""


class OutOfRange(KSDLabError):
    """Query point outside the sampled grid."""


class GridMismatch(KSDLabError):
    """Sampled functions live on different grids."""


class DivergentIntegrand(KSDLabError):
    """Vanishing order too low for the singular weight."""


class CFLViolation(KSDLabError):
    """Requested time step violates the stability bound."""


class NotPositiveDefinite(KSDLabError):
    """A symmetric solve met a non-positive pivot (LAPACK ``pttrf`` info != 0)."""


class NonFiniteField(KSDLabError):
    """NaN or Inf appeared in an evolved field."""


class IllConditionedFit(KSDLabError):
    """Mode-extraction design matrix condition number too large."""


class ForcingDominates(KSDLabError):
    """Diffusive forcing swamps the modal derivative in a rate fit."""


class NoBlowupDetected(KSDLabError):
    """No blowup to fit.  ``stop`` names the stop: ``"decay"`` when the sup-norm halved,
    ``"no_growth"`` when it did not grow tenfold by ``t = 20 lam0^2``, ``"budget"`` when the
    steps ran out, ``"resolution"`` when the half-max radius reached the resolution floor
    before tenfold growth."""

    def __init__(self, message: str, stop: str):
        super().__init__(message)
        self.stop = stop


class SnapshotMismatch(KSDLabError):
    """Snapshots incompatible for the rescaling check."""


class ConfigParseError(KSDLabError):
    """Run configuration could not be parsed or validated."""

