"""Exception types shared across the package.

Two families: ConfigurationError covers inputs the caller can fix
(invalid config values, malformed files, inconsistent scenario
settings) and maps to CLI exit code 2. PipelineError covers failures
raised while processing otherwise valid inputs (degenerate grids,
ill-conditioned solves) and maps to CLI exit code 3.
"""


class OfdmJrcError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(OfdmJrcError):
    """Invalid configuration or scenario input; the message names the failed check."""


class PipelineError(OfdmJrcError):
    """Processing failed on otherwise valid inputs."""


class SingularityError(PipelineError):
    """A physical quantity hit a pole, e.g. zero range in the path-loss law."""


class CalibrationError(PipelineError):
    """Noise calibration is impossible (zero-energy grid at finite SNR)."""


class DivisionGuardError(PipelineError):
    """Known-symbol removal would divide by a near-zero symbol."""


class NoPeakError(PipelineError):
    """A grid with no energy, so no peak; extraction reports it per row."""


class EstimationSetupError(PipelineError):
    """Design matrices cannot be built (too few rows, degenerate columns)."""


class IllConditionedError(PipelineError):
    """Least-squares system condition number exceeds the safe limit."""

    def __init__(self, message: str, condition: float):
        super().__init__(message)
        self.condition = float(condition)
