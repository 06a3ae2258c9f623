"""Exception types raised by the library.

Every failure mode that callers are expected to branch on gets its own
class; generic misuse (bad shapes, bad arguments) raises ``ValueError``.
"""


class PlanarInitError(Exception):
    """Base class for all library errors."""


class FrameMismatchError(PlanarInitError):
    """Pose composition attempted between non-chaining frame labels."""


class BehindCameraError(PlanarInitError):
    """Projection of a point with non-positive depth."""


class InsufficientDataError(PlanarInitError):
    """Fewer data points than the minimal problem requires."""


class DegenerateEstimationError(PlanarInitError):
    """Robust homography estimation found no consensus set."""


class DegenerateHomographyError(PlanarInitError):
    """Homography matrix is numerically rank deficient."""


class InconsistentDataError(PlanarInitError):
    """Positive-depth filtering rejected every decomposition candidate."""


class NoSolutionError(PlanarInitError):
    """Solution selection was given an empty candidate list."""


class StreamError(PlanarInitError):
    """IMU sample stream is empty, unordered, or misaligned in time."""


class InvalidDisparityError(PlanarInitError):
    """Stereo disparity is zero or negative."""


class DegenerateTranslationError(PlanarInitError):
    """Up-to-scale translation too small for scale recovery (pure rotation)."""


class UnobservableVelocityError(PlanarInitError):
    """Motion-field Jacobian is rank deficient; velocity unobservable."""


class ZeroDepthError(PlanarInitError):
    """Feature depth is (numerically) zero in a motion-field expression."""


class HorizonSingularityError(PlanarInitError):
    """Homography denominator vanishes at the requested image point."""


class InvalidPlaneError(PlanarInitError):
    """Plane distance must be strictly positive."""


class TimeStepError(PlanarInitError):
    """Non-positive time step."""


class AlignmentError(PlanarInitError):
    """Estimate and ground-truth series share no timestamps."""


class PipelineError(PlanarInitError):
    """A named stage of the initialization pipeline failed."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.message = message
        self.diagnostics: dict = {}  # what the pipeline computed before failing

    def __reduce__(self):
        # Exception pickles only its formatted message, which __init__ cannot
        # take back; rebuild from the raw parts and restore the diagnostics
        return type(self), (self.stage, self.message), {"diagnostics": self.diagnostics}
