"""Exception types shared across the simulator."""


class ConfigurationError(ValueError):
    """Invalid or inconsistent experiment configuration."""


class CalibrationError(RuntimeError):
    """Load calibration failed to bracket or converge on the target."""


class EstimationError(RuntimeError):
    """Degenerate input to an estimation routine (e.g. empty covariance)."""
