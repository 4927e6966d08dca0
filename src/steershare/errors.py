"""Exception types raised by the steershare pipeline."""


class SteershareError(ValueError):
    """Base class for all steershare errors."""


class ShapeError(SteershareError):
    """Argument of the wrong type, or matrix dimensions inconsistent with the
    requested operation."""


class NotHermitianError(SteershareError):
    """Operation requires a Hermitian matrix."""


class ConfigError(SteershareError):
    """Invalid or inconsistent scenario configuration."""


class UnsupportedSizeError(SteershareError):
    """Requested size exceeds what this artifact supports."""
