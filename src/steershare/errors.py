"""Exception types raised by the steershare pipeline."""


class SteershareError(ValueError):
    """Base class for all steershare errors."""


class ShapeError(SteershareError):
    """Matrix dimensions inconsistent with the requested operation."""


class NotHermitianError(SteershareError):
    """Operation requires a Hermitian matrix."""


class NotCompressibleError(SteershareError):
    """State has weight outside the compression span{|00>, |11>} x C2."""


class DegenerateSteererError(SteershareError):
    """Steering party is (numerically) pure; ellipsoid formulas degenerate."""


class ConfigError(SteershareError):
    """Invalid or inconsistent scenario configuration."""


class UnsupportedSizeError(SteershareError):
    """Requested size exceeds what this artifact supports."""
