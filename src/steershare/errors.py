"""Exception types raised by the steershare pipeline."""


class SteershareError(ValueError):
    """Base class for all steershare errors."""


class ShapeError(SteershareError):
    """Argument of the wrong type, or matrix dimensions inconsistent with the
    requested operation."""


class NotHermitianError(SteershareError):
    """Operation requires a Hermitian matrix."""


class NotCompressibleError(SteershareError):
    """State has weight outside the compression span{|00>, |11>} x C2."""


class InvariantError(SteershareError):
    """A run tensor left the Pauli components of GHZ that its states and
    ellipsoids rest on (`states.check_run_tensors`): a broken invariant."""


class ConfigError(SteershareError):
    """Invalid or inconsistent scenario configuration."""


class UnsupportedSizeError(SteershareError):
    """Requested size exceeds what this artifact supports."""
