"""Exception types shared across the package."""


class QforgeError(Exception):
    """Base class for all qforge errors."""


class ValidationError(QforgeError, ValueError):
    """A state or spec failed an invariant check."""


class NotFinite(ValidationError):
    """A matrix holds a NaN or infinite entry."""


class NotHermitian(ValidationError):
    pass


class TraceNotOne(ValidationError):
    pass


class NotPositive(ValidationError):
    pass


class NotNormalized(ValidationError):
    pass


class OutOfRange(ValidationError):
    """A family or element parameter is outside its allowed range."""


class BadWeights(ValidationError):
    """Mixture weights are negative or do not sum to one."""


class BadNorm(ValidationError):
    pass


class BadF(ValidationError):
    """Decoherence factor with magnitude above one."""


class MismatchedDecoherers(QforgeError):
    """Two decoherers that must share birefringence/axis do not."""


class TargetOutOfRange(QforgeError, ValueError):
    """Requested |f| target cannot be realized."""


class TimingCollision(QforgeError):
    """Two distinct recipe branches share a timing tag."""


class UnsupportedTarget(QforgeError):
    """A compilation scheme cannot accept this kind of target."""
