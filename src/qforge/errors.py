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


class NotUnitary(ValidationError):
    """A recipe's local rotation is not a unitary matrix."""


class OutOfRange(ValidationError):
    """A family or element parameter is outside its allowed range."""


class BadWeights(ValidationError):
    """Mixture weights are negative or do not sum to one."""


class BadNorm(ValidationError):
    pass


class BadF(ValidationError):
    """Decoherence factor with magnitude above one."""


class MismatchedDecoherers(QforgeError):
    """Two decoherers that must share an axis do not."""


class TargetOutOfRange(QforgeError, ValueError):
    """Requested |f| target cannot be realized."""


class TimingCollision(QforgeError):
    """Two distinct recipe branches share a timing tag."""


class UnsupportedTarget(QforgeError):
    """A compilation scheme cannot accept this kind of target."""


class VerificationFailed(QforgeError):
    """A produced state's fidelity to its target is below the threshold."""


class InconsistentRecipe(ValidationError):
    """A recipe's scheme label, pump split or decoherer delta_n disagrees with the rest."""


class RecipeParse(QforgeError):
    """A recipe file is not a well-formed recipe-v1 document."""


class DefaultsFile(QforgeError):
    """The QFORGE_DEFAULTS file cannot be read or holds no JSON object."""
