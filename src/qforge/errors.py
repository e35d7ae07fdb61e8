"""Exception types shared across the package; check_finite, the check
that raises NotFinite for a scalar input; and Record, the base of every
frozen record.  elements, recipe_io and cli import check_finite from here,
next to NotFinite, so a command that builds no element (verify checks
--min-fidelity with it) does not load elements; every command loads this
module, so Record adds no module to any of them."""

import math


class QforgeError(Exception):
    """Base class for all qforge errors."""


class ValidationError(QforgeError, ValueError):
    """A state or spec failed an invariant check."""


class NotFinite(ValidationError):
    """A matrix holds a NaN or infinite entry."""


def check_finite(**values: float) -> None:
    """Raise NotFinite naming the first keyword whose value is NaN, infinite
    or an integer beyond double range (a JSON number may be one); a bool,
    which Python would read as 0 or 1, is a TypeError."""
    for name, x in values.items():
        if isinstance(x, bool):
            raise TypeError(f"{name} must be a number, got {x}")
        try:
            finite = math.isfinite(x)
        except OverflowError:
            raise NotFinite(f"{name} is an integer beyond double range") from None
        if not finite:
            raise NotFinite(f"{name} = {x} is not finite")


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


class Record:
    """Base of the frozen records: each is a dataclass of its annotated fields
    that generates no method (a generated one is compiled from source at
    import); its own __init__ checks and stores them in one __dict__.update.
    Record adds what frozen=True and eq=True would: FrozenInstanceError on
    set and delete, and ==, hash and repr over the fields."""

    def __init_subclass__(cls):
        from dataclasses import dataclass

        dataclass(init=False, repr=False, eq=False)(cls)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__dataclass_fields__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__dataclass_fields__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")
