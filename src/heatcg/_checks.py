"""The input checks shared by every public constructor and function, and frozen.

checked_real, checked_float and checked_count hold a scalar to the
real-number or count rule; checked_instance holds an operand to its type,
with the one message "{label} must be a/an {noun}, got {type}". Each rule
has its one owner here: checked_count is the one integer rule, and
linalg's element access adds only the index range.

frozen is @dataclass(frozen=True) for heatcg's value classes. dataclass
writes each class's __init__, __repr__, __eq__, __hash__, __setattr__ and
__delattr__ as source text and compiles it every time the module loads;
frozen installs six written once here instead, so a CLI process compiles
no code. It lives here because every module with a value class already
imports the checks. linalg.CrsMatrix takes its __eq__ and __hash__ from
here too, over the fields its __match_args__ names.
"""

import math
import reprlib
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from inspect import Parameter, Signature


def checked_real(value: object, label: str, sign: str = "") -> float:
    """Return value unchanged if it is a finite int or float, never a bool.

    sign "positive" also requires value > 0, "non-negative" value >= 0.
    Ints are not converted, so an int beyond the float range still passes;
    checked_float rejects it.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{label} must be a real number, got {type(value).__name__}")
    if (
        (isinstance(value, float) and not math.isfinite(value))
        or (sign == "positive" and value <= 0)
        or (sign == "non-negative" and value < 0)
    ):
        kind = f"finite {sign} real" if sign else "finite real"
        raise ValueError(f"{label} must be a {kind}, got {value!r}")
    return value


def checked_float(value: object, label: str, sign: str = "") -> float:
    """checked_real(value, label, sign) as a float; an int beyond its range is a ValueError."""
    try:
        return float(checked_real(value, label, sign))
    except OverflowError:
        raise ValueError(
            f"{label} must be a finite real, got an int beyond the float range"
        ) from None


def checked_count(value: object, label: str, minimum: int = 0) -> int:
    """Return value unchanged if it is an int, never a bool, of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{label} must be an integer, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{label} must be >= {minimum}, got {value}")
    return value


def checked_instance(value: object, kind: type, label: str):
    """Return value unchanged if it is an instance of kind, else a TypeError naming both types.

    The noun is kind's name, "string" for str, after "an" if it starts
    with a vowel and "a" otherwise.
    """
    if not isinstance(value, kind):
        noun = "string" if kind is str else kind.__name__
        article = "an" if noun[0] in "AEIOUaeiou" else "a"
        raise TypeError(f"{label} must be {article} {noun}, got {type(value).__name__}")
    return value


def frozen(cls: type) -> type:
    """cls as @dataclass(frozen=True) makes it, for fields with plain defaults (no field()).

    dataclass(init=False, repr=False, eq=False) records the fields, so fields,
    replace, asdict and __match_args__ (the field names in order, which the
    methods below read) work, and compiles nothing. The params then read as
    frozen=True's do, so a @dataclass(frozen=True) subclass is allowed.
    """
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    params = cls.__dataclass_params__
    params.init = params.repr = params.eq = params.frozen = True
    cls.__signature__ = Signature([Parameter(
        f.name, Parameter.POSITIONAL_OR_KEYWORD, annotation=f.type,
        default=Parameter.empty if f.default is MISSING else f.default) for f in fields(cls)
    ], return_annotation=None)
    cls.__init__, cls.__repr__, cls.__eq__, cls.__hash__ = _init, _repr, _eq, _hash
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    return cls


def _init(self, *args, **kwargs) -> None:
    """Each field from its argument or its default, in order; then __post_init__, if any."""
    cls = type(self)
    names = cls.__match_args__
    # set one by one, as dataclass does: reading self.__dict__ would give each
    # instance a dict object of its own beside its inline values
    for name, value in zip(names, args):
        object.__setattr__(self, name, value)
    for name in names[len(args):]:
        object.__setattr__(self, name, kwargs.pop(name, cls.__dataclass_fields__[name].default))
    for name in kwargs:  # left over: a field given by position too, or no field
        problem = "multiple values for" if name in names else "an unexpected keyword"
        raise TypeError(f"{cls.__qualname__}.__init__() got {problem} argument {name!r}")
    missing = [repr(name) for name in names[len(args):] if getattr(self, name) is MISSING]
    if missing or len(args) > len(names):
        problem = (f"missing required arguments: {', '.join(missing)}" if missing else
                   f"takes {len(names) + 1} positional arguments but {len(args) + 1} were given")
        raise TypeError(f"{cls.__qualname__}.__init__() {problem}")
    if hasattr(cls, "__post_init__"):
        self.__post_init__()


def _values(self) -> tuple:
    return tuple([getattr(self, name) for name in self.__match_args__])


@reprlib.recursive_repr()
def _repr(self) -> str:
    items = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
    return f"{self.__class__.__qualname__}({items})"


def _eq(self, other: object) -> bool:
    return _values(self) == _values(other) if other.__class__ is self.__class__ else NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _setattr(self, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")
