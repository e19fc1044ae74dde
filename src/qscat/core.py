"""Shared domain types, and the one rule that makes a failed point a value.

Complex amplitudes are plain Python ``complex`` values.  Natural units
(hbar = m = 1) are the default everywhere and can be overridden through
:class:`PhysicsContext`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidInputError, QscatError


@dataclass(frozen=True)
class PhysicsContext:
    """Values of hbar and the particle mass entering every wavenumber formula."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise InvalidInputError(f"hbar must be a positive real, got {self.hbar!r}")
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise InvalidInputError(f"mass must be a positive real, got {self.mass!r}")


NATURAL_UNITS = PhysicsContext()


@dataclass(frozen=True)
class ScatteringAmplitudes:
    """Complex transmission/reflection amplitude pair for one channel.

    Amplitudes follow the flux-normalised asymptotic convention (each plane
    wave carries a 1/sqrt(k) factor), so T = |t|^2 and R = |r|^2 hold even
    when the incoming and outgoing wavenumbers differ.
    """

    t: complex
    r: complex


class MethodResult(NamedTuple):
    """One method's labeled output at a single grid point."""

    method: str
    transmission: float | None = None
    reflection: float | None = None
    defect: float | None = None
    error: str | None = None


def method_result(method: str, *values: float | None) -> MethodResult | InvalidInputError:
    """MethodResult(method, *values) for values (T, R, defect) or the first of them, or
    an InvalidInputError when one that is not None is not finite."""
    if all(value is None or math.isfinite(value) for value in values):
        return MethodResult(method, *values)
    return InvalidInputError(f"the {method} result is not finite")


def first_errors(values: list, checks) -> list:
    """Per value, None or the error of the first of ``checks`` (1-d boolean array, error
    class, message with one {!r} field for the value) that flags it."""
    errors = [None] * len(values)
    for mask, error, message in checks:
        for i in mask.nonzero()[0].tolist():
            if errors[i] is None:
                errors[i] = error(message.format(values[i]))
    return errors


def each(f, items) -> list:
    """f(item) at each item, or the error it raises there: a QscatError as it is, an
    ArithmeticError (intermediates that leave double range) as an InvalidInputError."""
    out = []
    for item in items:
        try:
            out.append(f(item))
        except QscatError as exc:
            out.append(exc)
        except ArithmeticError as exc:
            out.append(InvalidInputError(f"intermediates leave double range: {exc}"))
    return out
