"""Shared domain types, and the rules that make a failed point a value.

A method's results at an array of points are one ``MethodColumns``, whose per-point
errors come from ``method_columns`` and ``first_errors``; ``MethodResult`` is one
point of it.  Natural units (hbar = m = 1) are the default everywhere and can be
overridden through :class:`PhysicsContext`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError


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


class MethodColumns(NamedTuple):
    """One method's results at an array of points: T and, for the exact method, R and
    the defect |T + R - 1| as float arrays (None for a method without them), and per
    point None or its error."""

    transmission: np.ndarray
    reflection: np.ndarray | None
    defect: np.ndarray | None
    errors: list


class MethodResult(NamedTuple):
    """One method's labeled output at a single grid point."""

    method: str
    transmission: float | None = None
    reflection: float | None = None
    defect: float | None = None
    error: str | None = None


def method_columns(method: str, errors: list, transmission: np.ndarray,
                   reflection: np.ndarray | None = None, defect=None) -> MethodColumns:
    """MethodColumns of the arrays T (and R and the defect, given together) and the
    per-point errors, where a point without an error gets an InvalidInputError when
    one of its values is not finite."""
    finite = np.isfinite(transmission)
    if reflection is not None:
        finite &= np.isfinite(reflection) & np.isfinite(defect)
    if not finite.all():
        error = InvalidInputError(f"the {method} result is not finite")
        errors = [e if e is not None or ok else error for e, ok in zip(errors, finite.tolist())]
    return MethodColumns(transmission, reflection, defect, errors)


def first_errors(values: list, checks) -> list:
    """Per value, None or the error of the first of ``checks`` (1-d boolean array, error
    class, message with one {!r} field for the value) that flags it."""
    errors = [None] * len(values)
    for mask, error, message in checks:
        for i in mask.nonzero()[0].tolist():
            if errors[i] is None:
                errors[i] = error(message.format(values[i]))
    return errors
