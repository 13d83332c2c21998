"""Exception hierarchy.

Two top-level families, matching the two CLI exit codes:

* ValidationError (exit 1): the caller asked for something the model cannot
  honor as stated (bad config keys, out-of-window wavelengths, evaluation
  inside a resonance exclusion zone, over-clipped grids).
* NumericalError (exit 2): the inputs were legal but a numerical procedure
  failed (root bracketing, fixed-point iteration, derivative stencils, a
  JSA grid that came out non-finite or zero).

A subclass exists only where some caller tells it apart: RangeError for
the gap rule, DivergenceZoneError for the resonance it carries, and
GridAxisError for the input it names.  A scan point (a density-map pump,
a sweep point) whose physics raises one of ``GAP_ERRORS`` is a gap; any
other error fails the whole run.

Every scalar numeric argument of the library passes ``check_number``, the
one input boundary, and every (first, second) pair ``check_pair``; only
the config layer and the gas table turn numeric strings into numbers.  A
message that echoes a caller's value shows it through ``shown``.
"""

from __future__ import annotations

import math
import numbers
import reprlib


class HcfwmError(Exception):
    """Base class for all package errors."""


class ValidationError(HcfwmError, ValueError):
    """Invalid input, configuration, or precondition."""


class RangeError(ValidationError):
    """Wavelength or frequency outside a stated validity window."""


class DivergenceZoneError(RangeError):
    """Evaluation requested inside a resonance exclusion zone.

    Carries the offending resonance wavelength so callers can report or
    step around it.
    """

    def __init__(self, message: str, lambda_j_nm: float):
        super().__init__(message)
        self.lambda_j_nm = lambda_j_nm


class GridAxisError(RangeError):
    """A JSA grid that cannot be laid out: axes that float64 cannot hold,
    or a grid that band-edge clipping leaves too little of.

    Carries the name of the input at fault, "L_m" or "kappa_span", so a
    caller can name it in its own terms.
    """

    def __init__(self, message: str, param: str):
        super().__init__(message)
        self.param = param


class NumericalError(HcfwmError):
    """A numerical procedure failed to converge or produced no usable result."""


GAP_ERRORS = (RangeError, NumericalError)


class _Brief(reprlib.Repr):
    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:  # past sys.get_int_max_str_digits: no decimal repr
            return "-" * (x < 0) + f"<{x.bit_length()}-bit int...>"


_BRIEF = _Brief()
_BRIEF.maxlevel, _BRIEF.maxstring, _BRIEF.maxother = 3, 80, 80


def shown(value) -> str:
    """``repr(value)`` for an error message: exact within _BRIEF's limits
    (3 levels, 6 items a container, 80 characters a string, 40 an int),
    and never over 200 characters, however deep or large."""
    text = _BRIEF.repr(value)
    if "..." not in text:  # nothing was cut; repr keeps a mapping's order
        text = repr(value)
    return text if len(text) <= 200 else text[:197] + "..."


def check_number(
    name: str,
    value,
    *,
    lo=None,
    lo_open: bool = False,
    hi=None,
    hi_open: bool = False,
    integer: bool = False,
):
    """``value`` if it is a finite real number inside the bounds (an open
    end excludes the bound itself), as an int when ``integer``; otherwise a
    ValidationError that names ``name``.

    Booleans, strings and other non-numbers are refused as not being "a
    number" (or "an integer"), and so are NaN, +-inf and, with
    ``integer``, a value with a fractional part.  An int beyond the float
    range is refused as not finite.
    """
    # floats (numpy's too) skip the slower numbers.Real test
    if not isinstance(value, float) and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        kind = "an integer" if integer else "a number"
        raise ValidationError(f"{name} must be {kind}, got {shown(value)}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int that no float holds
        raise ValidationError(f"{name} must be finite, got {shown(value)}") from None
    if integer and not (finite and value == int(value)):
        raise ValidationError(f"{name} must be an integer, got {value}")
    low = lo is None or (value > lo if lo_open else value >= lo)
    high = hi is None or (value < hi if hi_open else value <= hi)
    if finite and low and high:
        return int(value) if integer else value
    above = f"{'>' if lo_open else '>='} {lo}"
    below = f"{'<' if hi_open else '<='} {hi}"
    if integer:
        need = above if not low else below
    elif lo is not None and hi is not None:
        need = f"in {'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}"
    else:
        need = "finite"
        if lo is not None:
            need += f" and {above}"
        if hi is not None:
            need += f" and {below}"
    raise ValidationError(f"{name} must be {need}, got {value}")


def check_pair(name: str, value, ends=("min", "max"), **bounds) -> tuple:
    """The two entries of ``value``, each through ``check_number`` as
    ``"<name> <end>"``; a ValidationError that names ``name`` if ``value``
    is not a pair."""
    if isinstance(value, str) or not hasattr(value, "__len__") or len(value) != 2:
        raise ValidationError(f"{name} must be a pair of numbers, got {shown(value)}")
    return tuple(
        check_number(f"{name} {end}", v, **bounds) for end, v in zip(ends, value)
    )
