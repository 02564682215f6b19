"""Shared exception types, and the canonical JSON every report is written in.

The CLI maps the exceptions onto its exit-code contract: configuration
problems exit with 2, tolerance breaches with 1, and exhausted numerical
budgets with 3.  canonical_json lives here, beside them, because every verb
loads this module: writing a report loads nothing else.
"""

import json


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


class StokesbcError(Exception):
    """Base class for all library errors."""


class ModeIndexedError(StokesbcError):
    """An error about one mode of a ModeBatch.

    An error made by at_mode also says what failed (reason) and at which
    position of its ModeBatch (index), so that a caller which labels the
    modes can name the offending one in its own terms."""

    reason: str | None = None
    index: int | None = None

    @classmethod
    def at_mode(cls, reason: str, index: int) -> "ModeIndexedError":
        exc = cls(f"{reason} at mode {index}")
        exc.reason, exc.index = reason, index
        return exc


class InvalidModeError(ModeIndexedError):
    """Mode parameters outside the admissible set (Re lambda < 0, nonpositive
    constants, non-finite entries, ...)."""


class ZeroModeError(StokesbcError):
    """An operation that requires a nonzero tangential frequency received
    xi = 0 (the mean mode needs its own 1-d treatment)."""


class SingularModeError(ModeIndexedError):
    """A closed-form inverse or solve was requested at a parameter point where
    the displayed formula is singular (e.g. xi = 0 for the no-slip symbol)."""


class UnsupportedCaseError(StokesbcError):
    """The requested (alpha, beta) case is outside the operator's domain
    (e.g. a boundary symbol for beta = -1, which needs no symbol solve)."""


class ProfileError(StokesbcError):
    """Invalid exponential-sum profile (non-decaying rate for xi != 0,
    mismatched mode data, ...)."""


class QuadratureBudgetError(StokesbcError):
    """Adaptive quadrature exceeded its subdivision budget before reaching
    the requested tolerance."""


class ConfigError(StokesbcError):
    """Malformed run configuration (unknown keys, wrong types, nonpositive
    tolerances)."""


class AuditError(StokesbcError):
    """An audit refused to run because its preconditions failed (e.g. the
    field does not decay at the truncation boundary)."""
