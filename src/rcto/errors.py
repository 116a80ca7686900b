"""Exception hierarchy; the CLI maps these onto exit-code categories."""

from __future__ import annotations


class RctoError(Exception):
    """Base class for all library errors."""

    category = "error"


class ConfigError(RctoError):
    """Invalid run configuration; carries every problem found, not just the first."""

    category = "config"

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(self.problems))


class NumericalError(RctoError):
    category = "numerical"


class SingularSystemError(NumericalError):
    """Singular or near-resonant linear system, or a drive at or above the first natural frequency.

    Above it K - omega^2 M is indefinite and minimum dynamic compliance is not defined; the system is
    refused, never solved into silent garbage.
    """


class InfeasibleTargetError(NumericalError):
    """Weight target unreachable by any discrete design."""


class NormalizationError(NumericalError):
    """Sensitivity scales not comparable (vanishing weight derivative)."""


class OutputError(RctoError):
    category = "io"
