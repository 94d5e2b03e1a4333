"""Exception hierarchy shared by every module.

Each error class carries a stable machine-readable ``code`` and the exit
status the command line maps it to (2 for validation problems, 3 for
numerical failures), so scripted callers can dispatch on failures without
parsing prose.
"""

from __future__ import annotations


class FormationForgeError(Exception):
    """Base class for all errors raised by this package."""

    code = "internal"
    exit_status = 3


class DimensionError(FormationForgeError):
    """A matrix or vector has the wrong shape or size."""

    code = "dimension"
    exit_status = 2


class ConfigurationError(FormationForgeError):
    """Inconsistent or invalid configuration (graph, law, scenario)."""

    code = "configuration"
    exit_status = 2


class UnknownLawError(ConfigurationError):
    """A control-law name does not match any built-in law."""

    code = "unknown-law"


class ScenarioError(ConfigurationError):
    """A scenario file failed to parse or validate.

    ``position`` holds a human-readable location (line/column or key path)
    when one is available.
    """

    code = "scenario"

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{position}: {message}")
        self.position = position


class InfeasibleLengthsError(FormationForgeError):
    """Target edge lengths admit no planar realization."""

    code = "infeasible-lengths"
    exit_status = 2


class InconsistentStateError(FormationForgeError):
    """An edge-vector state violates the graph's cycle constraints."""

    code = "inconsistent-state"
    exit_status = 2


class FormulaDomainError(FormationForgeError):
    """An analytic formula was evaluated outside its domain of validity.

    Raised, for example, when the closed-form Jacobian factorizations are
    requested away from a design equilibrium, where the derivation's
    dropped terms do not vanish.
    """

    code = "formula-domain"
    exit_status = 2


class ConvergenceError(FormationForgeError):
    """An iterative solver failed to converge.

    Carries the last iterate and the iteration count so callers can
    inspect or restart.
    """

    code = "no-convergence"
    exit_status = 3

    def __init__(self, message, last_iterate, iterations):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.iterations = iterations


class BlowUpError(FormationForgeError):
    """A trajectory left the finite range during integration."""

    code = "blow-up"
    exit_status = 3

    def __init__(self, message, time):
        super().__init__(message)
        self.time = time
