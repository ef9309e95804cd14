"""Exception types shared across the simulator stack."""


class SimulatorError(Exception):
    """Base class for all simulator-specific failures."""


class GeometryError(SimulatorError):
    """Invalid flash geometry or latency model at construction time."""


class PageStateError(SimulatorError):
    """A flash operation hit a page/block in an illegal state.

    Programming a non-free page, erasing a block with valid data, reading a
    free/invalid page through the mapping: all of these mean the FTL's
    bookkeeping is corrupt, so they are hard errors rather than no-ops.
    """


class CapacityError(SimulatorError):
    """Device has no free page for a host write even after space management."""


class AuditError(SimulatorError):
    """A consistency audit found mapping/page-state disagreement."""


class ConfigError(SimulatorError):
    """A configuration value violates its contract."""


class ParseFailure(SimulatorError):
    """A backend response contained no parsable configuration block."""


class NoValidUpdate(SimulatorError):
    """Every candidate key in a proposed configuration was invalid.

    `corrections` says why each candidate was dropped.
    """

    def __init__(self, message: str, corrections: list[str]):
        super().__init__(message)
        self.corrections = corrections


class BackendUnavailable(SimulatorError):
    """The tuning backend failed after all retries."""
