"""Exception types shared across the package."""

__all__ = ["CertificateError", "CertificationError", "DomainError", "ConvergenceError",
           "ConvexityError", "ConfigError"]


class CertificateError(Exception):
    """A certificate is structurally unusable for the requested query
    (e.g. an anchor lookup outside the validity range of a finite zero set,
    or linearization bounds inconsistent with the certificate).

    Attributes:
        row: the first failing row of a zero-set lookup (None otherwise).
    """

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class CertificationError(Exception):
    """Certificate estimation failed a proof or the zero check; carries a
    description of what failed."""


class DomainError(Exception):
    """A local-inverse target left the admissible ball B_rm(0).

    Attributes:
        site: lattice site at which the violation occurred (None if scalar).
        norm: norm of the offending target.
        limit: admissible radius r*m.
    """

    def __init__(self, message, site=None, norm=None, limit=None):
        super().__init__(message)
        self.site = site
        self.norm = norm
        self.limit = limit


class ConvergenceError(Exception):
    """An iteration exhausted its budget without meeting its tolerance.

    Attributes:
        trace: per-iteration step distances (may be None for scalar solves).
        row: the failing row of a local-inverse batch (None otherwise).
    """

    def __init__(self, message, trace=None, row=None):
        super().__init__(message)
        self.trace = trace
        self.row = row


class ConvexityError(Exception):
    """A coupling violated its declared convexity bounds."""


class ConfigError(Exception):
    """A run configuration failed strict validation (unknown key, missing
    block, malformed value). Carries the offending key path in the message."""
