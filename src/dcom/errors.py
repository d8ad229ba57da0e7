"""Exception types shared across the package."""


class DcomError(Exception):
    """Base class for all package-specific errors."""


class BadMagic(DcomError):
    def __init__(self, offset, found):
        super().__init__(f"bad magic at byte {offset}: found {found!r}")
        self.offset = offset
        self.found = found


class TruncatedPayload(DcomError):
    def __init__(self, offset, expected, actual):
        super().__init__(
            f"truncated payload at byte {offset}: expected {expected} bytes, got {actual}"
        )
        self.offset = offset


class PayloadOverflow(DcomError):
    def __init__(self, offset, n, d):
        super().__init__(f"n*d overflow at byte {offset}: n={n}, d={d}")
        self.offset = offset


class NonFinite(DcomError):
    def __init__(self, where, offset=None):
        super().__init__(f"non-finite value at {where}")
        self.offset = offset


class ZeroVector(DcomError):
    def __init__(self, row):
        super().__init__(f"zero-norm row {row} cannot be normalized")
        self.row = row


class DenseRadiusGraph(DcomError):
    pass


class DimensionMismatch(DcomError):
    pass


class SingleClass(DcomError):
    pass


class UnknownLabel(DcomError):
    pass


class NoDeltaMeetsAlpha(DcomError):
    pass


class EmptyTestSet(DcomError):
    pass


class PoolInvariantError(DcomError):
    pass


class ConfigError(DcomError):
    pass
