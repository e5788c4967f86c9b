"""Exception hierarchy for the MapRat reproduction.

All library-raised exceptions derive from :class:`MapRatError` so callers can
catch a single base class.  Each subclass marks one failure domain (data,
query, mining, geo, visualization, server) which mirrors the package layout.
"""

from __future__ import annotations


class MapRatError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class DataError(MapRatError):
    """Raised when a dataset is malformed or violates the ⟨I, U, R⟩ model."""


class SchemaError(DataError):
    """Raised when an attribute value does not conform to its schema."""


class DatasetFormatError(DataError):
    """Raised when an on-disk dataset file cannot be parsed."""


class IngestError(DataError):
    """Raised when an ingested rating or reviewer fails validation.

    Covers referential failures (unknown item, unknown reviewer without an
    accompanying reviewer record), scale violations and malformed ingest
    payloads.  The JSON layer maps it to a 400 response.
    """


class DurabilityError(DataError):
    """Base class of the durability subsystem (WAL, snapshots, recovery)."""


class WalCorruptionError(DurabilityError):
    """Raised when a write-ahead log holds a corrupt *non-final* record.

    A torn final record is the expected signature of a crash mid-append and
    is tolerated (the tail is dropped on recovery); a CRC or framing failure
    anywhere before the tail means the log was damaged after it was written
    and recovery refuses to silently truncate committed history.
    """


class SnapshotFormatError(DurabilityError):
    """Raised when a snapshot file cannot be read (bad magic, CRC mismatch,
    truncation, or a format version newer than this build understands)."""


class RecoveryError(DurabilityError):
    """Raised when the on-disk state cannot be reconciled with the base
    dataset (fingerprint mismatch, a gap in the WAL chain, an unreplayable
    record)."""


class GeoError(MapRatError):
    """Raised when a location (zip code, state, city) cannot be resolved."""


class QueryError(MapRatError):
    """Raised when an item query cannot be parsed or evaluated."""


class QuerySyntaxError(QueryError):
    """Raised for malformed query strings (unbalanced quotes, bad operators)."""

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class UnknownAttributeError(QueryError):
    """Raised when a query references an attribute absent from the schema."""


class MiningError(MapRatError):
    """Raised when a mining task cannot be set up or solved."""


class InfeasibleProblemError(MiningError):
    """Raised when no group selection can satisfy the stated constraints."""


class EmptyRatingSetError(MiningError):
    """Raised when the item query matches no rating tuples."""


class ConstraintError(MiningError):
    """Raised when a constraint is configured with invalid parameters."""


class VisualizationError(MapRatError):
    """Raised when an explanation cannot be rendered (e.g. missing geo pair)."""


class ExplorationError(MapRatError):
    """Raised by the interactive-exploration layer (drill-down, timeline)."""


class CacheError(MapRatError):
    """Raised by the result cache / pre-computation layer."""


class PoolError(MapRatError):
    """Raised by the mining worker pool for invalid configuration or use."""


class StaleEpochError(PoolError):
    """Raised when a task targets a store epoch the process pool has retired.

    A request that grabbed its :class:`~repro.server.api.ServingState` just
    before a compaction may submit mining work for the superseded epoch after
    its shared-memory segments have drained and been unlinked.  The façade
    retries such a request once against the current serving state.
    """


class MiningTimeoutError(PoolError):
    """Raised when a mining task exceeds the configured per-request deadline.

    The deadline (``ServerConfig.mining_timeout_s``) bounds how long a
    request blocks on its pool futures; the underlying task is **not**
    cancelled (threads and worker processes run it to completion), the
    gatherer just stops waiting.  The JSON layer maps it to a 503.
    """


class ServerError(MapRatError):
    """Raised by the JSON API layer for invalid requests."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status
