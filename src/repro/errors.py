"""Exception hierarchy shared across the repro package.

Keeping a single, small hierarchy lets callers catch ``ReproError`` to handle
any library failure, or the narrower subclasses for programmatic handling.
"""


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class EncodingError(ReproError):
    """A sequence could not be encoded with the requested codec.

    Typical causes: a non-monotone input handed to a monotone-only codec
    (Elias-Fano family), negative values, or values exceeding the declared
    universe.
    """


class DecodingError(ReproError):
    """A compressed payload is malformed or truncated."""


class IndexBuildError(ReproError):
    """The triple index could not be constructed from the given data."""


class PatternError(ReproError):
    """A triple selection pattern is malformed or unsupported by the index."""


class DictionaryError(ReproError):
    """String-dictionary lookups or construction failed."""


class ParseError(ReproError):
    """Raised for malformed N-Triples or SPARQL input."""


class DatasetError(ReproError):
    """Raised when a synthetic dataset profile or generator is misconfigured."""


class QueryTimeoutError(ReproError):
    """A query exceeded its wall-clock execution budget.

    Raised from the streaming BGP executor when a ``timeout`` was given; the
    serving layer maps it to an HTTP 408 so one slow query cannot occupy a
    worker thread forever.
    """


class UpdateError(ReproError):
    """A dynamic update (insert / delete / compact) could not be applied.

    Typical causes: a malformed triple (wrong arity, negative component),
    an update aimed at a read-only index, or a compaction that would leave
    nothing to index.
    """


class ServiceError(ReproError):
    """The query service received a request it cannot execute.

    Typical causes: a malformed request body, a batch entry that is neither a
    SPARQL string nor a pattern, or a request exceeding server-side limits.
    """


class ClusterError(ReproError):
    """A sharded-cluster operation failed.

    Typical causes: a manifest that does not verify against its signing
    key, a shard count that leaves a shard empty, or a coordinator asked
    to route to a shard the manifest does not describe.
    """


class ShardUnavailableError(ClusterError):
    """A shard could not be reached (after retries) for a required reply.

    The coordinator maps this to HTTP 503 in fail-fast mode; best-effort
    mode swallows it per shard and marks the response ``incomplete``.
    """


class WriterUnavailableError(ReproError):
    """A pool worker could not reach the single writer process.

    Mapped to HTTP 503: queries keep flowing while writes shed, and the
    client retries once the supervisor has respawned the writer.
    """


class NotLeaderError(ClusterError):
    """A write or compaction was sent to a follower replica.

    Followers serve reads only; the coordinator reacts by promoting a
    replica (after the leader is confirmed dead) or redirecting the write
    to the current leader.
    """


class StorageError(ReproError):
    """A persisted index file cannot be written or read back.

    Typical causes: a file that is not a repro container (bad magic), a
    format version this build does not understand, checksum mismatches from
    on-disk corruption, truncated payloads, or an object graph containing a
    type with no registered serializer.
    """
