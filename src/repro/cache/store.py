"""The tiered, content-addressed shared summary store.

:class:`SharedStore` is the sccache/Bazel move for protocol checking:
function summaries (and whole-unit replay records) are already keyed
by stable content fingerprints, so nothing about them is private to
the session that computed them.  This module shares them across
sessions, processes and machines through a stack of tiers::

    L1  CheckSession._summaries / fn_results   (in-process, private)
    L2  MemoryTier    daemon-wide dict — every warm session in one
                      ``vaultc serve`` process cross-warms the others
    L3  CASTier       crash-safe on-disk object store, sharded by key
                      prefix (repro.cache.cas)
    L4  RemoteTier    a check daemon reached over the frame protocol's
                      ``cache_get``/``cache_put`` ops (repro.cache.remote)

Lookups fall through L2→L4 (L1 lives in the session) and **promote**
hits back into every faster tier; writes go straight through every
tier.  Both sides are *batched*: the session collects all its misses
for one check and issues one ``fetch``, so a remote tier costs one
round trip per check, never one per function.

Two object kinds share the store namespace, distinguished by a key
suffix (the key body is always a 64-hex SHA-256, so the CAS shards
stay uniform):

* ``<digest>-s`` — one function's summary entries, keyed by
  :func:`summary_store_key` (the pipeline's function fingerprint
  salted with the diagnostic-relevant session options);
* ``<digest>-u`` — one unit's complete diagnostic stream, keyed by
  :func:`unit_store_key` over the source bytes, filename and options.
  This is what lets a *second cold session on identical code* run at
  warm speed: it replays the pinned byte stream without parsing.

Every blob travels in a checksummed envelope (:func:`encode_blob`):
a magic line, the hex SHA-256 of the body, then the pickled body —
the summary cache's v3 discipline.  :func:`check_blob` verifies the
envelope *without unpickling*, which is what the daemon does with
client uploads; corruption anywhere becomes a discard/quarantine,
never a wrong replay.

Trust model: the store carries pickles, so every tier is in the same
trust domain as the on-disk summary cache — your own disk, your own
per-user daemon socket.  Hostile peers are out of scope exactly as
they are for ``--cache DIR``.
"""

from __future__ import annotations

import pickle
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs import Telemetry
from ..pipeline.fingerprint import cache_checksum

#: bump when the envelope or the pickled record shapes change
#: incompatibly; old blobs then simply miss (their keys embed it too).
STORE_SCHEMA = 1

_MAGIC = b"vaultc-blob1\n"
_HEX_LEN = 64

#: keys are "<64 hex>-<kind>"; anything else is rejected before it can
#: reach a file path (the daemon builds CAS paths from client keys).
KEY_KINDS = ("s", "u")


class StoreError(Exception):
    """A blob failed to decode or a tier failed structurally."""


def valid_key(key: object) -> bool:
    """Whether ``key`` is a well-formed store key (and therefore safe
    to use as a CAS file name)."""
    if not isinstance(key, str) or len(key) != _HEX_LEN + 2:
        return False
    body, sep, kind = key[:_HEX_LEN], key[_HEX_LEN], key[_HEX_LEN + 1:]
    if sep != "-" or kind not in KEY_KINDS:
        return False
    return all(c in "0123456789abcdef" for c in body)


def encode_blob(obj: object) -> bytes:
    """Wrap ``obj`` in the checksummed wire/disk envelope."""
    body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return _MAGIC + cache_checksum(body).encode("ascii") + b"\n" + body


def check_blob(blob: bytes) -> bytes:
    """Verify the envelope and return the body bytes **without
    unpickling** (integrity check safe on untrusted bytes)."""
    if not blob.startswith(_MAGIC):
        raise StoreError("bad blob magic")
    start = len(_MAGIC)
    digest = blob[start:start + _HEX_LEN]
    if blob[start + _HEX_LEN:start + _HEX_LEN + 1] != b"\n":
        raise StoreError("malformed blob envelope")
    body = blob[start + _HEX_LEN + 1:]
    if cache_checksum(body).encode("ascii") != digest:
        raise StoreError("blob checksum mismatch (torn write or bit rot)")
    return body


def decode_blob(blob: bytes) -> object:
    """Verify and unpickle one blob (:class:`StoreError` on anything
    short of a clean round trip)."""
    body = check_blob(blob)
    try:
        return pickle.loads(body)
    except Exception as exc:                         # noqa: BLE001
        raise StoreError(f"blob body failed to unpickle: "
                         f"{type(exc).__name__}: {exc}") from None


# -- keys ---------------------------------------------------------------------

def summary_store_key(fingerprint: str, options_salt: str) -> str:
    """Store key for one function summary.  The pipeline fingerprint
    is content-addressed over the function and its visible
    declarations; the salt adds the session options that change
    diagnostics without changing content (``join_abstraction``,
    ``max_loop_iterations``) plus the schema version."""
    return cache_checksum(
        f"summary\x00{STORE_SCHEMA}\x00{fingerprint}\x00{options_salt}"
        .encode()) + "-s"


def unit_store_key(source: str, filename: str, options_salt: str) -> str:
    """Store key for one unit's complete diagnostic stream."""
    import hashlib
    h = hashlib.sha256()
    h.update(f"unit\x00{STORE_SCHEMA}\x00{filename}\x00{options_salt}\x00"
             .encode("utf-8", "surrogateescape"))
    h.update(source.encode("utf-8", "surrogateescape"))
    return h.hexdigest() + "-u"


def options_salt(stdlib: bool, units: Optional[Sequence[str]],
                 join_abstraction: bool, max_loop_iterations: int) -> str:
    """The diagnostic-relevant session options, rendered stably."""
    units_part = ",".join(units) if units is not None else "<all>"
    return (f"stdlib={stdlib!r};units={units_part};"
            f"join={join_abstraction!r};loops={max_loop_iterations}")


# -- tiers --------------------------------------------------------------------

class Tier:
    """One storage backend.  Tiers move opaque (already enveloped)
    blobs; all decoding, verification and accounting happens in
    :class:`SharedStore`."""

    #: short name used in metrics (``cache.shared.<name>.*``) and docs.
    name = "tier"

    def get_many(self, keys: Sequence[str]) -> Dict[str, bytes]:
        raise NotImplementedError

    def put_many(self, blobs: Dict[str, bytes]) -> None:
        raise NotImplementedError

    def discard(self, key: str) -> None:
        """Drop one (corrupt) object; best-effort."""

    def stats_snapshot(self) -> Dict[str, object]:
        return {}

    def close(self) -> None:
        """Release transport resources (storage itself stays)."""


class MemoryTier(Tier):
    """The daemon-wide shared tier (L2): a bounded LRU blob dict.

    Every :class:`~repro.pipeline.CheckSession` the daemon hosts reads
    and writes this one object, so a summary computed for one editor's
    session replays for the CI session that asks next.  Bounded by
    entry count and total bytes; least-recently-used blobs fall out
    first."""

    name = "memory"

    def __init__(self, max_entries: int = 65536,
                 max_bytes: int = 256 << 20):
        import threading
        from collections import OrderedDict
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.evictions = 0
        self._blobs: "OrderedDict[str, bytes]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._blobs)

    def get_many(self, keys: Sequence[str]) -> Dict[str, bytes]:
        out: Dict[str, bytes] = {}
        with self._lock:
            for key in keys:
                blob = self._blobs.get(key)
                if blob is not None:
                    self._blobs.move_to_end(key)
                    out[key] = blob
        return out

    def put_many(self, blobs: Dict[str, bytes]) -> None:
        with self._lock:
            for key, blob in blobs.items():
                old = self._blobs.pop(key, None)
                if old is not None:
                    self._bytes -= len(old)
                self._blobs[key] = blob
                self._bytes += len(blob)
            while self._blobs and (len(self._blobs) > self.max_entries
                                   or self._bytes > self.max_bytes):
                _key, old = self._blobs.popitem(last=False)
                self._bytes -= len(old)
                self.evictions += 1

    def discard(self, key: str) -> None:
        with self._lock:
            old = self._blobs.pop(key, None)
            if old is not None:
                self._bytes -= len(old)

    def stats_snapshot(self) -> Dict[str, object]:
        return {"entries": len(self._blobs), "bytes": self._bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes, "evictions": self.evictions}


class _TierCounts:
    """Store-side traffic counters for one tier: per store, where the
    ``cache.shared.<tier>.*`` metrics add up every store that shares
    one registry (the daemon's stores all share its memory tier)."""

    __slots__ = ("hits", "misses", "puts", "errors", "corrupt")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.errors = 0
        self.corrupt = 0

    def snapshot(self) -> Dict[str, int]:
        total = self.hits + self.misses
        return {"hits": self.hits, "misses": self.misses,
                "puts": self.puts, "errors": self.errors,
                "corrupt": self.corrupt,
                "hit_rate": (self.hits / total) if total else None}


class SharedStore:
    """The tier orchestrator: batched fall-through reads with
    write-back promotion, write-through puts, and per-tier telemetry.

    Construct with the tier stack fastest-first.  All failure modes
    degrade to a cache miss: a tier that raises is counted
    (``cache.shared.<tier>.errors``), reported once on the event bus
    (``shared_cache_error``), and skipped; a blob that fails its
    checksum is discarded from the tier that served it
    (``shared_cache_corrupt``) and treated as absent.
    """

    def __init__(self, tiers: Sequence[Tier],
                 telemetry: Optional[Telemetry] = None):
        self.tiers: Tuple[Tier, ...] = tuple(tiers)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.counts: Dict[str, _TierCounts] = {
            tier.name: _TierCounts() for tier in self.tiers}
        self._reported_errors: Dict[str, int] = {}
        for tier in self.tiers:
            for leaf in ("hits", "misses", "puts", "evictions",
                         "errors", "corrupt"):
                self.telemetry.metrics.counter(
                    f"cache.shared.{tier.name}.{leaf}")

    # -- raw blob plane (what the daemon's wire ops use) ---------------------

    def get_blobs(self, keys: Iterable[str]) -> Dict[str, bytes]:
        """Checked blobs for every key any tier holds; hits from slow
        tiers are promoted into every faster tier."""
        missing: List[str] = list(dict.fromkeys(keys))
        found: Dict[str, bytes] = {}
        metrics = self.telemetry.metrics
        for idx, tier in enumerate(self.tiers):
            if not missing:
                break
            counts = self.counts[tier.name]
            started = time.perf_counter()
            try:
                got = tier.get_many(missing)
            except Exception as exc:                 # noqa: BLE001
                self._tier_error(tier, "get", exc)
                got = {}
            self._observe_latency(tier, time.perf_counter() - started)
            good: Dict[str, bytes] = {}
            for key, blob in got.items():
                try:
                    check_blob(blob)
                except StoreError as exc:
                    self._corrupt(tier, key, exc)
                    continue
                good[key] = blob
            counts.hits += len(good)
            counts.misses += len(missing) - len(good)
            metrics.counter(f"cache.shared.{tier.name}.hits").inc(len(good))
            metrics.counter(f"cache.shared.{tier.name}.misses").inc(
                len(missing) - len(good))
            if good:
                found.update(good)
                missing = [k for k in missing if k not in good]
                for upper in self.tiers[:idx]:
                    try:
                        upper.put_many(good)
                    except Exception as exc:         # noqa: BLE001
                        self._tier_error(upper, "promote", exc)
        return found

    def put_blobs(self, blobs: Dict[str, bytes]) -> int:
        """Write pre-enveloped blobs through every tier; returns the
        number accepted (invalid envelopes are rejected up front)."""
        accepted: Dict[str, bytes] = {}
        for key, blob in blobs.items():
            if not valid_key(key):
                continue
            try:
                check_blob(blob)
            except StoreError:
                continue
            accepted[key] = blob
        if not accepted:
            return 0
        metrics = self.telemetry.metrics
        for tier in self.tiers:
            started = time.perf_counter()
            try:
                tier.put_many(accepted)
            except Exception as exc:                 # noqa: BLE001
                self._tier_error(tier, "put", exc)
                continue
            self._observe_latency(tier, time.perf_counter() - started)
            self.counts[tier.name].puts += len(accepted)
            metrics.counter(f"cache.shared.{tier.name}.puts").inc(
                len(accepted))
        return len(accepted)

    # -- object plane (what sessions use) ------------------------------------

    def fetch(self, keys: Iterable[str]) -> Dict[str, object]:
        """Decoded objects for every key the store can serve."""
        out: Dict[str, object] = {}
        for key, blob in self.get_blobs(keys).items():
            try:
                out[key] = decode_blob(blob)
            except StoreError as exc:
                # Envelope verified but the body would not unpickle
                # (schema skew): drop it everywhere it may live.
                for tier in self.tiers:
                    self._corrupt(tier, key, exc, quiet=True)
        return out

    def store(self, objects: Dict[str, object]) -> int:
        return self.put_blobs({key: encode_blob(obj)
                               for key, obj in objects.items()})

    # -- maintenance ---------------------------------------------------------

    def gc(self) -> Dict[str, object]:
        """Run every tier's collector (currently only the CAS tier has
        one); returns per-tier reports."""
        out: Dict[str, object] = {}
        for tier in self.tiers:
            collect = getattr(tier, "gc", None)
            if collect is not None:
                out[tier.name] = collect(force=True)
        return out

    def stats_snapshot(self) -> Dict[str, object]:
        """Per-tier traffic and occupancy, fastest tier first (the
        daemon ``stats`` op and ``vaultc cache stats`` surface)."""
        tiers = []
        for tier in self.tiers:
            snap = self.counts[tier.name].snapshot()
            snap["tier"] = tier.name
            snap.update(tier.stats_snapshot())
            tiers.append(snap)
        return {"schema": STORE_SCHEMA, "tiers": tiers}

    def close(self) -> None:
        for tier in self.tiers:
            try:
                tier.close()
            except Exception:                        # noqa: BLE001
                pass

    # -- internals -----------------------------------------------------------

    def _observe_latency(self, tier: Tier, seconds: float) -> None:
        self.telemetry.metrics.histogram(
            f"cache.shared.{tier.name}.latency").observe(seconds)

    def _tier_error(self, tier: Tier, op: str, exc: BaseException) -> None:
        counts = self.counts[tier.name]
        counts.errors += 1
        self.telemetry.metrics.counter(
            f"cache.shared.{tier.name}.errors").inc()
        # Report the first few failures per tier, then go quiet — a
        # dead remote tier must not flood the event log per check.
        reported = self._reported_errors.get(tier.name, 0)
        if reported < 3:
            self._reported_errors[tier.name] = reported + 1
            self.telemetry.events.emit(
                "shared_cache_error",
                f"shared-cache tier '{tier.name}' failed during "
                f"{op}: {exc}",
                tier=tier.name, op=op,
                error=f"{type(exc).__name__}: {exc}")

    def _corrupt(self, tier: Tier, key: str, exc: BaseException,
                 quiet: bool = False) -> None:
        self.counts[tier.name].corrupt += 1
        self.telemetry.metrics.counter(
            f"cache.shared.{tier.name}.corrupt").inc()
        try:
            tier.discard(key)
        except Exception:                            # noqa: BLE001
            pass
        if not quiet:
            self.telemetry.events.emit(
                "shared_cache_corrupt",
                f"shared-cache tier '{tier.name}' served a corrupt "
                f"blob for {key[:16]}…; discarded",
                tier=tier.name, key=key,
                error=f"{type(exc).__name__}: {exc}")
