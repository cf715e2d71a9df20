"""Partitioning: records, hash partitioner and helpers.

A record is a plain ``(key, value)`` tuple; its byte weight lives on the
owning RDD (``bytes_per_record``), which keeps the data plane cheap while
the cost plane stays byte-accurate.

Every bucket is ``_stable_hash(key) % n``.  :class:`HashPartitioner`
computes that faster for the common key types — exact ``int`` keys
inline, exact ``str`` keys through a per-partitioner cache — and the
fast paths are exact: the cache stores only exact-``str`` keys, whose
equality implies identical characters and therefore an identical
polynomial hash, and the inline ``int`` path computes exactly what
``_stable_hash`` computes for ints.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, Iterable, List, Sequence, Tuple

Record = Tuple[Any, Any]

#: Bound on the per-partitioner key-hash cache.  Larger key universes
#: simply stop caching; correctness never depends on a hit.
_HASH_CACHE_LIMIT = 1 << 16

#: Sentinel distinguishing "absent" from legitimate None/falsy values in
#: single-probe dict loops (see ``rdd.py`` aggregators).
_MISSING = object()


class HashPartitioner:
    """Spark's default partitioner: ``hash(key) mod n``.

    Python's ``hash`` of ints/strings is deterministic within a process
    for ints and stable across runs for ints; to be fully reproducible we
    use a simple polynomial string hash instead of the salted built-in.

    String keys have their hash memoised per partitioner (bounded by
    ``_HASH_CACHE_LIMIT``): only exact-type ``str`` keys are cached, so a
    cache hit can never return a hash computed for a different-typed
    equal key (``1.0 == 1`` but ``_stable_hash(1.0) != _stable_hash(1)``
    — floats, bools and tuples therefore always take the uncached path).
    """

    def __init__(self, num_partitions: int) -> None:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = num_partitions
        self._hash_cache: Dict[str, int] = {}

    def partition_of(self, key: Hashable) -> int:
        """Partition index for a key."""
        tk = type(key)
        if tk is int:
            return (key & 0x7FFFFFFF) % self.num_partitions
        if tk is str:
            cache = self._hash_cache
            h = cache.get(key)
            if h is None:
                h = _stable_hash(key)
                if len(cache) < _HASH_CACHE_LIMIT:
                    cache[key] = h
            return h % self.num_partitions
        return _stable_hash(key) % self.num_partitions

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HashPartitioner)
            and other.num_partitions == self.num_partitions
        )

    def __hash__(self) -> int:
        return hash(("HashPartitioner", self.num_partitions))

    def bucket_into(
        self, records: Iterable[Record], buckets: List[List[Record]]
    ) -> List[List[Record]]:
        """Append each record to its partition's bucket, one pass.

        The shuffle map stage's hot loop: locals are bound once and the
        common key types (exact ``int``, cached exact ``str``) bypass the
        ``partition_of`` call entirely.  Bucket assignment is identical
        to ``buckets[self.partition_of(record[0])].append(record)``.
        """
        n = self.num_partitions
        cache = self._hash_cache
        cache_get = cache.get
        for record in records:
            key = record[0]
            tk = type(key)
            if tk is int:
                h = key & 0x7FFFFFFF
            elif tk is str:
                h = cache_get(key)
                if h is None:
                    h = _stable_hash(key)
                    if len(cache) < _HASH_CACHE_LIMIT:
                        cache[key] = h
            elif (
                tk is tuple
                and len(key) == 2
                and type(key[0]) is int
                and type(key[1]) is int
            ):
                # 2-int tuple keys (distinct()'s (record, None) keying
                # of edges, where the columnar plane is off or declined;
                # split_batch hashes its tuple-key columns by the same
                # rule): inline the recursion for exactly that shape.
                h = (
                    (key[0] & 0x7FFFFFFF) * 1_000_003 + (key[1] & 0x7FFFFFFF)
                ) & 0x7FFFFFFF
            else:
                h = _stable_hash(key)
            buckets[h % n].append(record)
        return buckets


def _stable_hash(key: Hashable) -> int:
    """A deterministic, process-independent hash for common key types."""
    if isinstance(key, int):
        return key & 0x7FFFFFFF
    if isinstance(key, str):
        acc = 0
        for ch in key:
            acc = (acc * 31 + ord(ch)) & 0x7FFFFFFF
        return acc
    if isinstance(key, tuple):
        acc = 0
        for item in key:
            acc = (acc * 1_000_003 + _stable_hash(item)) & 0x7FFFFFFF
        return acc
    if isinstance(key, float):
        # Non-finite keys first: int(inf * 1e6) raises OverflowError and
        # int(nan * 1e6) raises ValueError.  Hash them to their IEEE-754
        # single-precision bit patterns (masked to 31 bits) — arbitrary
        # but deterministic, and distinct for nan / +inf / -inf.
        if key != key:  # nan (the only float unequal to itself)
            return 0x7FC00000
        if key == math.inf:
            return 0x7F800000
        if key == -math.inf:
            return 0x7F800001
        scaled = key * 1e6
        if math.isinf(scaled):
            # Finite but beyond float range once scaled: fall back to
            # the unscaled integer part (still deterministic; the 1e6
            # scaling only exists to separate nearby small floats).
            return _stable_hash(int(key))
        return _stable_hash(int(scaled))
    if isinstance(key, (bytes, bytearray)):
        acc = 0
        for b in key:
            acc = (acc * 31 + b) & 0x7FFFFFFF
        return acc
    if key is None:
        return 0
    return hash(key) & 0x7FFFFFFF


def split_evenly(records: Sequence[Record], num_partitions: int) -> List[List[Record]]:
    """Round-robin split for un-keyed sources."""
    buckets: List[List[Record]] = [[] for _ in range(num_partitions)]
    for idx, record in enumerate(records):
        buckets[idx % num_partitions].append(record)
    return buckets
