"""Fixed log-bucket histograms: latency distributions without dependencies.

Scalar span statistics (total / mean / max) hide the *shape* of a latency
distribution across many calls.  :class:`LogHistogram` records values into
a fixed logarithmic bucket grid — powers of two subdivided into
:data:`~LogHistogram.SUBBUCKETS` linear sub-buckets, the HdrHistogram idea
shrunk to a dict — so p50/p90/p99 estimates stay within ~9% relative error
at any magnitude while an empty histogram costs one dict.

The bucket grid is *fixed* (a value always lands in the same bucket no
matter which histogram recorded it), which makes histograms **mergeable**:
merging is plain bucket-count addition and is exactly equal to having
recorded every value in one histogram.

Values are non-negative integers (the tracer records span durations in
nanoseconds); floats are truncated, negatives clamp to zero.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Optional, Tuple

__all__ = ["LogHistogram"]


class LogHistogram:
    """A mergeable fixed log-bucket histogram of non-negative values.

    Bucket 0 holds exact zeros; bucket ``1 + e * SUBBUCKETS + sub`` holds
    values ``v`` with ``2**e <= v < 2**(e+1)``, linearly subdivided into
    ``SUBBUCKETS`` sub-ranges.  Buckets are stored sparsely (only non-empty
    buckets exist), so a histogram of a tight distribution is a few dict
    entries regardless of magnitude.
    """

    __slots__ = ("buckets", "count")

    #: Linear subdivisions per power-of-two octave.  8 bounds the relative
    #: quantization error of a percentile estimate at 1/16 ≈ 6.25%.
    SUBBUCKETS = 8

    def __init__(self, buckets: Optional[Mapping[int, int]] = None) -> None:
        self.buckets: Dict[int, int] = dict(buckets) if buckets else {}
        self.count = sum(self.buckets.values()) if self.buckets else 0

    # ------------------------------------------------------------------
    @classmethod
    def bucket_index(cls, value: int) -> int:
        """The fixed bucket a value lands in (identical in every process)."""
        v = int(value)
        if v <= 0:
            return 0
        e = v.bit_length() - 1
        sub = ((v - (1 << e)) * cls.SUBBUCKETS) >> e
        return 1 + e * cls.SUBBUCKETS + sub

    @classmethod
    def bucket_bounds(cls, index: int) -> Tuple[float, float]:
        """``[lo, hi)`` value range of a bucket (bucket 0 is exactly zero)."""
        if index <= 0:
            return (0.0, 0.0)
        e, sub = divmod(index - 1, cls.SUBBUCKETS)
        base = float(1 << e)
        step = base / cls.SUBBUCKETS
        return (base + sub * step, base + (sub + 1) * step)

    # ------------------------------------------------------------------
    def add(self, value: int, n: int = 1) -> None:
        """Record *value* *n* times."""
        index = self.bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + n
        self.count += n

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold *other* in by bucket-count addition; returns self.

        Exactness: because the grid is fixed, ``a.merge(b)`` equals a
        histogram that recorded every one of a's and b's values itself.
        """
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.count += other.count
        return self

    # ------------------------------------------------------------------
    def percentile(self, q: float) -> float:
        """Nearest-rank percentile estimate (bucket midpoint), 0.0 if empty."""
        if self.count == 0:
            return 0.0
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q!r} not in [0, 100]")
        rank = max(1, math.ceil(self.count * q / 100.0))
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= rank:
                lo, hi = self.bucket_bounds(index)
                return (lo + hi) / 2.0
        # Unreachable: cumulative == count >= rank by construction.
        lo, hi = self.bucket_bounds(max(self.buckets))  # pragma: no cover
        return (lo + hi) / 2.0  # pragma: no cover

    def percentiles(self, qs: Iterable[float] = (50, 90, 99)) -> Tuple[float, ...]:
        """Several percentiles in one call (default: p50, p90, p99)."""
        return tuple(self.percentile(q) for q in qs)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[int, int]:
        """The sparse bucket counts (restorable with ``LogHistogram(d)``)."""
        return dict(self.buckets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogHistogram):
            return NotImplemented
        return self.buckets == other.buckets

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LogHistogram(n={self.count}, buckets={len(self.buckets)})"
