"""Vectorised multi-key join kernels (N:M, semi, anti, left outer).

These kernels are *logical* workhorses shared by every join strategy the
planner picks (hash, merge, sandwich): the strategies differ in cost and
memory accounting, not in results.  All kernels preserve the probe
(left) side's row order in their output, so sort-order properties survive
probe-side joins.

Every equi-join probe goes through one direct-addressed path
(:func:`probe`): the build side's keys index a per-key count/start table
of ``span = max - min + 1`` slots, and each probe row reads its match
range with two gathers.  Keys are first mapped to a *dense* integer
domain — integer keys whose span is at most :data:`DENSE_SPAN_FACTOR` ×
the rows on both sides are used as they are, everything else (strings,
floats, sparse integers) is factorised into codes over the union domain.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "DENSE_SPAN_FACTOR",
    "encode_join_keys",
    "factorize",
    "inner_join_pairs",
    "left_join_pairs",
    "lookup_unique",
    "pack_keys",
    "probe",
    "semi_join_mask",
]

#: An integer key domain is direct-addressed when its span is at most
#: this many slots per input row; the per-key tables then stay within a
#: small multiple of the inputs' own size.  Wider domains are factorised.
DENSE_SPAN_FACTOR = 4

_INT64_MAX = int(np.iinfo(np.int64).max)


def _as_int64(values: np.ndarray) -> Optional[np.ndarray]:
    """``values`` as int64 when that is exact (integer kinds whose values
    all fit), else None."""
    if values.dtype.kind == "i":
        return values.astype(np.int64, copy=False)
    if values.dtype.kind == "u":
        if values.dtype.itemsize < 8 or not len(values) or int(values.max()) <= _INT64_MAX:
            return values.astype(np.int64)
    return None


def factorize(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """Rank of each value among the distinct values (``np.unique``'s
    inverse) and the number of distinct values.

    Integers whose span passes the dense-domain rule are ranked by a
    presence table (``bincount > 0`` then ``cumsum``) instead of a sort.
    """
    ints = _as_int64(values)
    if ints is not None and len(ints):
        lo = int(ints.min())
        span = int(ints.max()) - lo + 1
        if span <= DENSE_SPAN_FACTOR * len(ints):
            offset = ints - lo
            rank = np.cumsum(np.bincount(offset) > 0) - 1
            return rank[offset], int(rank[-1]) + 1
    uniques, inverse = np.unique(values, return_inverse=True)
    return inverse.astype(np.int64), len(uniques)


def pack_keys(columns: Sequence[np.ndarray]) -> Tuple[np.ndarray, int]:
    """One int64 code per row of a multi-column key, and the size of the
    code space: per-column ranks packed in mixed radix, so codes follow
    the key tuples' sort order.  Before the running product of
    cardinalities would pass int64 the partial codes are re-ranked, so
    unequal tuples can never collide."""
    codes = np.zeros(len(columns[0]), dtype=np.int64)
    radix = 1  # python int: the product cannot wrap
    for column in columns:
        ranks, card = factorize(column)
        if radix * card > _INT64_MAX:
            codes, radix = factorize(codes)
        codes = codes * card + ranks
        radix *= card
    return codes, radix


def _dense_keys(left: np.ndarray, right: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """int64 keys for both sides, equal exactly where the inputs are,
    whose (non-empty) build side's span passes the dense-domain rule."""
    lints, rints = _as_int64(left), _as_int64(right)
    if lints is not None and rints is not None:
        span = int(rints.max()) - int(rints.min()) + 1
        if span <= DENSE_SPAN_FACTOR * (len(lints) + len(rints)):
            return lints, rints
    codes, _ = factorize(np.concatenate([left, right]))
    return codes[: len(left)], codes[len(left):]


def probe(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Direct-addressed equi-join probe.

    Returns ``(order, start, count)``: the right rows matching left row
    ``i`` are ``order[start[i] : start[i] + count[i]]``, in ascending
    row order.  ``count`` is 0 for a left row without a match.
    """
    if not len(right_keys):
        zeros = np.zeros(len(left_keys), dtype=np.int64)
        return np.zeros(0, dtype=np.int64), zeros, zeros
    left, right = _dense_keys(left_keys, right_keys)
    lo, hi = int(right.min()), int(right.max())
    build = right - lo
    key_count = np.bincount(build)
    key_start = np.cumsum(key_count) - key_count
    if key_count.max() <= 1:
        # unique build side (the PK side of a PK-FK join): one scatter
        # places every row at its key's slot
        order = np.empty(len(right), dtype=np.int64)
        order[key_start[build]] = np.arange(len(right), dtype=np.int64)
    else:
        order = np.argsort(build, kind="stable")
    # clip before subtracting: out-of-range probes (even at the int64
    # extremes) land on a valid slot and are zeroed below, never wrap
    slot = np.clip(left, lo, hi) - lo
    inside = (left >= lo) & (left <= hi)
    count = np.where(inside, key_count[slot], 0)
    start = key_start[slot]
    return order, start, count


def _expand(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Positions ``start[i] .. start[i] + count[i] - 1`` for every row,
    concatenated row by row."""
    total = int(count.sum())
    ends = np.cumsum(count)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - count, count)
    return np.repeat(start, count) + within


def inner_join_pairs(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Matching (left_idx, right_idx) pairs, left-major order."""
    order, start, count = probe(left_keys, right_keys)
    left_idx = np.repeat(np.arange(len(count), dtype=np.int64), count)
    return left_idx, order[_expand(start, count)]


def left_join_pairs(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Left-outer pairs: every left row appears; unmatched rows carry
    right index -1."""
    order, start, count = probe(left_keys, right_keys)
    out_count = np.maximum(count, 1)
    left_idx = np.repeat(np.arange(len(count), dtype=np.int64), out_count)
    right_idx = np.full(len(left_idx), -1, dtype=np.int64)
    matched = np.repeat(count > 0, out_count)
    right_idx[matched] = order[_expand(start, count)]
    return left_idx, right_idx


def lookup_unique(probe_keys: np.ndarray, build_keys: np.ndarray) -> np.ndarray:
    """Build-side row holding each probe key, or -1 when none does.  With
    duplicate build keys the lowest such row is returned."""
    order, start, count = probe(probe_keys, build_keys)
    if not len(order):
        return np.full(len(count), -1, dtype=np.int64)
    return np.where(count > 0, order[start], -1)


def encode_join_keys(
    left_cols: Sequence[np.ndarray], right_cols: Sequence[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Single int64 key per row for multi-column equi-joins: equal key
    tuples, and only those, share a code."""
    if len(left_cols) != len(right_cols) or not left_cols:
        raise ValueError("need equally many (>=1) key columns on both sides")
    if len(left_cols) == 1:
        left, right = left_cols[0], right_cols[0]
        if left.dtype.kind in "iu" and right.dtype.kind in "iu":
            return left.astype(np.int64), right.astype(np.int64)
    codes, _ = pack_keys([np.concatenate([l, r]) for l, r in zip(left_cols, right_cols)])
    n = len(left_cols[0])
    return codes[:n], codes[n:]


def semi_join_mask(left_keys: np.ndarray, right_keys: np.ndarray) -> np.ndarray:
    """Boolean mask over left rows with at least one match (semi join);
    invert for anti join."""
    return np.isin(left_keys, right_keys)
