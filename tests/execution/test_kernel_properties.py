"""Property-based tests for the shared logical kernels.

The join and aggregation kernels are the single code path every
strategy funnels through — a bug here corrupts *all* schemes equally
and would be invisible to the cross-scheme differential oracle.  These
tests check them against direct python/numpy references over seeded
random inputs: duplicate keys, empty sides, skewed domains, and all-NULL
validity masks.  Join and grouping inputs are drawn from both key-domain
regimes the kernels distinguish — dense integer spans that are
direct-addressed, and sparse, extreme, unsigned or string keys that are
factorised first — and from either side of the dense/sparse threshold.
"""

import numpy as np
import pytest

from repro.core.count_table import CountTable
from repro.execution.aggregate import (
    AggSpec,
    apply_aggregate,
    distinct_per_partition,
    group_rows,
)
from repro.execution import join_utils
from repro.execution.join_utils import (
    DENSE_SPAN_FACTOR,
    encode_join_keys,
    inner_join_pairs,
    left_join_pairs,
    lookup_unique,
    semi_join_mask,
)
from repro.storage.database import lookup_rows

SEEDS = range(10)


def _random_keys(rng, max_len=40, domain=8):
    n = int(rng.randint(0, max_len))
    return rng.randint(-domain, domain, n).astype(np.int64)


# ------------------------------------------------------------------- joins
@pytest.mark.parametrize("seed", SEEDS)
def test_inner_join_pairs_matches_naive(seed):
    rng = np.random.RandomState(seed)
    left, right = _random_keys(rng), _random_keys(rng)
    lidx, ridx = inner_join_pairs(left, right)
    got = sorted(zip(lidx.tolist(), ridx.tolist()))
    expected = sorted(
        (i, j)
        for i, lv in enumerate(left.tolist())
        for j, rv in enumerate(right.tolist())
        if lv == rv
    )
    assert got == expected
    # output is left-major: probe-side order survives
    assert lidx.tolist() == sorted(lidx.tolist())


@pytest.mark.parametrize("seed", SEEDS)
def test_left_join_pairs_matches_naive(seed):
    rng = np.random.RandomState(seed)
    left, right = _random_keys(rng), _random_keys(rng)
    lidx, ridx = left_join_pairs(left, right)
    # every left row appears; unmatched exactly once with right == -1
    by_left = {}
    for i, j in zip(lidx.tolist(), ridx.tolist()):
        by_left.setdefault(i, []).append(j)
    for i, lv in enumerate(left.tolist()):
        matches = [j for j, rv in enumerate(right.tolist()) if rv == lv]
        assert sorted(by_left[i]) == (sorted(matches) if matches else [-1])
    assert set(by_left) == set(range(len(left)))


@pytest.mark.parametrize("seed", SEEDS)
def test_semi_join_mask_matches_set(seed):
    rng = np.random.RandomState(seed)
    left, right = _random_keys(rng), _random_keys(rng)
    mask = semi_join_mask(left, right)
    members = set(right.tolist())
    assert mask.tolist() == [v in members for v in left.tolist()]


@pytest.mark.parametrize("seed", SEEDS)
def test_encode_join_keys_preserves_tuple_equality(seed):
    rng = np.random.RandomState(seed)
    n, m = int(rng.randint(1, 30)), int(rng.randint(1, 30))
    strings = np.array(["aa", "ab", "b", "ca"])
    left_cols = [rng.randint(0, 4, n), strings[rng.randint(0, 4, n)]]
    right_cols = [rng.randint(0, 4, m), strings[rng.randint(0, 4, m)]]
    lcodes, rcodes = encode_join_keys(left_cols, right_cols)
    left_tuples = list(zip(left_cols[0].tolist(), left_cols[1].tolist()))
    right_tuples = list(zip(right_cols[0].tolist(), right_cols[1].tolist()))
    for i, lt in enumerate(left_tuples):
        for j, rt in enumerate(right_tuples):
            assert (lcodes[i] == rcodes[j]) == (lt == rt)


def test_join_kernels_empty_sides():
    empty = np.zeros(0, dtype=np.int64)
    keys = np.array([1, 2, 2], dtype=np.int64)
    for left, right in ((empty, keys), (keys, empty), (empty, empty)):
        lidx, ridx = inner_join_pairs(left, right)
        assert len(lidx) == len(ridx) == 0
        # an empty side can never produce a match
        assert not semi_join_mask(left, right).any()
    lidx, ridx = left_join_pairs(keys, empty)
    assert lidx.tolist() == [0, 1, 2] and ridx.tolist() == [-1, -1, -1]


# ------------------------------------------------- key-domain regimes
INT64 = np.iinfo(np.int64)


def _sizes(rng, max_len=40):
    return int(rng.randint(0, max_len)), int(rng.randint(0, max_len))


def _from_pool(rng, pool, n, m):
    return pool[rng.randint(0, len(pool), n)], pool[rng.randint(0, len(pool), m)]


def _dense(rng):
    n, m = _sizes(rng)
    return rng.randint(-8, 8, n).astype(np.int64), rng.randint(-8, 8, m).astype(np.int64)


def _sparse(rng):
    # span far beyond the row count: factorised before the probe
    pool = rng.randint(-(2**40), 2**40, 6).astype(np.int64)
    return _from_pool(rng, pool, *_sizes(rng))


def _extremes(rng):
    pool = np.array(
        [INT64.min, INT64.min + 1, -1, 0, 1, INT64.max - 1, INT64.max], dtype=np.int64
    )
    return _from_pool(rng, pool, *_sizes(rng))


def _dense_probe_of_extremes(rng):
    # a dense build probed with int64 extremes: out-of-range probes must
    # miss without wrapping when shifted by the build's minimum
    n, m = _sizes(rng)
    right = rng.randint(-5, 5, m).astype(np.int64)
    pool = np.array([INT64.min, INT64.max, -6, -5, 0, 4, 5], dtype=np.int64)
    return pool[rng.randint(0, len(pool), n)], right


def _unique_build(rng):
    n, m = _sizes(rng)
    offset = int(rng.randint(-1000, 1000))
    right = (rng.permutation(2 * m + 1)[:m] + offset).astype(np.int64)
    left = rng.randint(offset - 3, offset + 2 * m + 4, n).astype(np.int64)
    return left, right


def _mixed_widths(rng):
    n, m = _sizes(rng)
    return rng.randint(-8, 8, n).astype(np.int32), rng.randint(-8, 8, m).astype(np.int64)


def _unsigned(rng):
    n, m = _sizes(rng)
    return rng.randint(0, 8, n).astype(np.uint32), rng.randint(0, 8, m).astype(np.uint64)


def _huge_unsigned(rng):
    top = np.iinfo(np.uint64).max
    pool = np.array([top, top - 1, top - 7, 2**63, 5], dtype=np.uint64)
    return _from_pool(rng, pool, *_sizes(rng))


def _strings(rng):
    pool = np.array(["", "a", "ab", "b", "ba", "zz"])
    return _from_pool(rng, pool, *_sizes(rng))


def _all_miss(rng):
    n, m = _sizes(rng)
    return rng.randint(100, 108, n).astype(np.int64), rng.randint(0, 8, m).astype(np.int64)


def _threshold(rng, extra):
    # build span exactly at the dense limit (extra=0) or one past it
    n, m = int(rng.randint(2, 20)), int(rng.randint(2, 20))
    limit = DENSE_SPAN_FACTOR * (n + m)
    right = rng.randint(0, limit + extra, m).astype(np.int64)
    right[:2] = (0, limit - 1 + extra)
    left = right[rng.randint(0, m, n)]
    left[rng.random_sample(n) < 0.3] = limit + 5
    return left, right


REGIMES = {
    "dense": _dense,
    "sparse": _sparse,
    "extremes": _extremes,
    "dense_probe_of_extremes": _dense_probe_of_extremes,
    "unique_build": _unique_build,
    "mixed_widths": _mixed_widths,
    "unsigned": _unsigned,
    "huge_unsigned": _huge_unsigned,
    "strings": _strings,
    "all_miss": _all_miss,
    "at_threshold": lambda rng: _threshold(rng, 0),
    "past_threshold": lambda rng: _threshold(rng, 1),
}


def _reference_matches(left, right):
    """For each left row, the ascending right rows with an equal key."""
    rows_of = {}
    for j, value in enumerate(right.tolist()):
        rows_of.setdefault(value, []).append(j)
    return [rows_of.get(value, []) for value in left.tolist()]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_join_kernels_match_reference_in_every_regime(regime, seed):
    left, right = REGIMES[regime](np.random.RandomState(seed))
    matches = _reference_matches(left, right)

    lidx, ridx = inner_join_pairs(left, right)
    expected = [(i, j) for i, js in enumerate(matches) for j in js]
    assert list(zip(lidx.tolist(), ridx.tolist())) == expected  # exact order

    lidx, ridx = left_join_pairs(left, right)
    expected = [(i, j) for i, js in enumerate(matches) for j in (js or [-1])]
    assert list(zip(lidx.tolist(), ridx.tolist())) == expected

    assert semi_join_mask(left, right).tolist() == [bool(js) for js in matches]
    assert lookup_unique(left, right).tolist() == [js[0] if js else -1 for js in matches]


def test_dense_threshold_selects_the_regime():
    rng = np.random.RandomState(0)
    left, right = _threshold(rng, 0)
    _, dense_right = join_utils._dense_keys(left, right)
    assert dense_right.tolist() == right.tolist()  # direct-addressed as is
    left, right = _threshold(rng, 1)
    _, coded_right = join_utils._dense_keys(left, right)
    assert coded_right.max() < len(left) + len(right)  # factorised first


# ------------------------------------------------ key-packing overflow
# Per-column ranks packed in mixed radix 65537 (65537 distinct values per
# column) need 65537**4 > 2**64 codes.  Wrapped in int64 the tuples below
# collide: 65533*M**3 + 6*M**2 - 4*M + 1 is a multiple of 2**64.
_RADIX = 65537
_TUPLE_A = (65533, 6, 0, 1)
_TUPLE_B = (0, 0, 4, 0)


def _colliding_columns(distinct, extra_tuples):
    base = np.arange(distinct, dtype=np.int64)
    return [
        np.concatenate([base, np.array([t[c] for t in extra_tuples], dtype=np.int64)])
        for c in range(4)
    ]


def test_collision_tuples_really_wrap():
    delta = sum((a - b) * _RADIX**p for a, b, p in zip(_TUPLE_A, _TUPLE_B, (3, 2, 1, 0)))
    assert delta != 0 and delta % 2**64 == 0


def test_encode_join_keys_past_int64_matches_tuple_reference():
    left = _colliding_columns(_RADIX, [_TUPLE_A])
    right = _colliding_columns(_RADIX, [_TUPLE_B])
    lcodes, rcodes = encode_join_keys(left, right)
    lidx, ridx = inner_join_pairs(lcodes, rcodes)
    rows_of = {t: j for j, t in enumerate(zip(*[c.tolist() for c in right]))}
    expected = [
        (i, rows_of[t]) for i, t in enumerate(zip(*[c.tolist() for c in left])) if t in rows_of
    ]
    assert list(zip(lidx.tolist(), ridx.tolist())) == expected


def test_group_rows_past_int64_matches_tuple_reference():
    columns = _colliding_columns(_RADIX, [_TUPLE_A, _TUPLE_B])
    group_index, first_rows, num_groups = group_rows(columns)
    tuples = list(zip(*[c.tolist() for c in columns]))
    rank = {t: g for g, t in enumerate(sorted(set(tuples)))}
    assert num_groups == len(rank)
    assert group_index.tolist() == [rank[t] for t in tuples]
    assert first_rows.tolist() == sorted(range(len(tuples)), key=lambda i: tuples[i])


def test_lookup_rows_past_int64_matches_tuple_reference():
    # 65536 distinct values per column: the radix a (len(domain) + 1)
    # packing would use is 65537 again
    keys = _colliding_columns(_RADIX - 1, [_TUPLE_B])
    probes = _colliding_columns(0, [_TUPLE_A, _TUPLE_B, (7, 7, 7, 7)])
    assert lookup_rows(keys, probes).tolist() == [-1, _RADIX - 1, 7]


# -------------------------------------------------------------- lookups
@pytest.mark.parametrize("seed", SEEDS)
def test_lookup_rows_matches_dict_reference(seed):
    rng = np.random.RandomState(seed)
    strings = np.array(["x", "y", "zz"])
    n_keys = int(rng.randint(0, 40))
    # unique (sparse int, string, dense int) key tuples
    space = [(a, s, c) for a in (-(2**40), 0, 3, 2**40) for s in strings for c in range(4)]
    picked = rng.permutation(len(space))[:n_keys]
    key_tuples = [space[i] for i in picked]
    probe_tuples = [space[i] for i in rng.randint(0, len(space), int(rng.randint(0, 40)))]
    probe_tuples.append((1, "w", 9))  # never a key

    def columns(tuples):
        return [
            np.array([t[0] for t in tuples], dtype=np.int64),
            np.array([t[1] for t in tuples], dtype=strings.dtype),
            np.array([t[2] for t in tuples], dtype=np.int32),
        ]

    row_of = {t: i for i, t in enumerate(key_tuples)}
    got = lookup_rows(columns(key_tuples), columns(probe_tuples))
    assert got.tolist() == [row_of.get(t, -1) for t in probe_tuples]
    single = lookup_rows(columns(key_tuples)[:1], columns(probe_tuples)[:1])
    first_of = {}
    for i, t in enumerate(key_tuples):
        first_of.setdefault(t[0], i)
    assert single.tolist() == [first_of.get(t[0], -1) for t in probe_tuples]


def test_lookup_rows_rejects_column_count_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        lookup_rows([np.arange(3), np.arange(3)], [np.arange(3)])


def test_lookup_rows_against_empty_keys():
    assert lookup_rows([np.zeros(0, np.int64)], [np.array([1, 2])]).tolist() == [-1, -1]


# -------------------------------------------------------------- aggregates
def _reference_groups(columns):
    groups = {}
    for i, key in enumerate(zip(*[c.tolist() for c in columns])):
        groups.setdefault(key, []).append(i)
    return groups


@pytest.mark.parametrize("seed", SEEDS)
def test_group_rows_matches_dict_grouping(seed):
    rng = np.random.RandomState(seed)
    n = int(rng.randint(1, 50))
    columns = [rng.randint(0, 5, n), rng.randint(0, 3, n)]
    group_index, first_rows, num_groups = group_rows(columns)
    reference = _reference_groups(columns)
    assert num_groups == len(reference)
    # same tuple <-> same group id, and representatives belong to their group
    by_group = {}
    tuples = list(zip(*[c.tolist() for c in columns]))
    for i, g in enumerate(group_index.tolist()):
        by_group.setdefault(g, set()).add(tuples[i])
    assert all(len(values) == 1 for values in by_group.values())
    for g, first in enumerate(first_rows.tolist()):
        assert group_index[first] == g


def _choice(values, dtype=None):
    pool = np.array(values, dtype=dtype)
    return lambda rng, n: pool[rng.randint(0, len(pool), n)]


GROUP_COLUMNS = {
    "dense": lambda rng, n: rng.randint(-3, 5, n).astype(np.int64),
    "sparse": _choice([-(2**50), 7, 2**50], np.int64),
    "extremes": _choice([INT64.min, -1, INT64.max], np.int64),
    "int8": lambda rng, n: rng.randint(-128, 128, n).astype(np.int8),
    "huge_unsigned": _choice([2**64 - 1, 2**63, 3], np.uint64),
    "strings": _choice(["", "b", "ab"]),
    "floats": _choice([0.5, -1.0, 2.25]),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("regimes", [(r,) for r in sorted(GROUP_COLUMNS)] + [
    ("dense", "strings"), ("sparse", "dense"), ("int8", "huge_unsigned", "floats"),
])
def test_group_rows_numbers_groups_in_key_order(regimes, seed):
    rng = np.random.RandomState(seed)
    n = int(rng.randint(0, 300))
    columns = [GROUP_COLUMNS[r](rng, n) for r in regimes]
    group_index, first_rows, num_groups = group_rows(columns)
    tuples = list(zip(*[c.tolist() for c in columns]))
    rank = {t: g for g, t in enumerate(sorted(set(tuples)))}
    assert num_groups == len(rank)
    assert group_index.tolist() == [rank[t] for t in tuples]
    first_of = {}
    for i, t in enumerate(tuples):
        first_of.setdefault(t, i)
    assert first_rows.tolist() == [first_of[t] for t in sorted(rank)]
    if len(columns) == 1:
        assert first_rows.tolist() == np.unique(columns[0], return_index=True)[1].tolist()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("fn", ["sum", "count", "avg", "min", "max", "count_distinct"])
def test_apply_aggregate_matches_python_reference(seed, fn):
    rng = np.random.RandomState(seed)
    n = int(rng.randint(1, 60))
    keys = rng.randint(0, 6, n)
    group_index, _, num_groups = group_rows([keys])
    values = rng.randint(-50, 50, n).astype(np.float64)
    valid = rng.random_sample(n) < 0.7  # includes all-NULL groups
    spec = AggSpec("x", fn, object()) if fn != "count" else AggSpec("x", fn)
    result = apply_aggregate(
        spec, group_index, num_groups,
        values if fn != "count" else None,
        valid if fn not in ("count_distinct",) else None,
    )
    for g in range(num_groups):
        rows = np.flatnonzero(group_index == g)
        masked = [values[i] for i in rows if valid[i]]
        if fn == "count":
            expected = len([i for i in rows if valid[i]])
        elif fn == "sum":
            expected = sum(masked)
        elif fn == "avg":
            expected = sum(masked) / len(masked) if masked else None
        elif fn == "min":
            expected = min(masked) if masked else None
        elif fn == "max":
            expected = max(masked) if masked else None
        else:  # count_distinct ignores validity, like the kernel
            expected = len({values[i] for i in rows})
        if expected is None:
            continue  # empty-group sentinel behaviour pinned elsewhere
        assert result[g] == pytest.approx(expected)


def test_apply_aggregate_all_null_masks():
    group_index = np.array([0, 0, 1], dtype=np.int64)
    values = np.array([5.0, 7.0, 9.0])
    no_valid = np.zeros(3, dtype=bool)
    count = apply_aggregate(AggSpec("c", "count", object()), group_index, 2, values, no_valid)
    assert count.tolist() == [0, 0]
    total = apply_aggregate(AggSpec("s", "sum", object()), group_index, 2, values, no_valid)
    assert total.tolist() == [0.0, 0.0]


def test_apply_aggregate_string_min_max():
    group_index = np.array([0, 1, 0, 1], dtype=np.int64)
    values = np.array(["pear", "fig", "apple", "quince"])
    low = apply_aggregate(AggSpec("m", "min", object()), group_index, 2, values)
    high = apply_aggregate(AggSpec("m", "max", object()), group_index, 2, values)
    assert low.tolist() == ["apple", "fig"]
    assert high.tolist() == ["pear", "quince"]


def test_apply_aggregate_empty_input():
    group_index = np.zeros(0, dtype=np.int64)
    values = np.zeros(0)
    for fn in ("sum", "count", "min", "max", "count_distinct"):
        spec = AggSpec("x", fn, object() if fn != "count" else None)
        result = apply_aggregate(spec, group_index, 0, values if fn != "count" else None)
        assert len(result) == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_distinct_per_partition_matches_sets(seed):
    rng = np.random.RandomState(seed)
    n = int(rng.randint(1, 60))
    partitions = rng.randint(0, 4, n).astype(np.uint64)
    group_index = rng.randint(0, 7, n).astype(np.int64)
    per_partition = distinct_per_partition(partitions, group_index)
    reference = {}
    for p, g in zip(partitions.tolist(), group_index.tolist()):
        reference.setdefault(p, set()).add(g)
    assert sorted(per_partition.tolist()) == sorted(len(s) for s in reference.values())


def test_distinct_per_partition_empty():
    assert len(distinct_per_partition(np.zeros(0, np.uint64), np.zeros(0, np.int64))) == 0


# ------------------------------------------------------ count tables
def _rows_for_entries_reference(table, entries):
    pieces = [
        np.arange(table.offsets[idx], table.offsets[idx] + table.counts[idx])
        for idx in np.sort(entries)
    ]
    return np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64)


@pytest.mark.parametrize("seed", SEEDS)
def test_rows_for_entries_matches_arange_reference(seed):
    rng = np.random.RandomState(seed)
    num_entries = int(rng.randint(0, 30))
    counts = rng.randint(0, 5, num_entries)  # includes zero-count entries
    offsets = np.cumsum(counts) - counts
    table = CountTable(4, np.arange(num_entries), counts, offsets, np.ones(num_entries, bool))
    for entries in (
        np.zeros(0, dtype=np.int64),
        rng.permutation(num_entries)[: int(rng.randint(0, num_entries + 1))],
        np.arange(num_entries),
    ):
        got = table.rows_for_entries(entries)
        expected = _rows_for_entries_reference(table, entries)
        assert got.dtype == expected.dtype
        assert got.tolist() == expected.tolist()
