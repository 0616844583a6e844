"""Differential tests of repro.formats.order against numpy's stable sort."""

import numpy as np
import pytest

from repro.apps.graphs import _symmetrise
from repro.formats import COOMatrix, generate, group_starts, stable_order
from repro.formats import generators as gen
from repro.formats import order as order_mod

INT64_MAX = np.iinfo(np.int64).max


def reference(keys):
    return np.argsort(keys, kind="stable")


def key_cases():
    """Key arrays on both sides of ``PACKED_MIN_KEYS``."""
    rng = np.random.default_rng(7)
    big = order_mod.PACKED_MIN_KEYS
    return {
        "empty": np.zeros(0, dtype=np.int64),
        "one": np.array([5], dtype=np.int64),
        "two-equal": np.array([3, 3], dtype=np.int64),
        "short": rng.integers(0, 9, size=big - 1),
        "heavy-duplicates": rng.integers(0, 4, size=5000),
        "all-equal": np.full(big, 9, dtype=np.int64),
        "negative": rng.integers(-1000, 1000, size=3000),
        "int32": rng.integers(-50, 50, size=2000).astype(np.int32),
        "uint8": rng.integers(0, 3, size=big + 7).astype(np.uint8),
        "sorted": np.repeat(np.arange(300), 7),
        "reversed": np.repeat(np.arange(300), 7)[::-1],
        "strided": rng.integers(0, 30, size=4000)[::3],
        "power-of-two": rng.integers(0, 10, size=2 * big),
        "wide-span-fits": np.tile([0, 2 ** 40, 7, 2 ** 40, 0], big),
        "int64-extremes": np.tile([INT64_MAX, -INT64_MAX - 1, 0, 1], big),
        "int64-min-narrow": np.repeat([-INT64_MAX, -INT64_MAX - 1], big),
        "uint64-huge": np.tile(np.array([2 ** 64 - 1, 0, 2 ** 63, 2 ** 64 - 1],
                                        dtype=np.uint64), big),
    }


@pytest.mark.parametrize("name,keys", list(key_cases().items()))
def test_equals_stable_argsort(name, keys):
    got = stable_order(keys)
    want = reference(keys)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_accepts_lists():
    assert np.array_equal(stable_order([3, 1, 3, 0, 1]),
                          reference(np.array([3, 1, 3, 0, 1])))


def test_float_keys_use_the_stable_argsort():
    keys = np.array([0.5, -1.0, 0.5, np.nan, -1.0])
    assert np.array_equal(stable_order(keys), reference(keys))


@pytest.fixture
def argsort_kinds(monkeypatch):
    """The ``kind`` of every ``np.argsort`` call the helper makes."""
    calls = []
    original = np.argsort

    def counted(*args, **kwargs):
        calls.append(kwargs.get("kind"))
        return original(*args, **kwargs)

    monkeypatch.setattr(order_mod.np, "argsort", counted)
    return calls


@pytest.mark.parametrize("n", [order_mod.PACKED_MIN_KEYS,
                               order_mod.PACKED_MIN_KEYS + 1, 5000])
def test_span_at_the_packing_limit(n, argsort_kinds):
    # The largest span that packs keeps the packed sort; one more falls
    # back. Both must give the stable order.
    bits = (n - 1).bit_length()
    limit = INT64_MAX >> bits
    for span, falls_back in ((limit, False), (limit + 1, True)):
        keys = np.zeros(n, dtype=np.int64)
        keys[::2] = span
        keys -= span // 2
        argsort_kinds.clear()
        got = stable_order(keys)
        assert argsort_kinds == (["stable"] if falls_back else [])
        assert np.array_equal(got, reference(keys))


def test_short_keys_use_the_stable_argsort(argsort_kinds):
    keys = np.arange(order_mod.PACKED_MIN_KEYS - 1)[::-1] % 5
    assert np.array_equal(stable_order(keys), reference(keys))
    assert argsort_kinds == ["stable", "stable"]
    argsort_kinds.clear()
    stable_order(np.append(keys, 0))
    assert argsort_kinds == []


def test_group_starts_matches_unique_first_index():
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 50, size=2000)
    order = stable_order(keys)
    first = order[group_starts(keys[order])]
    _, want = np.unique(keys, return_index=True)
    assert np.array_equal(first, want)
    assert group_starts(np.zeros(0, dtype=np.int64)).size == 0
    assert np.array_equal(group_starts(np.array([4])), [0])


def unique_dedupe(shape, rows, cols):
    """``_dedupe`` as written with ``np.unique(return_index=True)``."""
    keys = rows.astype(np.int64) * shape[1] + cols
    _, first = np.unique(keys, return_index=True)
    first.sort()
    return COOMatrix(shape, rows[first], cols[first], np.ones(first.size),
                     check=False)


def unique_symmetrise(graph):
    """``_symmetrise`` as written with ``np.unique(return_index=True)``."""
    rows = np.concatenate([graph.rows, graph.cols])
    cols = np.concatenate([graph.cols, graph.rows])
    keys = rows * graph.shape[1] + cols
    _, first = np.unique(keys, return_index=True)
    return COOMatrix(graph.shape, rows[first], cols[first],
                     np.ones(first.size), check=False)


def same(a, b):
    return (a.shape == b.shape and np.array_equal(a.rows, b.rows)
            and np.array_equal(a.cols, b.cols)
            and np.array_equal(a.vals, b.vals))


@pytest.mark.parametrize("shape,size", [((40, 30), 3000), ((500, 700), 900),
                                        ((1, 1), 5), ((9, 9), 0)])
def test_dedupe_matches_unique_version(shape, size):
    rng = np.random.default_rng(size)
    rows = rng.integers(0, shape[0], size=size)
    cols = rng.integers(0, shape[1], size=size)
    assert same(gen._dedupe(shape, rows, cols),
                unique_dedupe(shape, rows, cols))


@pytest.mark.parametrize("name", ["wiki-Vote", "email-Enron", "facebook",
                                  "p2p-Gnutella31"])
def test_symmetrise_matches_unique_version(name):
    graph = generate(name, scale=0.02)
    assert same(_symmetrise(graph), unique_symmetrise(graph))
