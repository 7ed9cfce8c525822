"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro import HintIndex, IntervalCollection, NaiveScan, QueryBatch

# Property-based tests run derandomized so the suite is deterministic
# across machines (a reproduction's tests should fail only for real
# reasons).  Remove the profile locally to let hypothesis explore.
settings.register_profile(
    "repro-ci",
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# A fast randomized pass for CI smoke jobs: fewer examples, but *not*
# derandomized, so repeated CI runs keep exploring fresh inputs.
settings.register_profile(
    "quick",
    max_examples=15,
    suppress_health_check=[HealthCheck.too_slow],
)
# The nightly deep-soak pass: many randomized examples and long stateful
# runs.  Too slow for the per-commit pipeline, which is the point.
settings.register_profile(
    "thorough",
    max_examples=300,
    stateful_step_count=50,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "repro-ci"))


@pytest.fixture
def rng():
    return np.random.default_rng(20240325)


def random_collection(rng, n, top):
    """Random collection with endpoints inside ``[0, top]``."""
    if n == 0:
        return IntervalCollection.empty()
    st = rng.integers(0, top + 1, size=n)
    end = np.minimum(st + rng.integers(0, top + 1, size=n), top)
    return IntervalCollection(st, end)


def random_batch(rng, n, top):
    """Random query batch with endpoints inside ``[0, top]``."""
    st = rng.integers(0, top + 1, size=n)
    end = np.minimum(st + rng.integers(0, top + 1, size=n), top)
    return QueryBatch(st, end)


def expected_sets(collection, batch):
    """Ground-truth result sets per query, via the naive oracle."""
    naive = NaiveScan(collection)
    return [
        frozenset(int(v) for v in naive.query(s, e)) for s, e in batch
    ]


def oracle_result(collection, batch, m):
    """Ground-truth ids-mode result under the index clipping contract.

    Every index structure clips queries into its domain ``[0, 2**m - 1]``
    (documented on :meth:`repro.hint.index.HintIndex.query`), so the
    linear-scan oracle is evaluated on the clipped batch.  Shared by the
    cross-strategy differential harness (``test_differential``) and the
    service stress test (``test_service``).
    """
    top = (1 << m) - 1
    return NaiveScan(collection).batch(batch.clipped(0, top), mode="ids")


def assert_flat_oracle(result, want):
    """*result* is the answer *want* (an :func:`oracle_result`) in its own
    mode, and in ids mode one flat array whose per-query ids are views of
    it — whatever merges (chunks, shards, cache) produced it."""
    assert result.counts.tolist() == want.counts.tolist()
    if result.mode == "checksum":
        assert result.checksums.tolist() == [
            want.query_checksum(i) for i in range(len(want))
        ]
    if result.mode == "ids":
        assert result == want
        flat = result.flat_ids
        assert flat.ndim == 1 and flat.dtype == np.int64
        assert result.offsets.tolist() == np.cumsum([0, *result.counts]).tolist()
        assert all(result.ids(i).base is flat for i in range(len(result)))


@pytest.fixture
def small_collection():
    """The hand-checkable collection used by many exact-value tests.

    Domain [0, 15] (m = 4):

    ======  =========  =================================
    id      interval   notes
    ======  =========  =================================
    0       [0, 15]    full domain
    1       [3, 3]     point
    2       [2, 5]     equals query q1 of the paper
    3       [10, 13]   equals query q2
    4       [4, 6]     equals query q3
    5       [7, 8]     crosses the domain midpoint
    6       [14, 15]   touches the domain end
    7       [0, 0]     point at the origin
    ======  =========  =================================
    """
    return IntervalCollection.from_records(
        [
            (0, 0, 15),
            (1, 3, 3),
            (2, 2, 5),
            (3, 10, 13),
            (4, 4, 6),
            (5, 7, 8),
            (6, 14, 15),
            (7, 0, 0),
        ]
    )


@pytest.fixture
def small_index(small_collection):
    return HintIndex(small_collection, m=4)
