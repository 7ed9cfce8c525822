"""Differential tests of the network path against the linear-scan oracle.

The whole serving stack — frame encoding, the asyncio server, the
batching service, the installed backend, frame decoding — must be
result-transparent: what a client reads off the socket is exactly what
:func:`tests.conftest.oracle_result` computes, for every strategy, every
result mode, and every ``execute()``-shaped backend the service can
host (plain :class:`HintIndex`, :class:`ShardedHint`,
:class:`CachingExecutor`) — including when ``swap_index`` replaces the
backend mid-traffic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import HintIndex, QueryBatch
from repro.cache import CachingExecutor
from repro.core.strategies import STRATEGIES
from repro.net import QueryClient, serve_in_thread
from repro.service import BatchingQueryService
from repro.shard import ShardedHint

from tests.conftest import oracle_result, random_collection

M = 10
TOP = (1 << M) - 1
N_INTERVALS = 3_000
N_QUERIES = 24
MODES = ("count", "checksum", "ids")


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(20260808)
    coll = random_collection(rng, N_INTERVALS, TOP)
    q_st = rng.integers(0, TOP + 1, N_QUERIES)
    q_end = np.minimum(q_st + rng.integers(0, TOP // 4, N_QUERIES), TOP)
    batch = QueryBatch(q_st, q_end)
    return coll, batch, oracle_result(coll, batch, M)


def _check_against_oracle(client, batch, oracle, mode):
    for pos, (q_st, q_end) in enumerate(batch):
        got = client.query(int(q_st), int(q_end))
        if mode == "count":
            assert got == int(oracle.counts[pos])
        elif mode == "checksum":
            count, xor = got
            assert count == int(oracle.counts[pos])
            assert xor == oracle.query_checksum(pos)
        else:
            assert frozenset(got) == oracle.id_sets()[pos]
            assert got == tuple(sorted(got))  # wire contract: sorted


def _serve_and_check(backend, workload, *, strategy, mode):
    coll, batch, oracle = workload
    service = BatchingQueryService(
        backend, strategy=strategy, mode=mode, max_batch=7, max_delay_ms=2.0
    )
    handle = serve_in_thread(service, owns_service=True)
    try:
        with QueryClient(handle.host, handle.port) as client:
            _check_against_oracle(client, batch, oracle, mode)
    finally:
        handle.close()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_socket_matches_oracle_every_strategy_and_mode(
    workload, strategy, mode
):
    coll, _, _ = workload
    _serve_and_check(
        HintIndex(coll, m=M), workload, strategy=strategy, mode=mode
    )


@pytest.mark.parametrize("mode", MODES)
def test_socket_matches_oracle_sharded_backend(workload, mode):
    coll, _, _ = workload
    _serve_and_check(
        ShardedHint(coll, k=3, m=M),
        workload,
        strategy="partition-based",
        mode=mode,
    )


@pytest.mark.parametrize("mode", MODES)
def test_socket_matches_oracle_caching_backend(workload, mode):
    coll, _, _ = workload
    _serve_and_check(
        CachingExecutor(HintIndex(coll, m=M)),
        workload,
        strategy="partition-based",
        mode=mode,
    )


def test_swap_index_mid_traffic(workload):
    """One connection, three backends: results stay oracle-exact across
    live ``swap_index`` to a sharded and then a caching backend."""
    coll, batch, oracle = workload
    service = BatchingQueryService(
        HintIndex(coll, m=M), mode="ids", max_batch=7, max_delay_ms=2.0
    )
    handle = serve_in_thread(service, owns_service=True)
    try:
        with QueryClient(handle.host, handle.port) as client:
            _check_against_oracle(client, batch, oracle, "ids")
            service.swap_index(ShardedHint(coll, k=2, m=M))
            _check_against_oracle(client, batch, oracle, "ids")
            service.swap_index(CachingExecutor(HintIndex(coll, m=M)))
            _check_against_oracle(client, batch, oracle, "ids")
            _check_against_oracle(client, batch, oracle, "ids")  # cached
    finally:
        handle.close()


def test_explicit_mode_matching_server_is_accepted(workload):
    """A client may pin the mode explicitly when it matches the server's."""
    coll, batch, oracle = workload
    service = BatchingQueryService(
        HintIndex(coll, m=M), mode="count", max_batch=7, max_delay_ms=2.0
    )
    handle = serve_in_thread(service, owns_service=True)
    try:
        with QueryClient(handle.host, handle.port) as client:
            q_st, q_end = next(iter(batch))
            pinned = client.query(int(q_st), int(q_end), mode="count")
            assert pinned == int(oracle.counts[0])
    finally:
        handle.close()
