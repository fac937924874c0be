"""Event-loop transport unit tests: coalescing and connection caps.

The protocol/cluster/resilience suites exercise the transport through
the client channel's public surface; this file targets the machinery
underneath it — the opportunistic request coalescer and the
``max_connections`` accept cap.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time

import pytest

from repro.datastore.aio import AsyncClientChannel, _Op
from repro.datastore.base import KeyNotFound, StoreError, StoreUnavailable
from repro.datastore.netkv import NetKVServer, TransportConfig

pytestmark = pytest.mark.async_transport


@pytest.fixture()
def server():
    srv = NetKVServer().start()
    yield srv
    srv.stop()


@pytest.fixture()
def channel(server):
    chan = AsyncClientChannel(server.address, TransportConfig())
    yield chan
    chan.close()


def _enqueue_batch(chan, ops):
    """Queue ops in one loop callback so the drainer sees them together.

    The first ``_enqueue`` creates the drainer task, but the loop only
    runs it after this callback returns — by then the whole batch is
    queued, making the fold deterministic instead of timing-dependent.
    """
    chan.ping()  # force loop + connection up before going behind the API
    lt = chan._ensure_loop()

    def put():
        for op in ops:
            chan._enqueue(op)

    lt.loop.call_soon_threadsafe(put)
    return [op.fut for op in ops]


def _op(kind, arg):
    return _Op(kind, arg, concurrent.futures.Future())


class TestCoalescing:
    def test_queued_gets_fold_into_one_mget(self, channel):
        for i in range(8):
            channel.set(f"k{i}", b"v%d" % i)
        channel.stats.reset()
        ops = [_op("GET", f"k{i}") for i in range(8)]
        futs = _enqueue_batch(channel, ops)
        assert [f.result(10) for f in futs] == [b"v%d" % i for i in range(8)]
        assert channel.stats.coalesced_requests == 1
        assert channel.stats.coalesced_keys == 8
        assert channel.stats.max_batch_keys >= 8

    def test_fold_stops_at_kind_boundary_and_preserves_fifo(self, channel):
        channel.set("a", b"1")
        channel.set("b", b"2")
        channel.stats.reset()
        ops = [
            _op("GET", "a"),
            _op("GET", "b"),
            _op("SET", ("c", b"3")),
            _op("SET", ("d", b"4")),
            _op("DEL", "a"),
            _op("DEL", "b"),
        ]
        futs = _enqueue_batch(channel, ops)
        assert futs[0].result(10) == b"1"
        assert futs[1].result(10) == b"2"
        for f in futs[2:]:
            assert f.result(10) is None
        # Three same-kind runs of two: MGET, MSET, MDEL — never a mix.
        assert channel.stats.coalesced_requests == 3
        assert channel.stats.coalesced_keys == 6
        # FIFO held: the DELs ran after the SETs, so c and d survive.
        assert channel.get("c") == b"3"
        with pytest.raises(KeyNotFound):
            channel.get("a")

    def test_folded_miss_maps_back_to_the_one_caller(self, channel):
        channel.set("hit", b"x")
        ops = [_op("GET", "hit"), _op("GET", "miss"), _op("GET", "hit")]
        futs = _enqueue_batch(channel, ops)
        assert futs[0].result(10) == b"x"
        with pytest.raises(KeyNotFound):
            futs[1].result(10)
        assert futs[2].result(10) == b"x"

    def test_unfoldable_key_ships_alone(self, channel):
        channel.set("good", b"g")
        channel.stats.reset()
        # "bad key" can't ride in an MGET frame (the wire uses NUL/space
        # framing), so it must break the run and ship as a single GET.
        ops = [_op("GET", "good"), _op("GET", "bad key"), _op("GET", "good")]
        futs = _enqueue_batch(channel, ops)
        assert futs[0].result(10) == b"g"
        with pytest.raises(StoreError):
            futs[1].result(10)
        assert futs[2].result(10) == b"g"
        assert channel.stats.coalesced_requests == 0

    def test_concurrent_callers_coalesce_and_stay_correct(self, server):
        chan = AsyncClientChannel(server.address, TransportConfig())
        try:
            for i in range(16):
                chan.set(f"c{i}", b"v%d" % i)
            errors = []

            def worker(i):
                try:
                    for _ in range(25):
                        assert chan.get(f"c{i}") == b"v%d" % i
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            # 16 callers blocked behind one wire: while one round trip
            # is in flight the rest pile up and fold. Over 400 gets the
            # coalescer cannot plausibly stay idle.
            assert chan.stats.coalesced_requests > 0
            assert chan.stats.coalesced_keys >= 2 * chan.stats.coalesced_requests
        finally:
            chan.close()


class TestMaxConnections:
    def test_excess_connections_are_refused_then_admitted(self):
        srv = NetKVServer(max_connections=2).start()
        cfg = TransportConfig(retries=1, backoff_base=0.001,
                              backoff_max=0.005, connect_timeout=2.0,
                              op_timeout=2.0)
        c1 = c2 = c3 = None
        try:
            c1 = AsyncClientChannel(srv.address, cfg)
            c2 = AsyncClientChannel(srv.address, cfg)
            assert c1.ping() and c2.ping()
            assert srv.connection_count() == 2
            c3 = AsyncClientChannel(srv.address, cfg)
            with pytest.raises(StoreUnavailable):
                c3.ping()
            # Freeing a slot readmits the refused client on retry.
            c1.close()
            deadline = time.monotonic() + 5.0
            while srv.connection_count() > 1:
                assert time.monotonic() < deadline, "slot never freed"
                time.sleep(0.01)
            assert c3.ping()
        finally:
            for c in (c1, c2, c3):
                if c is not None:
                    c.close()
            srv.stop()
