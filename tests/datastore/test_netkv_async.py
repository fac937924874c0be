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

from repro.datastore.aio import AsyncClientChannel, _Op, _pack_items
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


# One-key batch ops, exactly as the channel's get/set/delete queue them.
def _mget(key):
    return _op("MGET", (key.encode(), 1))


def _mset(key, value):
    return _op("MSET", (_pack_items([(key, value)]), 1))


def _mdel(key):
    return _op("MDEL", (key.encode(), 1))


class TestCoalescing:
    def test_queued_gets_fold_into_one_mget(self, channel):
        for i in range(8):
            channel.set(f"k{i}", b"v%d" % i)
        channel.stats.reset()
        ops = [_mget(f"k{i}") for i in range(8)]
        futs = _enqueue_batch(channel, ops)
        assert [f.result(10) for f in futs] == [[b"v%d" % i] for i in range(8)]
        assert channel.stats.coalesced_requests == 1
        assert channel.stats.coalesced_keys == 8
        assert channel.stats.max_batch_keys >= 8

    def test_fold_stops_at_kind_boundary_and_preserves_fifo(self, channel):
        channel.set("a", b"1")
        channel.set("b", b"2")
        channel.stats.reset()
        ops = [
            _mget("a"),
            _mget("b"),
            _mset("c", b"3"),
            _mset("d", b"4"),
            _mdel("a"),
            _mdel("b"),
        ]
        futs = _enqueue_batch(channel, ops)
        assert futs[0].result(10) == [b"1"]
        assert futs[1].result(10) == [b"2"]
        assert [f.result(10) for f in futs[2:4]] == [1, 1]
        assert [f.result(10) for f in futs[4:]] == [[True], [True]]
        # Three same-kind runs of two: MGET, MSET, MDEL — never a mix.
        assert channel.stats.coalesced_requests == 3
        assert channel.stats.coalesced_keys == 6
        # FIFO held: the DELs ran after the SETs, so c and d survive.
        assert channel.get("c") == b"3"
        with pytest.raises(KeyNotFound):
            channel.get("a")

    def test_folded_miss_maps_back_to_the_one_caller(self, channel):
        channel.set("hit", b"x")
        ops = [_mget("hit"), _mget("miss"), _mget("hit")]
        futs = _enqueue_batch(channel, ops)
        assert futs[0].result(10) == [b"x"]
        assert futs[1].result(10) == [None]
        assert futs[2].result(10) == [b"x"]
        with pytest.raises(KeyNotFound):
            channel.get("miss")

    def test_fold_stops_at_batch_keys(self, server):
        chan = AsyncClientChannel(server.address,
                                  TransportConfig(batch_keys=3))
        try:
            ops = [_mset(f"k{i}", b"v") for i in range(5)]
            futs = _enqueue_batch(chan, ops)
            assert [f.result(10) for f in futs] == [1] * 5
            # 3 + 2 keys: two folded frames, never one past batch_keys.
            assert chan.stats.coalesced_requests == 2
            assert chan.stats.max_batch_keys == 3
        finally:
            chan.close()

    def test_reserved_byte_key_raises_at_the_call(self, channel):
        channel.ping()
        channel.stats.reset()
        for call in (lambda: channel.get("bad key"),
                     lambda: channel.set("bad\nkey", b"v"),
                     lambda: channel.delete("bad\x00key")):
            with pytest.raises(StoreError):
                call()
        # Rejected before queueing: nothing reached the wire.
        assert channel.stats.requests == 0
        assert not channel._pending and not channel._queue

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
