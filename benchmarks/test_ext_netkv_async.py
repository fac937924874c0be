"""Extension bench: the asyncio NetKV transport at scale.

Three claims about the event-loop transport are measured here and recorded
to ``BENCH_netkv_cluster.json`` under ``async_transport``:

1. **Connection scale** — one async shard holds 100 / 1k / 10k
   concurrent connections and still serves requests on a sample of
   them. A connection costs one protocol object, not one thread. The
   10k rung opens its client sockets from a *subprocess* so the two
   sides' file descriptors (10k server-side + 10k client-side) don't
   share one process's fd budget.
2. **Small-GET throughput** — both sides send identical single-key
   GET frames to the *same* shard, but their client models differ:
   the baseline is blocking request-per-response (one raw socket per
   thread, ``sendall`` one GET, read its one frame), while an
   event-loop client keeps a window of requests in flight per
   connection and the server answers each burst with one vectored
   write. That window is what multiplies GETs/s over the blocking
   baseline.
3. **Coalescing telemetry** — many concurrent blocking callers through
   one shared channel fold into MGET wire batches while a round trip
   is in flight; the fold counters prove the facade pipelines even
   when its callers can't.
"""

from __future__ import annotations

import asyncio
import json
import socket
import subprocess
import sys
import textwrap
import threading
import time

import pytest
from conftest import record_json, report

from repro.datastore.aio import AsyncClientChannel
from repro.datastore.netkv import NetKVServer, TransportConfig

pytestmark = [pytest.mark.multi_server, pytest.mark.async_transport]

NKEYS = 512
PAYLOAD = b"v" * 24

_SWEEP_CHILD = textwrap.dedent("""
    import json, socket, sys, time
    host, port, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    socks = []
    t0 = time.perf_counter()
    for _ in range(n):
        socks.append(socket.create_connection((host, port), timeout=30))
    connect_s = time.perf_counter() - t0
    # Every connection stays open while a spread sample proves the
    # server is actually serving, not just accepting.
    step = max(1, n // 100)
    pinged = 0
    t0 = time.perf_counter()
    for s in socks[::step]:
        s.sendall(b"PING\\n")
        fh = s.makefile("rb")
        header = fh.readline()
        assert header.startswith(b"OK "), header
        assert fh.read(int(header[3:])) == b"PONG"
        pinged += 1
    ping_s = time.perf_counter() - t0
    print(json.dumps({"connected": len(socks), "pinged": pinged,
                      "connect_s": connect_s, "ping_s": ping_s}))
""")


def _preload(set_one):
    for i in range(NKEYS):
        set_one(f"small/{i:04d}", PAYLOAD)


def _pipelined_gets(address, nconn, depth, per_conn):
    """GETs/s of an event-loop client holding ``depth`` small GETs in
    flight on each of ``nconn`` connections (the async transport's
    natural client shape)."""
    host, port = address
    frame = len(b"OK %d\n" % len(PAYLOAD)) + len(PAYLOAD)

    class _Load(asyncio.Protocol):
        def __init__(self, idx, done):
            self.idx, self.done = idx, done
            self.sent = self.recvd = 0
            self.buf = bytearray()
            self.transport = None

        def connection_made(self, transport):
            self.transport = transport
            self._fill()

        def _fill(self):
            n = min(depth - (self.sent - self.recvd), per_conn - self.sent)
            if n > 0:
                base = self.idx + self.sent
                self.transport.write(b"".join(
                    b"GET small/%04d\n" % ((base + j) % NKEYS)
                    for j in range(n)))
                self.sent += n

        def data_received(self, data):
            self.buf += data
            nframes = len(self.buf) // frame
            if nframes:
                del self.buf[:nframes * frame]
                self.recvd += nframes
                if self.recvd >= per_conn:
                    self.done.set_result(None)
                    self.transport.close()
                    return
                self._fill()

        def connection_lost(self, exc):
            if not self.done.done():
                self.done.set_exception(
                    exc or ConnectionError("server closed mid-run"))

    async def _run():
        loop = asyncio.get_running_loop()
        dones = []
        for i in range(nconn):
            done = loop.create_future()
            dones.append(done)
            await loop.create_connection(
                lambda i=i, d=done: _Load(i, d), host, port)
        t0 = time.perf_counter()
        await asyncio.gather(*dones)
        return nconn * per_conn / (time.perf_counter() - t0)

    return asyncio.run(_run())


def _blocking_gets(address, nclients, ops_per_client):
    """GETs/s of ``nclients`` threads, each on its own raw socket doing
    request-per-response: ``sendall`` one GET, then read its one frame."""
    header = b"OK %d\n" % len(PAYLOAD)
    frame = len(header) + len(PAYLOAD)
    socks = [socket.create_connection(address, timeout=10)
             for _ in range(nclients)]

    def get_one(tid, key):
        sock = socks[tid]
        sock.sendall(b"GET %s\n" % key.encode())
        buf = b""
        while len(buf) < frame:
            chunk = sock.recv(frame - len(buf))
            if not chunk:
                raise ConnectionError("server closed mid-frame")
            buf += chunk
        assert buf.startswith(header), buf
        return buf[len(header):]

    try:
        return _hammer(get_one, nclients, ops_per_client)
    finally:
        for sock in socks:
            sock.close()


def _hammer(get_one, nthreads, ops_per_thread):
    """ops/s of nthreads callers doing round-robin small GETs."""
    errors = []

    def worker(tid):
        try:
            for i in range(ops_per_thread):
                key = f"small/{(tid + i) % NKEYS:04d}"
                assert get_one(tid, key) == PAYLOAD
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,))
               for t in range(nthreads)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    assert not errors, errors[:1]
    return nthreads * ops_per_thread / elapsed


class TestConnectionSweep:
    def test_async_shard_holds_100_1k_10k_connections(self):
        server = NetKVServer().start()
        host, port = server.address
        rungs = {}
        try:
            for n in (100, 1_000, 10_000):
                proc = subprocess.run(
                    [sys.executable, "-c", _SWEEP_CHILD,
                     host, str(port), str(n)],
                    capture_output=True, text=True, timeout=300)
                assert proc.returncode == 0, proc.stderr[-2000:]
                row = json.loads(proc.stdout)
                assert row["connected"] == n
                assert row["pinged"] == min(100, n)
                rungs[str(n)] = {
                    "connect_s": round(row["connect_s"], 3),
                    "conns_per_s": round(n / row["connect_s"], 1),
                    "sampled_pings": row["pinged"],
                    "ping_s": round(row["ping_s"], 3),
                }
        finally:
            server.stop()
        report("ext_netkv_async_connections", [
            f"{n:>6s} conns: opened in {r['connect_s']:.2f} s "
            f"({r['conns_per_s']:,.0f}/s), "
            f"{r['sampled_pings']} sampled pings in {r['ping_s']:.2f} s"
            for n, r in rungs.items()
        ])
        record_json("BENCH_netkv_cluster.json", "async_transport_connections",
                    rungs)


class TestSmallGetThroughput:
    def test_async_transport_multiplies_threaded_gets_per_s(self):
        blocking_clients = 8
        total_ops = 16_000

        async_srv = NetKVServer().start()
        try:
            seed = AsyncClientChannel(async_srv.address, TransportConfig())
            _preload(seed.set)
            seed.close()
            blocking_rate = _blocking_gets(async_srv.address,
                                           blocking_clients,
                                           total_ops // blocking_clients)
            rungs = {}
            for nconn, depth in ((16, 64), (8, 128)):
                rate = _pipelined_gets(async_srv.address, nconn, depth,
                                       per_conn=total_ops // nconn * 4)
                rungs[f"{nconn}conns_x{depth}deep"] = round(rate, 1)
        finally:
            async_srv.stop()

        async_rate = max(rungs.values())
        speedup = async_rate / blocking_rate
        report("ext_netkv_async_throughput", [
            f"blocking ({blocking_clients} raw-socket clients)  "
            f"{blocking_rate:,.0f} GETs/s",
            *(f"async    ({shape.replace('_', ' ')})  {rate:,.0f} GETs/s"
              for shape, rate in rungs.items()),
            f"speedup              {speedup:.1f}x",
        ])
        record_json("BENCH_netkv_cluster.json", "async_transport_throughput", {
            "blocking_gets_per_s": round(blocking_rate, 1),
            "blocking_clients": blocking_clients,
            "async_gets_per_s": round(async_rate, 1),
            "async_rungs": rungs,
            "speedup": round(speedup, 2),
        })
        # The acceptance bar for the rewrite: in-flight request windows
        # must convert into a multiple of the blocking clients' rate.
        assert speedup >= 2.0

    def test_concurrent_callers_coalesce_into_wire_batches(self):
        nthreads, total_ops = 32, 8_000
        async_srv = NetKVServer().start()
        chan = AsyncClientChannel(async_srv.address, TransportConfig())
        try:
            _preload(chan.set)
            rate = _hammer(lambda tid, key: chan.get(key),
                           nthreads, total_ops // nthreads)
            folds = chan.stats.coalesced_requests
            folded_keys = chan.stats.coalesced_keys
        finally:
            chan.close()
            async_srv.stop()

        report("ext_netkv_async_coalescing", [
            f"facade rate          {rate:,.0f} GETs/s "
            f"({nthreads} blocking callers)",
            f"coalescing           {folds} folds absorbing "
            f"{folded_keys} single-key GETs",
        ])
        record_json("BENCH_netkv_cluster.json", "async_transport_coalescing", {
            "facade_gets_per_s": round(rate, 1),
            "callers": nthreads,
            "coalesced_requests": folds,
            "coalesced_keys": folded_keys,
            "ops": total_ops,
        })
        assert folds > 0
        assert folded_keys >= 2 * folds
