"""Extension bench: many small NetKV GETs from one blocking caller.

One caller thread issues single-key GETs through an
:class:`~repro.datastore.aio.AsyncClientChannel`, one round trip at a
time, so every GET pays the full wire cost: the request header parsed
by the server, the response header parsed by the client, and the hop
between the caller thread and the channel's event loop.

The paper's >12x CG→continuum feedback speed-up (§5.1, Fig. 7) rides
on exactly this workload shape — thousands of tiny key reads per
iteration — so the per-GET round trip must not dominate.
"""

import time

from conftest import report

from repro.datastore.aio import AsyncClientChannel
from repro.datastore.netkv import NetKVServer, TransportConfig


def test_many_small_gets_end_to_end():
    nkeys, nreads = 500, 4000
    server = NetKVServer().start()
    client = AsyncClientChannel(server.address, TransportConfig())
    try:
        for i in range(nkeys):
            client.set(f"small/{i:04d}", b"v" * 24)
        t0 = time.perf_counter()
        for i in range(nreads):
            client.get(f"small/{i % nkeys:04d}")
        elapsed = time.perf_counter() - t0
        lat = client.stats.latency
        report("ext_netkv_small_gets", [
            f"reads                {nreads}",
            f"elapsed              {elapsed:.3f} s",
            f"throughput           {nreads / elapsed:,.0f} GETs/s",
            f"round-trip p50       <= {lat.quantile_ms(0.5):.2f} ms",
            f"round-trip p99       <= {lat.quantile_ms(0.99):.2f} ms",
        ])
        assert nreads / elapsed > 500  # sanity floor, loopback TCP
    finally:
        client.close()
        server.stop()
