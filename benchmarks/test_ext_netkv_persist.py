"""Extension bench: durable-shard overhead and migration throughput.

Persistence must not buy durability by serializing the hot path: the
WAL appends on the event loop and fsyncs in coalesced group commits,
so a pipelined MSET pays a handful of fsync batches, not one per key.
This bench measures the same 600x64B pipelined workload as
``pipelining_600x64B`` (BENCH_netkv_cluster.json) against in-memory
and durable async shards and records the overhead ratio, plus the
throughput of ``migrate_slots`` moving half a keyspace between live
shards. Results land in ``BENCH_netkv_persist.json``.
"""

from __future__ import annotations

import time

import pytest
from conftest import record_json, report

from repro.datastore.aio import NetKVServer
from repro.datastore.netkv import NetKVCluster, TransportConfig, key_slot
from repro.datastore.wal import DurabilityConfig

pytestmark = [pytest.mark.multi_server, pytest.mark.async_transport,
              pytest.mark.persist]

BENCH_JSON = "BENCH_netkv_persist.json"
NKEYS = 600
PAYLOAD = b"x" * 64


def _cluster(servers):
    # Short route_refresh: the migration benchmark would otherwise pay
    # two full default-length (1.5 s) stale-route grace waits, which
    # measures the safety sleep rather than the copy throughput.
    return NetKVCluster([s.address for s in servers],
                        config=TransportConfig(route_refresh=0.05))


def _timed_pipeline(cluster, items):
    keys = [k for k, _ in items]
    t0 = time.perf_counter()
    cluster.mset(items)
    t_mset = time.perf_counter() - t0
    t0 = time.perf_counter()
    values = cluster.mget(keys)
    t_mget = time.perf_counter() - t0
    assert values == [v for _, v in items]
    return t_mset, t_mget


class TestDurableOverhead:
    def test_group_commit_keeps_pipelining_cheap(self, tmp_path):
        items = [(f"bench/{i:04d}", PAYLOAD) for i in range(NKEYS)]

        mem_servers = [NetKVServer().start() for _ in range(2)]
        wal_servers = [
            NetKVServer(persist_dir=str(tmp_path / f"shard{i}"),
                        durability=DurabilityConfig(fsync=True)).start()
            for i in range(2)
        ]
        mem = _cluster(mem_servers)
        wal = _cluster(wal_servers)
        try:
            # Warm both paths (connections, first-touch allocation).
            mem.mset(items[:32]); mem.mget([k for k, _ in items[:32]])
            wal.mset(items[:32]); wal.mget([k for k, _ in items[:32]])

            mem_mset, mem_mget = _timed_pipeline(mem, items)
            wal_mset, wal_mget = _timed_pipeline(wal, items)

            write_overhead = wal_mset / mem_mset
            read_overhead = wal_mget / mem_mget
            fsync_batches = sum(s.wal.fsync_batches for s in wal_servers)

            report("ext_netkv_persist_overhead", [
                f"keys                 {NKEYS} x {len(PAYLOAD)} B",
                f"in-memory mset       {mem_mset:.4f} s",
                f"durable mset         {wal_mset:.4f} s "
                f"({write_overhead:.2f}x, {fsync_batches} fsync batches)",
                f"in-memory mget       {mem_mget:.4f} s",
                f"durable mget         {wal_mget:.4f} s "
                f"({read_overhead:.2f}x)",
            ])
            record_json(BENCH_JSON, "durable_pipelining_600x64B", {
                "nkeys": NKEYS,
                "payload_bytes": len(PAYLOAD),
                "mem_mset_s": mem_mset,
                "wal_mset_s": wal_mset,
                "write_overhead_x": write_overhead,
                "mem_mget_s": mem_mget,
                "wal_mget_s": wal_mget,
                "read_overhead_x": read_overhead,
                "fsync_batches": fsync_batches,
            })
            # Group commit must coalesce: a 600-key mset pays a few
            # fsync passes per shard, never one per key.
            assert fsync_batches < 2 * 20
            # Reads never touch the WAL; any large gap is a regression.
            assert read_overhead < 3.0
        finally:
            mem.close()
            wal.close()
            for s in mem_servers + wal_servers:
                s.stop()


class TestMigrationThroughput:
    def test_migrate_half_the_keyspace(self, tmp_path):
        servers = [
            NetKVServer(persist_dir=str(tmp_path / f"shard{i}"),
                        durability=DurabilityConfig(fsync=True)).start()
            for i in range(3)
        ]
        cluster = _cluster(servers)
        try:
            items = [(f"mig/{i:05d}", PAYLOAD) for i in range(2000)]
            cluster.mset(items)
            moving = sorted({key_slot(k) for k, _ in items
                             if key_slot(k) % 2 == 0})

            t0 = time.perf_counter()
            result = cluster.migrate_slots(moving, 2)
            elapsed = time.perf_counter() - t0
            moved = result["keys_moved"]
            assert moved > 0
            keys_per_s = moved / elapsed

            # Every key still readable from its (possibly new) home.
            values = cluster.mget([k for k, _ in items])
            assert values == [v for _, v in items]

            report("ext_netkv_persist_migration", [
                f"keyspace             {len(items)} keys",
                f"slots moved          {result['slots']}",
                f"keys moved           {moved}",
                f"migration wall       {elapsed:.3f} s "
                f"({keys_per_s:,.0f} keys/s)",
                f"routing epoch        {result['epoch']}",
            ])
            record_json(BENCH_JSON, "migration_throughput", {
                "nkeys": len(items),
                "slots_moved": result["slots"],
                "keys_moved": moved,
                "migrate_s": elapsed,
                "keys_per_s": keys_per_s,
            })
        finally:
            cluster.close()
            for s in servers:
                s.stop()
