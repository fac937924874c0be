"""Tests for the networked KV server/client over real TCP sockets."""

import socket
import threading
import time

import pytest

from repro.datastore.aio import AsyncClientChannel
from repro.datastore.base import KeyNotFound, StoreError
from repro.datastore.netkv import (
    NetKVCluster,
    NetKVServer,
    NetKVStore,
    TransportConfig,
)


@pytest.fixture
def server():
    srv = NetKVServer().start()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    c = AsyncClientChannel(server.address, TransportConfig())
    yield c
    c.close()


class TestClientServer:
    def test_ping(self, client):
        assert client.ping()

    def test_set_get_roundtrip(self, client):
        client.set("k", b"value-bytes")
        assert client.get("k") == b"value-bytes"

    def test_binary_payloads(self, client):
        blob = bytes(range(256)) * 100  # includes \n and \x00
        client.set("bin", blob)
        assert client.get("bin") == blob

    def test_empty_payload(self, client):
        client.set("empty", b"")
        assert client.get("empty") == b""

    def test_get_missing_raises(self, client):
        with pytest.raises(KeyNotFound):
            client.get("missing")

    def test_delete(self, client):
        client.set("k", b"v")
        client.delete("k")
        with pytest.raises(KeyNotFound):
            client.get("k")
        with pytest.raises(KeyNotFound):
            client.delete("k")

    def test_keys_prefix(self, client):
        client.set("rdf/a", b"")
        client.set("rdf/b", b"")
        client.set("other", b"")
        assert client.keys("rdf/") == ["rdf/a", "rdf/b"]
        assert len(client.keys()) == 3

    def test_keys_empty_store(self, client):
        assert client.keys() == []

    def test_rename(self, client):
        client.set("old", b"v")
        client.rename("old", "new")
        assert client.get("new") == b"v"
        with pytest.raises(KeyNotFound):
            client.get("old")

    def test_len(self, client):
        for i in range(5):
            client.set(f"k{i}", b"")
        assert len(client) == 5

    def test_unknown_command_is_err(self, client):
        # No public method sends an unknown command; drive the wire op
        # on the channel's loop directly.
        with pytest.raises(StoreError):
            client._ensure_loop().run(client._roundtrip("BOGUS"))

    def test_many_roundtrips_one_connection(self, client):
        for i in range(200):
            client.set(f"k{i:03d}", str(i).encode())
        for i in range(200):
            assert client.get(f"k{i:03d}") == str(i).encode()

    def test_concurrent_clients(self, server):
        errors = []

        def worker(wid):
            try:
                c = AsyncClientChannel(server.address, TransportConfig())
                for i in range(50):
                    c.set(f"w{wid}/k{i}", f"{wid}-{i}".encode())
                for i in range(50):
                    assert c.get(f"w{wid}/k{i}") == f"{wid}-{i}".encode()
                c.close()
            except Exception as exc:  # surface in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        probe = AsyncClientChannel(server.address, TransportConfig())
        assert len(probe) == 200
        probe.close()


class TestNetKVCluster:
    @pytest.fixture
    def cluster(self):
        servers = [NetKVServer().start() for _ in range(3)]
        cluster = NetKVCluster([s.address for s in servers])
        yield cluster
        cluster.close()
        for s in servers:
            s.stop()

    def test_routing_spreads_keys(self, cluster):
        for i in range(300):
            cluster.set(f"frame-{i:04d}", b"x")
        sizes = [len(c) for c in cluster.clients]
        assert sum(sizes) == 300
        assert all(s > 0 for s in sizes)

    def test_keys_aggregates(self, cluster):
        for i in range(30):
            cluster.set(f"k{i:02d}", b"")
        assert len(cluster.keys()) == 30

    def test_cross_shard_rename(self, cluster):
        cluster.set("aaa", b"payload")
        cluster.rename("aaa", "zzzzzz")
        assert cluster.get("zzzzzz") == b"payload"
        with pytest.raises(KeyNotFound):
            cluster.get("aaa")

    def test_needs_addresses(self):
        with pytest.raises(StoreError):
            NetKVCluster([])


class TestNetKVStoreAdapter:
    @pytest.fixture
    def store(self):
        servers = [NetKVServer().start() for _ in range(2)]
        store = NetKVStore.connect([s.address for s in servers])
        yield store
        store.close()
        for s in servers:
            s.stop()

    def test_datastore_contract_basics(self, store):
        store.write("a/b", b"hello")
        assert store.read("a/b") == b"hello"
        assert store.exists("a/b")
        store.move("a/b", "done/b")
        assert store.keys("done/") == ["done/b"]
        store.delete("done/b")
        assert store.keys() == []

    def test_npz_payloads_over_the_wire(self, store):
        import numpy as np

        store.write_npz("arr", {"x": np.arange(100)})
        back = store.read_npz("arr")
        np.testing.assert_array_equal(back["x"], np.arange(100))

    def test_feedback_manager_works_over_tcp(self, store):
        """The real CG->continuum feedback path against real sockets."""
        import numpy as np

        from repro.app.feedback import CGToContinuumFeedback
        from repro.sims.cg.analysis import RDFResult
        from repro.sims.continuum.ddft import ContinuumConfig, ContinuumSim

        cont = ContinuumSim(ContinuumConfig(grid=16, n_inner=2, n_outer=2,
                                            n_proteins=2, dt=0.25, seed=0))
        edges = np.linspace(0, 3, 11)
        g = np.ones((2, 10)); g[0, :3] = 3.0
        for i in range(10):
            store.write(f"rdf/live/f{i}",
                        RDFResult(f"cg{i}", 1.0, edges, g).to_bytes())
        mgr = CGToContinuumFeedback(store, cont)
        rep = mgr.run_iteration()
        assert rep.n_items == 10
        assert cont.coupling_version == 1
        assert store.keys("rdf/live/") == []


class TestShutdown:
    def test_shutdown_command_stops_server(self):
        srv = NetKVServer().start()
        with socket.create_connection(srv.address, timeout=2.0) as sock:
            sock.sendall(b"SHUTDOWN\n")
        # The listener should go away; a fresh connect eventually fails.
        deadline = time.time() + 5
        refused = False
        while time.time() < deadline:
            try:
                probe = socket.create_connection(srv.address, timeout=0.2)
                probe.close()
                time.sleep(0.05)
            except OSError:
                refused = True
                break
        assert refused

    def test_stop_severs_connections_and_joins_loop(self):
        """``stop()`` must sever live connections and join the loop thread.

        The server runs one loop thread per shard; stop() awaits
        in-flight serve tasks (acked writes are fully applied), aborts
        the transports, and joins the loop — a "stopped" shard must not
        keep serving.
        """
        srv = NetKVServer().start()
        client = AsyncClientChannel(srv.address, TransportConfig())
        client.set("k", b"v")  # opens a persistent connection
        with srv._conn_lock:
            conns = list(srv._conns)
        assert conns, "connection was not tracked"
        loop_thread = srv._loop_thread
        assert loop_thread is not None and loop_thread.is_alive()
        srv.stop()
        assert not loop_thread.is_alive()  # loop thread joined
        assert srv.connection_count() == 0  # live connections severed
        client.close()
