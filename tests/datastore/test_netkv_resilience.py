"""Transport-resilience tests: timeouts, retries, reconnects, faults.

These cover the acceptance criteria of the transport hardening work:
a dead peer raises within a bounded multiple of the configured timeout
instead of hanging, a flapping server is absorbed by retries with zero
data loss, and all of it shows up in the telemetry counters.
"""

import contextlib
import socket
import threading
import time

import numpy as np
import pytest

from repro.datastore.aio import AsyncClientChannel
from repro.datastore.base import StoreUnavailable
from repro.datastore.netkv import (
    NetKVCluster,
    NetKVServer,
    NetKVStore,
    TransportConfig,
)
from repro.util.faults import NetworkFaultInjector
from repro.util.rng import RngStream

FAST = TransportConfig(op_timeout=0.5, connect_timeout=0.5, retries=1,
                       backoff_base=0.01, backoff_max=0.05)
NO_RETRY = TransportConfig(op_timeout=0.5, connect_timeout=0.5, retries=0,
                           backoff_base=0.0, backoff_max=0.0)


@contextlib.contextmanager
def black_hole_server():
    """A listener that accepts and reads but never responds — the shape
    of a server that died mid-response with the connection still up."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    listener.settimeout(0.1)
    stop = threading.Event()

    def drain(conn):
        with contextlib.suppress(OSError):
            while conn.recv(4096):
                pass
        with contextlib.suppress(OSError):
            conn.close()

    def accept_loop():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(target=drain, args=(conn,), daemon=True).start()

    thread = threading.Thread(target=accept_loop, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        stop.set()
        listener.close()
        thread.join(timeout=2)


def free_port_address():
    """An address nothing is listening on (bound then released)."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    return address


class TestDeadPeerTimeouts:
    def test_get_against_silent_server_times_out(self):
        """A GET whose response never comes must raise StoreUnavailable
        within 2x the configured budget, not hang forever."""
        with black_hole_server() as address:
            client = AsyncClientChannel(address, NO_RETRY)
            budget = NO_RETRY.op_timeout
            t0 = time.monotonic()
            with pytest.raises(StoreUnavailable):
                client.get("anything")
            elapsed = time.monotonic() - t0
            assert elapsed < 2 * budget
            assert client.stats.timeouts == 1
            assert client.stats.exhausted == 1
            client.close()

    def test_retries_respect_total_budget(self):
        with black_hole_server() as address:
            client = AsyncClientChannel(address, FAST)
            attempts = FAST.retries + 1
            budget = attempts * (FAST.op_timeout + FAST.backoff_max)
            t0 = time.monotonic()
            with pytest.raises(StoreUnavailable):
                client.get("k")
            assert time.monotonic() - t0 < 2 * budget
            assert client.stats.timeouts == attempts
            client.close()

    def test_connection_refused_is_store_unavailable(self):
        client = AsyncClientChannel(free_port_address(), FAST)
        t0 = time.monotonic()
        with pytest.raises(StoreUnavailable):
            client.ping()
        assert time.monotonic() - t0 < 2 * (FAST.retries + 1) * (
            FAST.connect_timeout + FAST.backoff_max)
        client.close()

    def test_stale_socket_not_reused_after_failure(self):
        with black_hole_server() as address:
            client = AsyncClientChannel(address, NO_RETRY)
            with pytest.raises(StoreUnavailable):
                client.get("k")
            assert client._conn is None  # dropped, not kept for reuse


class TestKillServerMidStream:
    def test_stop_during_session_raises_not_hangs(self):
        server = NetKVServer().start()
        client = AsyncClientChannel(server.address, FAST)
        client.set("k", b"v")
        server.stop()
        t0 = time.monotonic()
        with pytest.raises(StoreUnavailable):
            client.get("k")
        assert time.monotonic() - t0 < 2 * (FAST.retries + 1) * (
            FAST.op_timeout + FAST.backoff_max)
        client.close()

    def test_client_survives_server_restart_on_same_port(self):
        server = NetKVServer().start()
        host, port = server.address
        client = AsyncClientChannel(server.address, TransportConfig(
            op_timeout=0.5, connect_timeout=0.5, retries=4,
            backoff_base=0.05, backoff_max=0.2))
        client.set("before", b"1")
        server.stop()

        # Bound but not listening until the timer fires: the first
        # attempt is refused, so the op has to ride out the restart.
        revived = NetKVServer(host=host, port=port)
        timer = threading.Timer(0.05, revived.start)
        timer.start()
        try:
            # The old connection is dead; the client must drop it, retry
            # through the outage, and reconnect to the revived shard
            # transparently.
            client.set("after", b"2")
            assert client.get("after") == b"2"
            assert client.stats.reconnects >= 1
            assert client.stats.retries >= 1
        finally:
            timer.join()
            client.close()
            revived.stop()


class TestFaultAbsorption:
    def test_cluster_roundtrip_with_dropped_connections(self):
        """Acceptance: with the injector dropping 10% of connections
        (plus mid-request closes to keep connections churning), a full
        cluster workload completes with zero data loss."""
        rng_tree = RngStream(seed=2021)
        servers = [
            NetKVServer(fault_injector=NetworkFaultInjector(
                drop=0.10, close=0.05, rng=rng_tree.child(f"faults-{i}")))
            .start()
            for i in range(3)
        ]
        config = TransportConfig(op_timeout=1.0, connect_timeout=1.0,
                                 retries=8, backoff_base=0.005,
                                 backoff_max=0.05)
        cluster = NetKVCluster([s.address for s in servers], config=config,
                               rng=rng_tree.child("client-jitter"))
        try:
            payloads = {f"frame/{i:04d}": f"data-{i}".encode() * 7
                        for i in range(300)}
            for key, value in payloads.items():
                cluster.set(key, value)
            for key, value in payloads.items():
                assert cluster.get(key) == value  # zero data loss
            assert len(cluster.keys("frame/")) == 300
            injected = sum(s.fault_injector.total_injected() for s in servers)
            assert injected > 0, "injector never fired; test is vacuous"
            assert cluster.stats.retries > 0  # retries absorbed the faults
            assert cluster.stats.exhausted == 0
        finally:
            cluster.close()
            for s in servers:
                s.stop()

    def test_garbage_responses_are_retried(self):
        rng = np.random.default_rng(5)
        server = NetKVServer(fault_injector=NetworkFaultInjector(
            garbage=0.2, rng=rng)).start()
        client = AsyncClientChannel(server.address, TransportConfig(
            op_timeout=1.0, connect_timeout=1.0, retries=10,
            backoff_base=0.001, backoff_max=0.01))
        try:
            for i in range(50):
                client.set(f"g{i}", bytes([i]) * 32)
            for i in range(50):
                assert client.get(f"g{i}") == bytes([i]) * 32
            assert server.fault_injector.injected["garbage"] > 0
            assert client.stats.protocol_errors > 0
        finally:
            client.close()
            server.stop()

    def test_delay_faults_slow_but_complete(self):
        server = NetKVServer(fault_injector=NetworkFaultInjector(
            delay=0.3, delay_seconds=0.01, rng=np.random.default_rng(9))).start()
        client = AsyncClientChannel(server.address, FAST)
        try:
            for i in range(30):
                client.set(f"d{i}", b"x")
            assert len(client) == 30
            assert server.fault_injector.injected["delay"] > 0
        finally:
            client.close()
            server.stop()


class TestFeedbackDegradesGracefully:
    def test_store_outage_skips_iteration_instead_of_crashing(self):
        from repro.core.feedback import FeedbackManager, StoreFeedbackMixin

        class NullFeedback(StoreFeedbackMixin, FeedbackManager):
            def __init__(self, store):
                FeedbackManager.__init__(self)
                StoreFeedbackMixin.__init__(self, store, "live/", "done/")

            def process(self, items):
                return len(items)

            def report(self, result):
                pass

        store = NetKVStore.connect([free_port_address()], config=NO_RETRY)
        mgr = NullFeedback(store)
        rep = mgr.run_iteration(now=1.0)
        assert rep.error  # outage recorded, not raised
        assert rep.n_items == 0
        assert mgr.reports == [rep]
        store.close()


class TestTelemetryIntegration:
    def test_transport_counters_reach_collect_telemetry(self):
        from repro.app.builder import build_application
        from repro.core.telemetry import collect_telemetry, render_report
        from repro.core.wm import WorkflowConfig

        servers = [NetKVServer().start() for _ in range(2)]
        url = "netkv://" + ",".join(f"{h}:{p}" for h, p in
                                    (s.address for s in servers))
        try:
            app = build_application(
                store_url=url,
                workflow=WorkflowConfig(beads_per_type=8, cg_chunks_per_job=2,
                                        cg_steps_per_chunk=10,
                                        aa_chunks_per_job=1,
                                        aa_steps_per_chunk=10, seed=0),
                seed=0,
            )
            app.run(nrounds=1)
            report = collect_telemetry(app.wm)
            assert report.transport["requests"] > 0
            assert report.transport["bytes_sent"] > 0
            for counter in ("retries", "timeouts", "reconnects", "exhausted"):
                assert counter in report.transport
            assert report.transport["latency"]["count"] > 0
            assert "transport:" in render_report(report)
            app.wm.store.close()
        finally:
            for s in servers:
                s.stop()

    def test_in_process_store_reports_no_transport(self):
        from repro.app.builder import build_application
        from repro.core.telemetry import collect_telemetry

        app = build_application(
            store_url="kv://1",
            workflow=None,
            seed=0,
        )
        assert collect_telemetry(app.wm).transport == {}
