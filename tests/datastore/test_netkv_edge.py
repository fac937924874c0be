"""Edge-case tests for the networked KV protocol."""

import pytest

from repro.datastore.aio import AsyncClientChannel
from repro.datastore.base import KeyNotFound
from repro.datastore.netkv import NetKVServer, TransportConfig


@pytest.fixture
def client():
    srv = NetKVServer().start()
    c = AsyncClientChannel(srv.address, TransportConfig())
    yield c
    c.close()
    srv.stop()


class TestLargePayloads:
    def test_megabyte_payload(self, client):
        blob = bytes(range(256)) * 4096  # 1 MiB
        client.set("big", blob)
        assert client.get("big") == blob

    def test_many_small_then_large(self, client):
        for i in range(100):
            client.set(f"s{i}", b"x" * i)
        client.set("big", b"y" * 500_000)
        assert client.get("s50") == b"x" * 50
        assert len(client.get("big")) == 500_000


class TestProtocolRobustness:
    def test_keys_with_slashes_and_dots(self, client):
        client.set("a/b.c/d-e_f", b"v")
        assert client.get("a/b.c/d-e_f") == b"v"

    def test_rename_to_missing_dst_namespace(self, client):
        client.set("x", b"v")
        client.rename("x", "deep/nested/name")
        assert client.get("deep/nested/name") == b"v"

    def test_error_then_normal_operation(self, client):
        # A failed op must not poison the connection.
        with pytest.raises(KeyNotFound):
            client.get("missing")
        client.set("after", b"ok")
        assert client.get("after") == b"ok"

    def test_interleaved_errors_and_payloads(self, client):
        for i in range(20):
            if i % 3 == 0:
                with pytest.raises(KeyNotFound):
                    client.get(f"never-{i}")
            else:
                client.set(f"k{i}", bytes([i]) * 10)
                assert client.get(f"k{i}") == bytes([i]) * 10
