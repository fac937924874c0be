"""Wire-protocol hardening tests: hand-rolled frames against the server.

These talk raw TCP, not through a client channel, because the bugs
they pin down (desync after a malformed SET header, spinning on blank
lines, unbounded headers) can only be produced by a misbehaving peer.
"""

import socket
import threading

import pytest

from repro.datastore.aio import AsyncClientChannel
from repro.datastore.base import StoreError
from repro.datastore.netkv import NetKVServer, TransportConfig, WireProtocolError


@pytest.fixture
def server():
    srv = NetKVServer().start()
    yield srv
    srv.stop()


def raw_exchange(address, data, timeout=2.0):
    """Send bytes, then read until the server closes or goes quiet.

    Returns (response_bytes, closed) where ``closed`` is True when the
    server hung up (EOF) rather than leaving the connection open.
    """
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(data)
        chunks = []
        closed = False
        sock.settimeout(0.5)
        while True:
            try:
                chunk = sock.recv(4096)
            except socket.timeout:
                break
            if not chunk:
                closed = True
                break
            chunks.append(chunk)
        return b"".join(chunks), closed


class TestSetHeaderDesync:
    def test_non_integer_length_errs_and_closes(self, server):
        # Before the fix the payload bytes were parsed as the next
        # header; now the connection gets one ERR and is closed.
        resp, closed = raw_exchange(server.address,
                                    b"SET k notanint\nPAYLOADBYTES")
        assert resp.startswith(b"ERR ")
        assert resp.count(b"ERR") == 1  # payload was NOT parsed as a header
        assert closed

    def test_negative_length_errs_and_closes(self, server):
        resp, closed = raw_exchange(server.address, b"SET k -5\n")
        assert resp.startswith(b"ERR ")
        assert closed

    def test_absurd_length_errs_and_closes(self, server):
        resp, closed = raw_exchange(server.address,
                                    b"SET k 999999999999999\n")
        assert resp.startswith(b"ERR ")
        assert closed

    def test_missing_length_errs_and_closes(self, server):
        resp, closed = raw_exchange(server.address, b"SET keyonly\n")
        assert resp.startswith(b"ERR ")
        assert closed

    def test_server_survives_malformed_set(self, server):
        raw_exchange(server.address, b"SET k notanint\nJUNK")
        client = AsyncClientChannel(server.address, TransportConfig())
        client.set("k", b"clean")
        assert client.get("k") == b"clean"
        assert len(client) == 1  # no junk keys leaked into the backend
        client.close()


class TestEmptyHeader:
    def test_blank_line_is_a_protocol_error(self, server):
        # Before the fix `if not header: continue` re-read blank lines
        # forever; now the first one draws ERR and a hangup.
        resp, closed = raw_exchange(server.address, b"\n\n\n")
        assert resp.startswith(b"ERR ")
        assert closed

    def test_server_usable_after_blank_line_peer(self, server):
        raw_exchange(server.address, b"\n")
        client = AsyncClientChannel(server.address, TransportConfig())
        assert client.ping()
        client.close()


class TestOversizedHeader:
    def test_header_without_newline_is_bounded(self, server):
        resp, closed = raw_exchange(server.address, b"X" * 100_000)
        assert resp.startswith(b"ERR ")
        assert closed

    def test_huge_header_with_newline_is_rejected(self, server):
        resp, closed = raw_exchange(server.address,
                                    b"GET " + b"k" * 8192 + b"\n")
        assert resp.startswith(b"ERR ")
        assert closed


class TestPayloadEdges:
    def test_zero_length_payload_roundtrip(self, server):
        resp, _ = raw_exchange(server.address, b"SET empty 0\nGET empty\n")
        assert resp == b"OK 0\nOK 0\n"

    def test_non_utf8_header_errs(self, server):
        resp, closed = raw_exchange(server.address, b"GET \xff\xfe\n")
        assert resp.startswith(b"ERR ")
        assert closed


class TestReservedKeyBytes:
    """Keys carrying the KEYS separator or header whitespace must be
    rejected at SET time — otherwise a later KEYS reply would split at
    the wrong place (the ``\\x00`` separator edge case)."""

    def test_client_rejects_nul_key(self, server):
        client = AsyncClientChannel(server.address, TransportConfig())
        with pytest.raises(WireProtocolError):
            client.set("bad\x00key", b"v")
        client.close()

    def test_client_rejects_space_key(self, server):
        client = AsyncClientChannel(server.address, TransportConfig())
        with pytest.raises(WireProtocolError):
            client.set("bad key", b"v")
        with pytest.raises(WireProtocolError):
            client.rename("ok", "bad key")
        client.close()

    def test_server_rejects_nul_key_from_raw_peer(self, server):
        resp, _ = raw_exchange(server.address, b"SET a\x00b 1\nx")
        assert resp.startswith(b"ERR ")
        client = AsyncClientChannel(server.address, TransportConfig())
        assert client.keys() == []  # nothing leaked past the separator guard
        client.close()

    def test_keys_listing_stays_parseable(self, server):
        client = AsyncClientChannel(server.address, TransportConfig())
        for name in ("a", "b/c", "d-e_f.g"):
            client.set(name, b"v")
        assert client.keys() == ["a", "b/c", "d-e_f.g"]
        client.close()


class TestConcurrentClientsOneShard:
    def test_mixed_ops_and_errors_concurrently(self, server):
        """Many clients hammer one shard with interleaved hits, misses,
        and malformed frames; every well-formed op must stay correct."""
        errors = []

        def well_behaved(wid):
            try:
                c = AsyncClientChannel(server.address, TransportConfig())
                for i in range(40):
                    c.set(f"w{wid}/k{i}", f"{wid}:{i}".encode())
                    with pytest.raises(StoreError):
                        c.get(f"w{wid}/missing{i}")
                for i in range(40):
                    assert c.get(f"w{wid}/k{i}") == f"{wid}:{i}".encode()
                c.close()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        def rude(_wid):
            try:
                for _ in range(10):
                    raw_exchange(server.address, b"SET k oops\nXX", timeout=1.0)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=well_behaved, args=(w,)) for w in range(4)]
        threads += [threading.Thread(target=rude, args=(w,)) for w in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        probe = AsyncClientChannel(server.address, TransportConfig())
        assert len(probe) == 160
        probe.close()
