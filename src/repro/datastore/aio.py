"""Event-loop transport core for NetKV: framing, server, client channel.

This module is NetKV's one wire transport; :mod:`repro.datastore.netkv`
builds the replicated cluster on top of it (see DESIGN.md, "Event-loop
transport"):

- :class:`ReadBuffer` — zero-copy buffered framing. Incoming chunks are
  appended to one grow-only ``bytearray``; frames are sliced out through
  a ``memoryview`` (one copy per frame, no per-read reallocation) with a
  consumed-offset cursor and lazy compaction.
- :class:`LoopThread` — a dedicated event loop on a daemon thread; the
  sync API submits coroutines via ``run_coroutine_threadsafe``.
- :class:`NetKVServer` — the per-shard event-loop server. One
  ``asyncio.Protocol`` connection per client, a per-connection serve
  task, vectored writes (``transport.writelines``), and backpressure in
  both directions: write-buffer high-water marks gate the serve loop
  (bounded per-connection write queue), and the read buffer pauses the
  transport when a pipelining peer runs ahead of dispatch.
- :class:`AsyncClientChannel` — one coalescing connection per shard.
  Every keyed op is an MGET/MSET/MSETNX/MDEL batch (a single key is a
  one-key batch); ops from many caller threads are queued on the loop,
  and while one round trip is in flight every same-kind op that piles
  up behind it folds into a single frame (the coalescing window is the
  in-flight round trip — no added latency). Its blocking methods are
  the per-shard client surface the cluster's failover/repair machinery
  calls.

Wire-protocol primitives (:class:`WireProtocolError`, key validation,
batch payload packing) live here too. ``netkv`` re-exports
:class:`WireProtocolError`, and the import graph stays acyclic:
``netkv`` imports ``aio``, never the reverse.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import random
import socket
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro import trace
from repro.datastore.base import KeyNotFound, StoreError, StoreUnavailable
from repro.datastore.kvstore import KVServer
from repro.datastore.stats import TransportStats
from repro.datastore.wal import DurabilityConfig, ShardWAL

__all__ = [
    "WireProtocolError",
    "ReadBuffer",
    "LoopThread",
    "NetKVServer",
    "AsyncClientChannel",
]

_MAX_HEADER = 4096

# Unconsumed-byte budget beyond the frame currently being read; above
# it the transport pauses reading (inbound backpressure for pipelining
# peers). Small enough to bound memory, large enough to keep a batch of
# small frames in flight.
_READ_SLACK = 1 << 18

# Per-connection outbound high-water mark: the serve loop (and the
# client channel) won't start another request while more than this many
# response bytes sit unsent (bounded write queue).
_WRITE_HIGH_WATER = 1 << 20

# The serve loop batches responses to a pipelined burst and writes them
# out together once the buffered backlog drains — or at this many
# accumulated bytes, so one huge burst can't sit unsent indefinitely.
_FLUSH_BYTES = 1 << 16


class WireProtocolError(StoreError):
    """A frame violated the wire protocol (bad length, oversized header,
    forbidden key bytes). The connection that produced it is untrusted:
    the peer closes it instead of guessing where the next frame starts."""


def _check_wire_key(key: str) -> str:
    """Reject keys the text protocol cannot carry unambiguously.

    The header is whitespace-split, so keys with spaces would silently
    truncate; NUL would corrupt the KEYS separator; newlines would
    desync framing. Checked on both ends — at the client before bytes
    leave, and at the server against hand-rolled peers.
    """
    if not key:
        raise WireProtocolError("empty key")
    if any(c in key for c in (" ", "\t", "\n", "\r", "\x00")):
        raise WireProtocolError(f"key contains bytes the wire protocol reserves: {key!r}")
    return key


# --- batch (MGET/MSET/MDEL) payload framing ------------------------------
#
# Batch payloads reuse the protocol's length-prefixed style inside one
# frame so a single malformed entry invalidates only its own frame, and
# the outer framing (header + total payload length) stays intact.


def _split_key_payload(payload: bytes) -> List[str]:
    """Keys of an MGET/MDEL payload (NUL-joined; empty payload = no keys)."""
    if not payload:
        return []
    try:
        keys = payload.decode("utf-8").split("\x00")
    except UnicodeDecodeError:
        raise WireProtocolError("batch key payload is not UTF-8") from None
    return [_check_wire_key(k) for k in keys]


def _pack_values(values: List[Optional[bytes]]) -> bytes:
    """MGET response payload: "<n>\\n<bytes>" per value, -1 for missing."""
    parts: List[bytes] = []
    for value in values:
        if value is None:
            parts.append(b"-1\n")
        else:
            parts.append(b"%d\n" % len(value))
            parts.append(value)
    return b"".join(parts)


def _unpack_values(data: bytes, nkeys: int) -> List[Optional[bytes]]:
    """Inverse of :func:`_pack_values`; strict about trailing garbage."""
    out: List[Optional[bytes]] = []
    pos = 0
    for _ in range(nkeys):
        nl = data.find(b"\n", pos)
        if nl == -1:
            raise WireProtocolError("truncated batch value header")
        try:
            n = int(data[pos:nl])
        except ValueError:
            raise WireProtocolError(
                f"batch value length is not an integer: {data[pos:nl]!r}") from None
        pos = nl + 1
        if n < 0:
            out.append(None)
            continue
        if pos + n > len(data):
            raise WireProtocolError("truncated batch value bytes")
        out.append(data[pos:pos + n])
        pos += n
    if pos != len(data):
        raise WireProtocolError("trailing bytes after batch values")
    return out


def _pack_items(items: List[Tuple[str, bytes]]) -> bytes:
    """MSET request payload: repeated "<key> <n>\\n<value bytes>" blocks."""
    parts: List[bytes] = []
    for key, value in items:
        parts.append(f"{_check_wire_key(key)} {len(value)}\n".encode("utf-8"))
        parts.append(value)
    return b"".join(parts)


def _unpack_items(data: bytes, max_payload: int) -> List[Tuple[str, bytes]]:
    """Inverse of :func:`_pack_items`, bounds-checking every block."""
    items: List[Tuple[str, bytes]] = []
    pos = 0
    while pos < len(data):
        nl = data.find(b"\n", pos)
        if nl == -1:
            raise WireProtocolError("truncated batch item header")
        try:
            head = data[pos:nl].decode("utf-8")
        except UnicodeDecodeError:
            raise WireProtocolError("batch item header is not UTF-8") from None
        key, sep, length_text = head.rpartition(" ")
        try:
            n = int(length_text)
        except ValueError:
            raise WireProtocolError(
                f"batch item length is not an integer: {length_text!r}") from None
        if not sep or n < 0 or n > max_payload:
            raise WireProtocolError(f"malformed batch item header: {head!r}")
        pos = nl + 1
        if pos + n > len(data):
            raise WireProtocolError("truncated batch item bytes")
        items.append((_check_wire_key(key), data[pos:pos + n]))
        pos += n
    return items


class ReadBuffer:
    """Grow-only read buffer with memoryview frame extraction.

    ``feed()`` appends network chunks; ``take_line``/``take_exact``
    slice complete frames out through a ``memoryview`` (one copy, no
    intermediate ``del buf[:n]`` per frame) and advance a consumed
    cursor. The consumed prefix is compacted lazily — only once it
    exceeds both 64 KiB and half the buffer — so a burst of small
    pipelined frames costs one reallocation, not one per frame.

    Views never outlive the call: slices are materialized to ``bytes``
    immediately, because a ``bytearray`` with live memoryview exports
    cannot be resized (``BufferError``) by the next ``feed``.
    """

    __slots__ = ("_buf", "_pos")

    _COMPACT_AT = 1 << 16

    def __init__(self) -> None:
        self._buf = bytearray()
        self._pos = 0

    def feed(self, data: bytes) -> None:
        self._buf += data

    def pending(self) -> int:
        """Bytes received but not yet consumed."""
        return len(self._buf) - self._pos

    def _compact(self) -> None:
        pos = self._pos
        if pos >= len(self._buf):
            del self._buf[:]
            self._pos = 0
        elif pos > self._COMPACT_AT and pos * 2 > len(self._buf):
            del self._buf[:pos]
            self._pos = 0

    def take_line(self, limit: int = _MAX_HEADER) -> Optional[bytes]:
        """A complete line without its newline, or None if not yet fed.

        Raises :class:`WireProtocolError` once the pending line exceeds
        ``limit`` bytes, newline or not — the stream can no longer be
        framed.
        """
        idx = self._buf.find(b"\n", self._pos)
        if idx < 0:
            if self.pending() > limit:
                raise WireProtocolError(f"header exceeds {limit} bytes")
            return None
        if idx - self._pos > limit:
            raise WireProtocolError(f"header exceeds {limit} bytes")
        with memoryview(self._buf) as view:
            line = bytes(view[self._pos:idx])
        self._pos = idx + 1
        self._compact()
        return line

    def take_exact(self, n: int) -> Optional[bytes]:
        """Exactly ``n`` consumed bytes, or None until enough are fed."""
        if self.pending() < n:
            return None
        with memoryview(self._buf) as view:
            data = bytes(view[self._pos:self._pos + n])
        self._pos += n
        self._compact()
        return data


class LoopThread:
    """One asyncio event loop running on a dedicated daemon thread.

    The sync facades hand coroutines over with
    ``run_coroutine_threadsafe`` and block on the returned future; the
    loop itself never blocks on application code.
    """

    def __init__(self, name: str = "repro-aio") -> None:
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main, name=name, daemon=True)
        self._thread.start()
        self._ready.wait()

    def _main(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.call_soon(self._ready.set)
        try:
            self.loop.run_forever()
        finally:
            try:
                pending = asyncio.all_tasks(self.loop)
                for task in pending:
                    task.cancel()
                # Always run one more pass, even with no tasks left: a
                # transport aborted just before stop() closes its socket
                # in a callback, which would otherwise never run.
                self.loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            except Exception:
                pass
            self.loop.close()

    def is_alive(self) -> bool:
        return self._thread.is_alive()

    def submit(self, coro) -> concurrent.futures.Future:
        """Schedule ``coro`` on the loop; returns a concurrent Future."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def run(self, coro, timeout: Optional[float] = None):
        """Run ``coro`` on the loop and block for its result."""
        return self.submit(coro).result(timeout)

    def call_soon(self, fn: Callable, *args) -> None:
        self.loop.call_soon_threadsafe(fn, *args)

    def stop(self, join_timeout: float = 5.0) -> None:
        if self._thread.is_alive():
            try:
                self.loop.call_soon_threadsafe(self.loop.stop)
            except RuntimeError:
                pass
            self._thread.join(join_timeout)


class _BufferedProtocol(asyncio.Protocol):
    """Shared connection machinery: buffered reads + flow-control gates.

    Read side: chunks land in a :class:`ReadBuffer`; ``read_line`` /
    ``read_exact`` await a wake event until a full frame is buffered.
    When a peer pipelines far ahead of consumption the transport pauses
    reading (``_READ_SLACK`` beyond the frame currently awaited).

    Write side: the transport's write-buffer high-water mark drives
    ``pause_writing``/``resume_writing`` into a ``_writable`` event the
    owner awaits before starting more work — the bounded per-connection
    write queue.
    """

    def __init__(self) -> None:
        self.buf = ReadBuffer()
        self.transport: Any = None
        self._eof = False
        self._paused_reading = False
        self._need = 0
        self._wake = asyncio.Event()
        self._writable = asyncio.Event()
        self._writable.set()

    def connection_made(self, transport) -> None:
        self.transport = transport
        try:
            transport.set_write_buffer_limits(high=_WRITE_HIGH_WATER)
        except (AttributeError, RuntimeError):
            pass

    def data_received(self, data: bytes) -> None:
        self.buf.feed(data)
        if not self._paused_reading and self.buf.pending() > self._need + _READ_SLACK:
            try:
                self.transport.pause_reading()
                self._paused_reading = True
            except RuntimeError:
                pass
        self._wake.set()

    def eof_received(self) -> Optional[bool]:
        self._eof = True
        self._wake.set()
        return False  # close our side too

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._eof = True
        self._wake.set()
        self._writable.set()  # unblock a serve loop parked on backpressure

    def pause_writing(self) -> None:
        self._writable.clear()

    def resume_writing(self) -> None:
        self._writable.set()

    def _resume_if_starved(self) -> None:
        if self._paused_reading and self.buf.pending() <= self._need + _READ_SLACK:
            self._paused_reading = False
            try:
                self.transport.resume_reading()
            except RuntimeError:
                pass

    async def read_line(self, limit: int = _MAX_HEADER) -> bytes:
        while True:
            line = self.buf.take_line(limit)
            if line is not None:
                self._resume_if_starved()
                return line
            if self._eof:
                raise ConnectionError("connection closed mid-frame")
            self._resume_if_starved()
            self._wake.clear()
            await self._wake.wait()

    async def read_exact(self, n: int) -> bytes:
        self._need = n
        try:
            while True:
                data = self.buf.take_exact(n)
                if data is not None:
                    return data
                if self._eof:
                    raise ConnectionError("connection closed mid-frame")
                self._resume_if_starved()
                self._wake.clear()
                await self._wake.wait()
        finally:
            self._need = 0
            self._resume_if_starved()


# --- server side ----------------------------------------------------------


def _payload_length(cmd: str, args: List[str], max_payload: int) -> Tuple[int, List[str]]:
    """Parse a payload-carrying command's byte length (the last header
    arg) or raise :class:`WireProtocolError`."""
    min_args = 2 if cmd == "SET" else 1  # SET also carries its key
    if len(args) < min_args:
        raise WireProtocolError(f"{cmd} header is missing arguments")
    try:
        length = int(args[-1])
    except ValueError:
        raise WireProtocolError(
            f"{cmd} length is not an integer: {args[-1]!r}") from None
    if length < 0 or length > max_payload:
        raise WireProtocolError(f"{cmd} length out of range: {length}")
    return length, args[:-1]


# Commands whose responses must wait on the WAL group commit before
# they reach the wire (ack-after-fsync). GET-family commands are absent:
# a read-only burst never waits on another connection's fsync.
_MUTATING = frozenset({"SET", "DEL", "RENAME", "MSET", "MSETNX", "MDEL",
                       "FLUSH"})


def _dispatch(server: "NetKVServer", cmd: str, args: List[str],
              payload: bytes) -> Optional[bytes]:
    store = server.backend
    wal = server.wal
    with server.lock:
        if cmd == "PING":
            return b"PONG"
        if cmd == "SET":
            key = _check_wire_key(args[0])
            store.set(key, payload)
            if wal is not None:
                wal.append_set(key, payload)
            return b""
        if cmd == "GET":
            return store.get(args[0])
        if cmd == "DEL":
            store.delete(args[0])
            if wal is not None:
                # Deletes are logged too: a replayed shard must not
                # resurrect a key whose removal was acked.
                wal.append_delete(args[0])
            return b""
        if cmd == "KEYS":
            prefix = args[0] if args else ""
            return "\x00".join(sorted(store.scan(prefix))).encode("utf-8")
        if cmd == "RENAME":
            dst = _check_wire_key(args[1])
            store.rename(args[0], dst)
            if wal is not None:
                wal.append_rename(args[0], dst)
            return b""
        if cmd == "MGET":
            return _pack_values(store.mget(_split_key_payload(payload)))
        if cmd == "MSET":
            items = _unpack_items(payload, server.max_payload)
            n = store.mset(items)
            if wal is not None:
                for key, value in items:
                    wal.append_set(key, value)
            return str(n).encode("utf-8")
        if cmd == "MSETNX":
            items = _unpack_items(payload, server.max_payload)
            flags = store.msetnx(items)
            if wal is not None:
                for (key, value), stored in zip(items, flags):
                    if stored:
                        wal.append_set(key, value)
            return b"".join(b"1" if f else b"0" for f in flags)
        if cmd == "MDEL":
            keys = _split_key_payload(payload)
            flags = store.mdelete(keys)
            if wal is not None:
                for key, existed in zip(keys, flags):
                    if existed:
                        wal.append_delete(key)
            return b"".join(b"1" if f else b"0" for f in flags)
        if cmd == "LEN":
            return str(len(store)).encode("utf-8")
        if cmd == "FLUSH":
            store.flush()
            if wal is not None:
                wal.append_flush()
            return b""
        if cmd == "SHUTDOWN":
            threading.Thread(target=server.stop, daemon=True).start()
            return None
        raise StoreError(f"unknown command {cmd!r}")


class _ServerConnection(_BufferedProtocol):
    """One accepted connection: a serve task looping request→response.

    Error discipline: framing violations get one ERR frame and a close
    (after a malformed SET header the payload boundary is unknowable —
    continuing would parse payload bytes as the next header);
    application errors get an ERR frame and the connection continues;
    KeyNotFound is ``NF``.
    """

    def __init__(self, owner: "NetKVServer") -> None:
        super().__init__()
        self.owner = owner
        self.task: Optional[asyncio.Task] = None

    def connection_made(self, transport) -> None:
        super().connection_made(transport)
        injector = self.owner.fault_injector
        if injector is not None and injector.connection_fate() == "drop":
            transport.close()  # close before reading anything
            return
        if not self.owner._register(self):
            transport.close()  # stopping, or at max_connections
            return
        self.task = asyncio.get_running_loop().create_task(self._serve())

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        self.owner._unregister(self)

    def _err_close(self, msg: str) -> None:
        try:
            self.transport.write(f"ERR {msg}\n".encode("utf-8", "replace"))
            self.transport.close()
        except Exception:
            pass

    async def _serve(self) -> None:  # noqa: C901 - a protocol switch is a switch
        owner = self.owner
        injector = owner.fault_injector
        transport = self.transport
        # Responses for a pipelined burst accumulate here and reach the
        # socket in one vectored write when the buffered request backlog
        # drains (or every _FLUSH_BYTES): one syscall per burst instead
        # of one per response.
        out: List[bytes] = []
        out_bytes = 0
        wal = owner.wal
        # Highest WAL sequence this connection's unsent responses depend
        # on. Flushing awaits the group commit up to exactly that point,
        # so read-only bursts (and connections that didn't mutate) never
        # wait on someone else's fsync.
        wal_need = 0

        async def flush() -> None:
            nonlocal out_bytes, wal_need
            if wal is not None and wal_need > wal.synced_seq:
                await wal.commit(wal_need)
            wal_need = 0
            if out:
                transport.writelines(out)
                out.clear()
                out_bytes = 0

        try:
            while True:
                # Bounded write queue: don't take another request while
                # the previous responses haven't drained past the
                # transport's high-water mark.
                if not self._writable.is_set():
                    await self._writable.wait()
                if transport.is_closing():
                    return
                try:
                    header = self.buf.take_line()
                    if header is None:
                        await flush()  # the burst is fully answered; park
                        header = await self.read_line()
                except ConnectionError:
                    return  # client went away
                except WireProtocolError as exc:
                    await flush()
                    self._err_close(str(exc))
                    return
                if not header:
                    # A blank line cannot start a request.
                    await flush()
                    self._err_close("empty header")
                    return
                fate = injector.request_fate() if injector is not None else None
                seconds = 0.0
                if fate == "delay":
                    # The sleep awaits outside any span: spans are
                    # thread-local and every connection shares this loop
                    # thread — an await inside one would interleave other
                    # connections' spans into its subtree.
                    seconds = injector.delay_duration()
                    await flush()
                    await asyncio.sleep(seconds)
                elif fate == "close":
                    with trace.span("netkv.handle") as sp:
                        if sp:
                            sp.event("fault", fate="close")
                    await flush()
                    transport.close()
                    return
                elif fate == "garbage":
                    with trace.span("netkv.handle") as sp:
                        if sp:
                            sp.event("fault", fate="garbage")
                    await flush()
                    try:
                        transport.write(injector.garbage_payload())
                    except Exception:
                        pass
                    transport.close()
                    return
                try:
                    parts = header.decode("utf-8").split()
                except UnicodeDecodeError:
                    self._err_close("header is not UTF-8")
                    return
                cmd, args = parts[0].upper(), parts[1:]
                payload = b""
                try:
                    if cmd in ("SET", "MGET", "MSET", "MSETNX", "MDEL"):
                        length, args = _payload_length(cmd, args, owner.max_payload)
                        body = self.buf.take_exact(length)
                        if body is None:
                            await flush()
                            body = await self.read_exact(length)
                        payload = body
                except WireProtocolError as exc:
                    # Framing is broken (bad length field, oversized
                    # payload): the bytes that follow cannot be trusted
                    # as a header.
                    await flush()
                    self._err_close(str(exc))
                    return
                except ConnectionError:
                    return
                if cmd == "SNAPSHOT":
                    # Needs awaits (items copy + freeze under the
                    # dispatch lock, file write on an executor), so it
                    # cannot run inside _dispatch or the span below.
                    try:
                        snap = await owner.compact(force=True)
                        body = owner.wal.info()
                        body["keys"] = snap["keys"]
                        response = json.dumps(
                            body, sort_keys=True).encode("utf-8")
                        hdr = b"OK %d\n" % len(response)
                        out.append(hdr)
                        out.append(response)
                        out_bytes += len(hdr) + len(response)
                    except Exception as exc:
                        msg = str(exc).replace("\n", " ")[:500]
                        out.append(f"ERR {msg}\n".encode("utf-8"))
                        out_bytes += len(out[-1])
                    if out_bytes >= _FLUSH_BYTES:
                        await flush()
                    continue
                # Dispatch and respond synchronously inside the span —
                # no awaits, so the thread-local span stack stays
                # well-nested across the connections multiplexed here.
                with trace.span("netkv.handle") as sp:
                    if sp:
                        sp.set(cmd=cmd)
                        if fate == "delay":
                            sp.event("fault", fate="delay", seconds=seconds)
                    try:
                        response = _dispatch(owner, cmd, args, payload)
                    except KeyNotFound:
                        out.append(b"NF\n")
                        out_bytes += 3
                        continue
                    except WireProtocolError as exc:
                        await flush()
                        self._err_close(str(exc))
                        return
                    except Exception as exc:  # application errors → ERR frames
                        msg = str(exc).replace("\n", " ")[:500]
                        out.append(f"ERR {msg}\n".encode("utf-8"))
                        out_bytes += len(out[-1])
                        continue
                    if response is None:
                        await flush()
                        transport.close()
                        return  # SHUTDOWN
                    hdr = b"OK %d\n" % len(response)
                    out.append(hdr)
                    out.append(response)
                    out_bytes += len(hdr) + len(response)
                    compact_due = False
                    if wal is not None and cmd in _MUTATING:
                        # The burst's responses now depend on the log
                        # up to here; flush() will group-commit first.
                        wal_need = wal.seq
                        compact_due = wal.needs_compaction()
                if compact_due:
                    # Awaited outside the span (spans are thread-local;
                    # see above).  The heavy snapshot write runs on an
                    # executor, so the loop keeps serving other
                    # connections while this one waits.
                    try:
                        await owner.compact()
                    except StoreError:
                        pass  # a racing SNAPSHOT/compaction got there
                if out_bytes >= _FLUSH_BYTES:
                    await flush()
        except asyncio.CancelledError:
            raise
        except Exception:
            try:
                transport.close()
            except Exception:
                pass


class NetKVServer:
    """One networked shard wrapping an in-memory
    :class:`~repro.datastore.kvstore.KVServer`.

    One dedicated loop thread per shard, one protocol object (not one
    thread) per connection, zero-copy buffered framing, and write-queue
    backpressure. The listening socket is bound in the constructor so
    ``address`` is available before ``start()`` (and a restart can
    rebind the same port); ``start()`` spins the shard's
    :class:`LoopThread` and begins accepting. ``fault_injector`` plugs a
    :class:`~repro.util.faults.NetworkFaultInjector` into the accept
    and request paths for degraded-network testing; ``persist_dir``
    makes the shard durable (see OPERATIONS.md).

    ``max_connections`` caps concurrently served connections: excess
    accepts are closed immediately (documented in OPERATIONS.md for
    ``repro netkv --serve``). With the default ``None`` the shard takes
    what the event loop can hold — 10k+ connections cost one protocol
    object each, not one thread each.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 fault_injector=None,
                 max_payload: int = 256 * 1024 * 1024,
                 max_connections: Optional[int] = None,
                 backlog: int = 4096,
                 persist_dir: Optional[str] = None,
                 durability: Optional[DurabilityConfig] = None) -> None:
        self.backend = KVServer()
        self.wal: Optional[ShardWAL] = None
        if persist_dir is not None:
            # Recovery happens here, before the port accepts anything:
            # snapshot load + WAL replay (torn tail truncated), so the
            # first request already sees every previously acked write.
            self.wal = ShardWAL(persist_dir, durability)
            self.backend._data.update(self.wal.recovered)
        self.lock = threading.Lock()
        self.fault_injector = fault_injector
        self.max_payload = max_payload
        self.max_connections = max_connections
        self._backlog = backlog
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        self._listen_sock = sock
        self._address: Tuple[str, int] = sock.getsockname()
        self._loop_thread: Optional[LoopThread] = None
        self._snap_lock: Optional[asyncio.Lock] = None
        self._aserver: Optional[asyncio.AbstractServer] = None
        self._conns: set = set()
        self._conn_lock = threading.Lock()
        self._stop_lock = threading.Lock()
        self._stopping = False

    @property
    def address(self) -> Tuple[str, int]:
        return self._address

    def _register(self, conn: _ServerConnection) -> bool:
        with self._conn_lock:
            if self._stopping:
                return False
            if (self.max_connections is not None
                    and len(self._conns) >= self.max_connections):
                return False
            self._conns.add(conn)
            return True

    def _unregister(self, conn: _ServerConnection) -> None:
        with self._conn_lock:
            self._conns.discard(conn)

    def connection_count(self) -> int:
        with self._conn_lock:
            return len(self._conns)

    def start(self) -> "NetKVServer":
        with self._stop_lock:
            if self._stopping:
                raise StoreError("server was stopped; create a new one")
            if self._loop_thread is not None:
                return self  # already started
            self._loop_thread = LoopThread(
                name=f"netkv-shard:{self._address[1]}")
        self._aserver = self._loop_thread.run(self._open())
        return self

    async def _open(self) -> asyncio.AbstractServer:
        loop = asyncio.get_running_loop()
        self._snap_lock = asyncio.Lock()
        return await loop.create_server(
            lambda: _ServerConnection(self), sock=self._listen_sock,
            backlog=self._backlog, start_serving=True)

    async def compact(self, force: bool = False) -> Dict[str, object]:
        """Snapshot + compact the WAL without stalling the loop.

        The key-space copy and the log freeze happen together under the
        dispatch lock (cheap: the freeze is two renames), then the
        snapshot write + fsync runs on an executor while the loop keeps
        serving — the WAL's own file lock holds group commits off until
        the snapshot lands, and commit waiters poll rather than pile
        writes into an ambiguous file.  With ``force=False`` the call
        is a no-op unless the log has outgrown ``compact_bytes``, so
        concurrent triggers collapse into one snapshot.
        """
        if self.wal is None:
            raise StoreError("shard has no persistence configured")
        if self._snap_lock is None:
            raise StoreError("server is not running")
        async with self._snap_lock:
            with self.lock:
                if not force and not self.wal.needs_compaction():
                    return {"keys": len(self.backend),
                            "snapshots": self.wal.snapshots,
                            "wal_bytes": self.wal.wal_bytes}
                items = list(self.backend.items())
                self.wal.begin_snapshot()
            return await asyncio.get_running_loop().run_in_executor(
                None, self.wal.write_snapshot, items)

    def stop(self, join_timeout: float = 5.0) -> None:
        """Stop accepting, sever live connections, and join the loop.

        Severing matters for restart semantics: connections on a
        "stopped" shard must not keep serving (the resilience tests
        revive shards at the same address). In-flight serve tasks are
        awaited (bounded by ``join_timeout``) so an acked write is
        fully applied before the loop thread dies.
        """
        with self._stop_lock:
            if self._stopping:
                return
            self._stopping = True
            lt = self._loop_thread
        if lt is None:  # never started: just release the port
            try:
                self._listen_sock.close()
            except OSError:
                pass
            if self.wal is not None:
                self.wal.close()
            return
        try:
            lt.run(self._shutdown(join_timeout), timeout=join_timeout + 5.0)
        except Exception:
            pass
        lt.stop(join_timeout)
        if self.wal is not None:
            # The loop is down; one last synchronous flush catches
            # records whose group commit hadn't fired yet (their
            # responses were never sent, but replaying them is free).
            self.wal.close()

    async def _shutdown(self, join_timeout: float) -> None:
        if self._aserver is not None:
            self._aserver.close()
            try:
                await self._aserver.wait_closed()
            except Exception:
                pass
        with self._conn_lock:
            conns = list(self._conns)
            self._conns.clear()
        tasks = [c.task for c in conns if c.task is not None]
        for conn in conns:
            try:
                conn.transport.abort()
            except Exception:
                pass
        if tasks:
            done, pending = await asyncio.wait(tasks, timeout=join_timeout)
            for task in pending:
                task.cancel()

    def __enter__(self) -> "NetKVServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# --- client side ----------------------------------------------------------


class _Op:
    """One queued client operation awaiting its round trip.

    ``span`` is the submitting thread's open trace span (or None): the
    retry ladder runs on the loop thread where that span is not on the
    thread-local stack, so retry/exhausted events are attached to the
    captured span object directly — the store op that pays for a retry
    records it.
    """

    __slots__ = ("kind", "arg", "fut", "span")

    def __init__(self, kind: str, arg, fut: concurrent.futures.Future,
                 span=None) -> None:
        self.kind = kind
        self.arg = arg
        self.fut = fut
        self.span = span


# Batch ops carry ``(payload, nkeys)``; queued same-kind ones fold into
# one frame.
_BATCH_KINDS = frozenset({"MGET", "MSET", "MSETNX", "MDEL"})


def _note_event(spans, name: str, **attrs) -> None:
    """Record a transport event on every waiting caller's span."""
    for sp in spans:
        if sp is not None:
            sp.event(name, **attrs)


class AsyncClientChannel:
    """Coalescing sync-facade connection to one shard.

    Caller threads enqueue ops onto the channel's event loop and block
    on a future; a drainer task executes the queue over one connection.
    Every keyed op is a batch (MGET/MSET/MSETNX/MDEL; ``get``, ``set``
    and ``delete`` submit one-key batches). When several same-kind batch
    ops are queued (they piled up while the previous round trip was in
    flight), the drainer folds the longest same-kind prefix run, up to
    ``batch_keys`` keys, into one frame and splits the reply back by
    each op's key count — concurrency converts into pipeline depth
    instead of per-op round trips. FIFO order across kinds is
    preserved, and a caller's program order is preserved because it
    blocks per op. Keys are checked before anything is queued, so a key
    with bytes the wire reserves raises :class:`WireProtocolError` at
    the call.

    The connection is opened lazily and re-opened transparently:
    timeouts, connection failures, and protocol violations drop the
    connection, wait out a jittered capped-exponential backoff
    (``config``, a :class:`~repro.datastore.netkv.TransportConfig`),
    and re-attempt on a fresh connection until the budget is spent
    (→ StoreUnavailable). Application outcomes (NF → KeyNotFound,
    ERR → StoreError) are never retried.

    Retries make every operation at-least-once: MSET/MGET/RENAME are
    idempotent, but an MDEL whose response was lost can report a key as
    absent (``delete`` raises :class:`KeyNotFound`) on the re-attempt
    even though the key was removed (see DESIGN.md, "Transport failure
    semantics").

    ``loop_thread`` is a :class:`LoopThread` or a callable returning
    one (a cluster shares its loop across channels); without it the
    channel starts, and on :meth:`close` stops, a loop of its own.
    """

    def __init__(self, address: Tuple[str, int], config,
                 stats: Optional[TransportStats] = None,
                 loop_thread: Union[LoopThread, Callable[[], LoopThread], None] = None,
                 rng=None) -> None:
        self.address = (str(address[0]), int(address[1]))
        self.config = config
        self.stats = stats if stats is not None else TransportStats()
        self._loop_source = loop_thread
        self._lt: Optional[LoopThread] = None
        self._owns_loop = False
        self._loop_lock = threading.Lock()
        self._rng = rng if rng is not None else random.Random(0x5EED)
        # Cross-thread handoff: submitters append under a plain lock and
        # only the append that finds no wakeup in flight pays the
        # ``call_soon_threadsafe`` (one self-pipe write + handle); under
        # concurrency one pump drains many submissions, which is most
        # of the facade's per-op cost on a busy channel.
        self._pending: deque = deque()
        self._pending_lock = threading.Lock()
        self._wake_scheduled = False
        # Loop-thread-only state:
        self._queue: deque = deque()
        self._drainer: Optional[asyncio.Task] = None
        self._conn: Optional[_BufferedProtocol] = None
        self._ever_connected = False
        self._closed = False
        self._spans: tuple = ()  # caller spans of the ops now on the wire
        # An op can wait behind a full retry ladder; anything past this
        # means the loop lost it — surface StoreUnavailable, not a hang.
        cfg = self.config
        self._deadline = (cfg.retries + 1) * (
            cfg.op_timeout + cfg.connect_timeout + cfg.backoff_max) + 60.0

    # --- loop + queue plumbing -------------------------------------------

    def _ensure_loop(self) -> LoopThread:
        with self._loop_lock:
            if self._lt is not None and self._lt.is_alive():
                return self._lt
            source = self._loop_source
            if callable(source):
                self._lt = source()
            elif source is not None:
                self._lt = source
            else:
                self._lt = LoopThread(name=f"netkv-chan:{self.address[1]}")
                self._owns_loop = True
            return self._lt

    def _submit(self, kind: str, arg=None):
        if self._closed:
            raise StoreUnavailable(f"channel to {self.address} is closed")
        lt = self._ensure_loop()
        op = _Op(kind, arg, concurrent.futures.Future(),
                 span=trace.current_span())
        with self._pending_lock:
            self._pending.append(op)
            wake = not self._wake_scheduled
            if wake:
                self._wake_scheduled = True
        if wake:
            try:
                lt.loop.call_soon_threadsafe(self._pump)
            except RuntimeError as exc:  # loop already closed
                self._fail_pending(StoreUnavailable(
                    f"transport loop for {self.address} is gone"))
                raise StoreUnavailable(
                    f"transport loop for {self.address} is gone") from exc
        try:
            return op.fut.result(timeout=self._deadline)
        except concurrent.futures.TimeoutError:
            raise StoreUnavailable(
                f"{kind} against {self.address[0]}:{self.address[1]} "
                f"stalled past {self._deadline:.1f}s") from None

    def _pump(self) -> None:
        """Move pending submissions onto the loop-side queue (loop thread)."""
        with self._pending_lock:
            ops, self._pending = self._pending, deque()
            self._wake_scheduled = False
        for op in ops:
            self._enqueue(op)

    def _fail_pending(self, exc: BaseException) -> None:
        with self._pending_lock:
            stranded, self._pending = self._pending, deque()
            self._wake_scheduled = False
        for op in stranded:
            if not op.fut.done():
                op.fut.set_exception(exc)

    def _enqueue(self, op: _Op) -> None:
        if self._closed:
            op.fut.set_exception(
                StoreUnavailable(f"channel to {self.address} is closed"))
            return
        self._queue.append(op)
        if self._drainer is None:
            self._drainer = asyncio.get_running_loop().create_task(self._drain())

    async def _drain(self) -> None:
        try:
            while self._queue and not self._closed:
                op = self._queue.popleft()
                run = [op]
                if op.kind in _BATCH_KINDS:
                    # Fold the same-kind batch ops queued behind this one
                    # into its frame, up to batch_keys keys in all.
                    nkeys = op.arg[1]
                    limit = self.config.batch_keys
                    queue = self._queue
                    while (queue and queue[0].kind == op.kind
                           and nkeys + queue[0].arg[1] <= limit):
                        nkeys += queue[0].arg[1]
                        run.append(queue.popleft())
                await self._execute(run)
        finally:
            self._drainer = None
            if self._queue and not self._closed:
                # An unexpected unwind must not strand queued ops.
                self._drainer = asyncio.get_running_loop().create_task(self._drain())

    async def _execute(self, run: List[_Op]) -> None:
        self._spans = tuple(op.span for op in run)
        try:
            if run[0].kind in _BATCH_KINDS:
                results = await self._run_batch(run)
            else:
                results = [await self._run_single(run[0])]
        except Exception as exc:
            for op in run:
                if not op.fut.done():
                    op.fut.set_exception(exc)
        else:
            for op, result in zip(run, results):
                op.fut.set_result(result)

    # --- execution on the loop -------------------------------------------

    async def _run_single(self, op: _Op):
        kind, arg = op.kind, op.arg
        if kind == "PING":
            return await self._roundtrip("PING") == b"PONG"
        if kind == "KEYS":
            raw = await self._roundtrip(f"KEYS {arg}" if arg else "KEYS")
            return raw.decode("utf-8").split("\x00") if raw else []
        if kind == "RENAME":
            src, dst = arg
            await self._roundtrip(f"RENAME {src} {dst}")
            return None
        if kind == "LEN":
            return int(await self._roundtrip("LEN"))
        if kind == "SNAPSHOT":
            raw = await self._roundtrip("SNAPSHOT")
            return json.loads(raw.decode("utf-8"))
        raise StoreError(f"unknown channel op {kind!r}")

    async def _run_batch(self, run: List[_Op]) -> List:
        """One frame for a run of same-kind batch ops; the reply is split
        back by each op's key count."""
        kind = run[0].kind
        counts = [op.arg[1] for op in run]
        total = sum(counts)
        sep = b"" if kind in ("MSET", "MSETNX") else b"\x00"
        payload = sep.join(op.arg[0] for op in run)
        raw = await self._roundtrip(f"{kind} {len(payload)}", payload)
        flat: Optional[List] = None  # MSET: each op gets its stored count
        if kind == "MGET":
            flat = _unpack_values(raw, total)
        elif kind == "MSET":
            if raw != b"%d" % total:
                raise WireProtocolError(f"malformed MSET response: {raw!r}")
        else:  # per-key '1'/'0' flags
            if len(raw) != total or raw.strip(b"01"):
                raise WireProtocolError(
                    f"malformed {kind} response: {raw[:64]!r}")
            flat = [b == 0x31 for b in raw]
        self.stats.note_batch(total)
        if len(run) > 1:
            self.stats.note_coalesced(total)
        if flat is None:
            return counts
        out, pos = [], 0
        for n in counts:
            out.append(flat[pos:pos + n])
            pos += n
        return out

    # --- connection + retry ladder ---------------------------------------

    async def _ensure_connected(self) -> _BufferedProtocol:
        conn = self._conn
        if (conn is not None and not conn._eof
                and not conn.transport.is_closing()):
            return conn
        self._conn = None
        loop = asyncio.get_running_loop()
        _, proto = await asyncio.wait_for(
            loop.create_connection(_BufferedProtocol, *self.address),
            self.config.connect_timeout)
        self._conn = proto
        if self._ever_connected:
            self.stats.note_reconnect()
        self._ever_connected = True
        return proto

    def _drop_connection(self) -> None:
        if self._conn is not None:
            try:
                self._conn.transport.abort()
            except Exception:
                pass
        self._conn = None

    async def _backoff(self, attempt: int) -> None:
        cfg = self.config
        base = min(cfg.backoff_max, cfg.backoff_base * (2.0 ** attempt))
        if base <= 0:
            return
        spread = cfg.jitter
        factor = (1.0 if spread == 0
                  else (1.0 - spread) + 2.0 * spread * float(self._rng.random()))
        await asyncio.sleep(base * factor)

    async def _roundtrip(self, header: str, payload: bytes = b"") -> bytes:
        wire_header = header.encode("utf-8") + b"\n"
        op = header.split(" ", 1)[0]
        attempts = self.config.retries + 1
        last_exc: Optional[BaseException] = None
        for attempt in range(attempts):
            if self._closed:
                raise StoreUnavailable(f"channel to {self.address} is closed")
            t0 = time.perf_counter()
            try:
                conn = await self._ensure_connected()
                self.stats.note_request(len(wire_header) + len(payload))
                if payload:
                    conn.transport.writelines((wire_header, payload))
                else:
                    conn.transport.write(wire_header)
                return await asyncio.wait_for(
                    self._read_response(conn, header, t0),
                    self.config.op_timeout)
            except (asyncio.TimeoutError, TimeoutError) as exc:
                last_exc = exc
                self._drop_connection()
                self.stats.note_retry(timed_out=True)
                _note_event(self._spans, "retry", kind="timeout", op=op,
                            attempt=attempt)
            except WireProtocolError as exc:
                # The peer sent something unframeable — desynced or
                # garbage-injected. The connection is dead to us.
                last_exc = exc
                self._drop_connection()
                self.stats.note_retry(timed_out=False, protocol=True)
                _note_event(self._spans, "retry", kind="protocol", op=op,
                            attempt=attempt)
            except (ConnectionError, OSError) as exc:
                last_exc = exc
                self._drop_connection()
                self.stats.note_retry(timed_out=False)
                _note_event(self._spans, "retry", kind="connection", op=op,
                            attempt=attempt)
            if attempt < attempts - 1:
                await self._backoff(attempt)
        self.stats.note_exhausted()
        _note_event(self._spans, "exhausted", op=op, attempts=attempts)
        raise StoreUnavailable(
            f"{op} against {self.address[0]}:{self.address[1]} "
            f"failed after {attempts} attempt(s): {last_exc}"
        ) from last_exc

    async def _read_response(self, conn: _BufferedProtocol, header: str,
                             t0: float) -> bytes:
        status = (await conn.read_line()).decode("utf-8", "replace")
        if status.startswith("OK "):
            try:
                n = int(status[3:])
            except ValueError:
                raise WireProtocolError(f"malformed OK length: {status!r}") from None
            if n < 0 or n > self.config.max_payload:
                raise WireProtocolError(f"OK length out of range: {n}")
            body = await conn.read_exact(n)
            self.stats.note_response(n, time.perf_counter() - t0)
            return body
        if status == "NF":
            self.stats.note_response(0, time.perf_counter() - t0)
            raise KeyNotFound(header.split()[1] if " " in header else "?")
        if status.startswith("ERR "):
            self.stats.note_response(0, time.perf_counter() - t0)
            raise StoreError(status[4:])
        raise WireProtocolError(f"unparseable response {status!r}")

    # --- public sync surface ---------------------------------------------

    def ping(self) -> bool:
        return self._submit("PING")

    def set(self, key: str, value: bytes) -> None:
        self.mset([(key, value)])

    def get(self, key: str) -> bytes:
        value = self.mget([key])[0]
        if value is None:
            raise KeyNotFound(key)
        return value

    def delete(self, key: str) -> None:
        if not self.mdelete([key])[0]:
            raise KeyNotFound(key)

    def keys(self, prefix: str = "") -> List[str]:
        return self._submit("KEYS", prefix)

    def rename(self, src: str, dst: str) -> None:
        self._submit("RENAME", (src, _check_wire_key(dst)))

    def mget(self, keys: List[str]) -> List[Optional[bytes]]:
        """Values for ``keys`` in order; None where the key is missing."""
        if not keys:
            return []
        payload = "\x00".join(_check_wire_key(k) for k in keys).encode("utf-8")
        return self._submit("MGET", (payload, len(keys)))

    def mset(self, items: List[Tuple[str, bytes]]) -> int:
        if not items:
            return 0
        return self._submit("MSET", (_pack_items(items), len(items)))

    def mdelete(self, keys: List[str]) -> List[bool]:
        """Delete ``keys``; per-key flags say which existed."""
        if not keys:
            return []
        payload = "\x00".join(_check_wire_key(k) for k in keys).encode("utf-8")
        return self._submit("MDEL", (payload, len(keys)))

    def msetnx(self, items: List[Tuple[str, bytes]]) -> List[bool]:
        """Set each pair only where the key is absent; per-key flags say
        which were stored (the migration copier's no-overwrite write)."""
        if not items:
            return []
        return self._submit("MSETNX", (_pack_items(items), len(items)))

    def snapshot(self) -> dict:
        """Ask the shard to write a snapshot and compact its WAL."""
        return self._submit("SNAPSHOT")

    def __len__(self) -> int:
        return self._submit("LEN")

    def close(self) -> None:
        lt = self._lt
        self._closed = True
        if lt is not None and lt.is_alive():
            try:
                lt.loop.call_soon_threadsafe(self._close_on_loop)
            except RuntimeError:
                pass
            if self._owns_loop:
                lt.stop()
        self._lt = None

    def _close_on_loop(self) -> None:
        self._closed = True
        self._fail_pending(
            StoreUnavailable(f"channel to {self.address} is closed"))
        while self._queue:
            op = self._queue.popleft()
            if not op.fut.done():
                op.fut.set_exception(
                    StoreUnavailable(f"channel to {self.address} is closed"))
        if self._conn is not None:
            try:
                self._conn.transport.abort()
            except Exception:
                pass
            self._conn = None
