"""Child processes of one benchmark run: launch, read events, always reap.

Every child leads its own process group, so stopping it signals the
whole group, and a :class:`Children` scope stops whatever is still
alive when the run ends, fails or times out. A dead child can no longer
hold the run open: reads wait on a queue fed by a reader thread, with a
deadline, never on the pipe itself.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

__all__ = ["ChildError", "Child", "Children"]

_EOF = object()


class ChildError(RuntimeError):
    """A child died, timed out or reported something unexpected."""


class Child:
    """One child process whose stdout lines arrive on a queue."""

    def __init__(self, argv: List[str], env: Dict[str, str], cwd: str,
                 log_path: str, deadline: float) -> None:
        self.argv = argv
        self.deadline = deadline
        self.log_path = log_path
        self._log = open(log_path, "w", encoding="utf-8")
        self.t_launch = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._log, stdin=subprocess.DEVNULL,
            env=env, cwd=cwd, text=True, start_new_session=True)
        self._lines: "queue.Queue" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.events: List[dict] = []

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(_EOF)

    def _fail(self, why: str) -> ChildError:
        if not self._log.closed:
            self._log.flush()
        with open(self.log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        return ChildError(f"{' '.join(self.argv[3:6])}: {why}\n{tail}")

    def line(self, match: Callable[[str], bool], timeout: float) -> str:
        """The next stdout line for which ``match`` holds; JSON event lines
        seen on the way are kept in :attr:`events`."""
        limit = min(time.perf_counter() + timeout, self.deadline)
        while True:
            remaining = limit - time.perf_counter()
            if remaining <= 0:
                raise self._fail(f"no expected output within {timeout:.0f} s")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is _EOF:
                self.proc.wait()
                raise self._fail(f"exited with code {self.proc.returncode}")
            if line.startswith("{"):
                self.events.append(json.loads(line))
            if match(line):
                return line

    def event(self, name: str, timeout: float) -> dict:
        """The next JSON event line named ``name``."""
        self.line(lambda s: s.startswith("{") and json.loads(s).get("event") == name,
                  timeout)
        return self.events[-1]

    def stop(self, sig: int = signal.SIGINT, grace: float = 20.0) -> None:
        """Signal the child's process group and wait until it is gone;
        escalate to SIGKILL after ``grace`` seconds."""
        for s, wait in ((sig, grace), (signal.SIGKILL, 10.0)):
            if self.proc.poll() is not None:
                break
            try:
                os.killpg(self.proc.pid, s)
            except ProcessLookupError:
                break
            try:
                self.proc.wait(timeout=wait)
            except subprocess.TimeoutExpired:
                continue
        self.proc.wait()
        self._reader.join(timeout=10.0)
        # Collect the event lines printed while it shut down.
        while True:
            try:
                line = self._lines.get_nowait()
            except queue.Empty:
                break
            if line is not _EOF and line.startswith("{"):
                self.events.append(json.loads(line))
        self._log.close()

    def wait(self, timeout: float) -> None:
        """Wait for a child that finishes on its own; it must exit with 0."""
        try:
            self.proc.wait(timeout=max(0.0, min(timeout, self.deadline - time.perf_counter())))
        except subprocess.TimeoutExpired:
            self.stop(signal.SIGKILL)
            raise self._fail("did not exit") from None
        self.stop()
        if self.proc.returncode != 0:
            raise self._fail(f"exited with code {self.proc.returncode}")


class Children:
    """Scope owning every child of a run; ``with`` exit stops them all."""

    def __init__(self, root: str, workdir: str, deadline: float) -> None:
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        self.spawned: List[Child] = []
        self._n = 0
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p)
        self.env["PYTHONUNBUFFERED"] = "1"

    def spawn(self, trace_file: Optional[str], role: str, *args: str) -> Child:
        self._n += 1
        argv = [sys.executable, os.path.join(self.root, "perfbench", "boot.py"),
                trace_file or "-", role, *args]
        child = Child(argv, self.env, self.root,
                      os.path.join(self.workdir, f"child{self._n}.log"), self.deadline)
        self.spawned.append(child)
        return child

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc) -> None:
        for child in self.spawned:
            child.stop(signal.SIGKILL if exc[0] is not None else signal.SIGINT)
