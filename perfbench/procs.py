"""Process hygiene: every child is reaped and every temporary file removed.

A child runs in its own session and process group and gets SIGKILL if the
benchmark dies first (``PR_SET_PDEATHSIG``).  :class:`ProcessGuard` kills
and reaps its children on every exit path, deletes the run's temporary
directory, and then looks in ``/proc`` for anything left behind: a
surviving descendant, a process in a child's session, or a port a child
listened on that still listens.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import signal
import subprocess
from pathlib import Path

PR_SET_PDEATHSIG = 1
TCP_LISTEN = "0A"


class Interrupted(BaseException):
    """SIGINT, SIGTERM or the run's own time limit arrived."""


def _proc_stat(pid: str) -> tuple[int, int, int] | None:
    """``(ppid, pgrp, session)`` of a live process, or ``None``."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    if fields[0] == "Z":
        return None  # a zombie is not running; its parent will reap it
    return int(fields[1]), int(fields[2]), int(fields[3])


def listening_ports() -> set[int]:
    """Local TCP ports in LISTEN state, from ``/proc/net/tcp`` and ``tcp6``."""
    ports: set[int] = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as handle:
                next(handle)
                for line in handle:
                    fields = line.split()
                    if fields[3] == TCP_LISTEN:
                        ports.add(int(fields[1].rsplit(":", 1)[1], 16))
        except OSError:
            continue
    return ports


class ProcessGuard:
    """Owns the run's children and its temporary directory."""

    def __init__(self, run_root: Path) -> None:
        self.run_root = run_root
        self.run_dir = run_root / str(os.getpid())
        self.children: list[subprocess.Popen] = []
        self.sessions: set[int] = set()
        self.ports: set[int] = set()

    def make_run_dir(self) -> Path:
        """The run's private directory; stale ones of dead runs are removed."""
        if self.run_root.is_dir():
            for entry in self.run_root.iterdir():
                if entry.name.isdigit() and _proc_stat(entry.name) is None:
                    shutil.rmtree(entry, ignore_errors=True)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        return self.run_dir

    def spawn(self, argv: list[str], cpus: set[int] | None = None,
              **popen_kwargs) -> subprocess.Popen:
        """Start a child; ``cpus`` pins it (and the threads it starts)."""
        parent = os.getpid()
        prctl = ctypes.CDLL(None, use_errno=True).prctl

        def die_with_parent() -> None:
            prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
            if os.getppid() != parent:
                os._exit(1)
            if cpus is not None:
                os.sched_setaffinity(0, cpus)

        proc = subprocess.Popen(
            argv, start_new_session=True, preexec_fn=die_with_parent, **popen_kwargs
        )
        self.children.append(proc)
        self.sessions.add(proc.pid)
        return proc

    def stop(self, proc: subprocess.Popen, timeout: float = 5.0) -> None:
        """SIGTERM the child's process group, SIGKILL after ``timeout``, reap."""
        if proc.poll() is None:
            try:
                os.killpg(proc.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()

    def close(self) -> None:
        for proc in self.children:
            self.stop(proc)
        shutil.rmtree(self.run_dir, ignore_errors=True)
        try:
            self.run_root.rmdir()
        except OSError:
            pass  # other runs' directories are still there

    def leftovers(self) -> list[str]:
        """Descriptions of anything this run left running or listening."""
        me = os.getpid()
        table = {}
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                stat = _proc_stat(entry)
                if stat is not None:
                    table[int(entry)] = stat
        found = []
        for pid, (ppid, _, session) in table.items():
            if pid == me:
                continue
            ancestor, hops = ppid, 0
            while ancestor not in (me, 0, 1) and ancestor in table and hops < 64:
                ancestor, hops = table[ancestor][0], hops + 1
            if ancestor == me or session in self.sessions:
                found.append(f"process {pid} (session {session}) is still running")
        for port in sorted(self.ports & listening_ports()):
            found.append(f"port {port} is still listening")
        return found
