"""An interrupted gateway_stream run leaves no process and no port behind.

These tests start real benchmark runs, so each takes a few seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from procs import listening_ports

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
RUN_ROOT = ROOT / ".perfbench_run"
EXIT_INTERRUPTED = 4


def stat(pid: int) -> tuple[str, int, int] | None:
    """``(state, ppid, session)`` of a process, or ``None`` once it is gone."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1]), int(fields[3])


def running(pid: int) -> bool:
    state = stat(pid)
    return state is not None and state[0] != "Z"


def gateway_child(bench: subprocess.Popen, timeout: float = 60.0) -> tuple[int, int]:
    """Wait until the run's gateway child is serving; returns ``(pid, port)``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        assert bench.poll() is None, "the benchmark exited before its gateway served"
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            state = stat(int(entry))
            if state is None or state[1] != bench.pid:
                continue
            try:
                cmdline = Path(f"/proc/{entry}/cmdline").read_bytes().split(b"\0")
            except OSError:
                continue
            if b"gateway" in cmdline:
                ports = child_ports(int(entry))
                if ports:
                    return int(entry), ports.pop()
        time.sleep(0.05)
    raise AssertionError("no gateway child appeared")


def child_ports(pid: int) -> set[int]:
    """Listening ports whose socket inode is one of ``pid``'s descriptors."""
    try:
        links = {os.readlink(f"/proc/{pid}/fd/{fd}") for fd in os.listdir(f"/proc/{pid}/fd")}
    except OSError:
        return set()
    inodes = {link[8:-1] for link in links if link.startswith("socket:[")}
    ports = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        with open(table) as handle:
            next(handle)
            for line in handle:
                fields = line.split()
                if fields[3] == "0A" and fields[9] in inodes:
                    ports.add(int(fields[1].rsplit(":", 1)[1], 16))
    return ports


def start_run() -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(RUN), "--workload", "gateway_stream", "--seed", "0",
         "--seconds", "60", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )


def assert_gone(pid: int, port: int, timeout: float = 10.0) -> None:
    # A killed multi-threaded process shows as a zombie leader while its
    # other threads still hold the socket, so wait for both to go.
    deadline = time.monotonic() + timeout
    while (running(pid) or port in listening_ports()) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not running(pid), f"gateway child {pid} survived"
    survivors = []
    for entry in os.listdir("/proc"):
        state = stat(int(entry)) if entry.isdigit() else None
        if state is not None and state[0] != "Z" and state[2] == pid:
            survivors.append(entry)
    assert not survivors, f"processes left in the gateway's session: {survivors}"
    assert port not in listening_ports(), f"port {port} still listening"


#: Long enough for every set-up to finish: the timed phase is running.
MID_RUN_S = 12.0


# SIGALRM is the run's own time limit firing.
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT, signal.SIGALRM])
def test_interrupted_run_cleans_up(signum):
    bench = start_run()
    try:
        gateway_child(bench)
        time.sleep(MID_RUN_S)
        pid, port = gateway_child(bench)
        bench.send_signal(signum)
        out, err = bench.communicate(timeout=60)
    finally:
        if bench.poll() is None:
            bench.kill()
            bench.wait()
    assert bench.returncode == EXIT_INTERRUPTED, err.decode()[-2000:]
    assert not any(line.startswith(b"{") for line in out.splitlines())
    assert_gone(pid, port)
    assert not (RUN_ROOT / str(bench.pid)).exists()


def test_killed_run_takes_its_gateway_down():
    bench = start_run()
    try:
        gateway_child(bench)
        time.sleep(MID_RUN_S)
        pid, port = gateway_child(bench)
        bench.send_signal(signal.SIGKILL)
        bench.wait(timeout=30)
        assert_gone(pid, port)
    finally:
        if bench.poll() is None:
            bench.kill()
            bench.wait()
        # SIGKILL leaves the run's directory; the next run removes it too.
        shutil.rmtree(RUN_ROOT / str(bench.pid), ignore_errors=True)
        if RUN_ROOT.is_dir() and not any(RUN_ROOT.iterdir()):
            RUN_ROOT.rmdir()


def test_run_without_sources_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline_train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=120,
    )
    assert result.returncode != 0
    assert not any(line.startswith(b"{") for line in result.stdout.splitlines())
    json.loads((tmp_path / "BENCHMARK.json").read_text())
