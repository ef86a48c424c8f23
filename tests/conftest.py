"""Shared fixtures: small programs, workloads, and trained detectors.

Session-scoped fixtures keep the expensive artifacts (corpus programs,
workload traces, fitted models) shared across the suite.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.core import DetectorConfig
from repro.hmm import TrainingConfig
from repro.program import (
    CallKind,
    Program,
    ProgramBuilder,
    load_program,
    make_paper_example,
)
from repro.tracing import WorkloadResult, run_workload


@pytest.fixture(scope="session")
def paper_example() -> Program:
    """The Figure 1 / Section II-C running example (functions f, g, main)."""
    return make_paper_example()


@pytest.fixture(scope="session")
def gzip_program() -> Program:
    return load_program("gzip")


@pytest.fixture(scope="session")
def proftpd_program() -> Program:
    return load_program("proftpd")


@pytest.fixture(scope="session")
def gzip_workload(gzip_program: Program) -> WorkloadResult:
    return run_workload(gzip_program, n_cases=40, seed=11)


@pytest.fixture()
def tiny_program() -> Program:
    """A minimal two-function program used by unit tests.

    main: getenv -> helper() -> write
    helper: read -> (write | <empty>)
    """
    pb = ProgramBuilder("tiny")
    pb.function("helper").call("read").branch(["write"], empty_arm=True)
    pb.function("main").seq("getenv", "helper", "write")
    return pb.build()


@pytest.fixture(scope="session")
def fast_detector_config() -> DetectorConfig:
    return DetectorConfig(
        training=TrainingConfig(max_iterations=5),
        max_training_segments=400,
        seed=1,
    )


@pytest.fixture()
def stream_bursts():
    """Drive a started service the way a bursty collector fleet would.

    Returns ``run(service, detector, alphabet)``: 8 threads each open a
    stream session and submit 300 symbols in bursts of 30, idling 0-5 ms
    between bursts so the drain loop keeps going to sleep mid-run.  A drain
    loop that can sleep through a submit strands that burst's tickets.  A
    short interpreter switch interval multiplies the interleavings.
    Returns ``{session_id: (symbols, tickets)}``.
    """

    threads, bursts, burst = 8, 10, 30

    def run(service, detector, alphabet):
        streams = {}
        errors = []

        def producer(index):
            rng = np.random.default_rng(index)
            session_id = f"burst-{index}"
            symbols = [
                alphabet[i] for i in rng.integers(0, len(alphabet), bursts * burst)
            ]
            tickets = []
            try:
                for start in range(0, len(symbols), burst):
                    for symbol in symbols[start:start + burst]:
                        tickets.append(
                            service.submit(detector, session_id, symbol=symbol)
                        )
                    time.sleep(rng.uniform(0.0, 0.005))
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)
            streams[session_id] = (symbols, tickets)

        for index in range(threads):
            service.open_session(detector, f"burst-{index}", mode="stream")
        workers = [
            threading.Thread(target=producer, args=(index,))
            for index in range(threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert not errors, errors
        return streams

    return run


@pytest.fixture()
def count_pump_rounds():
    """Returns ``wrap(service)``: from then on every ``service.pump()``
    call, the background loop's included, appends its start time to the
    list ``wrap`` returns.  Wrap before ``start()``."""

    def wrap(service):
        rounds = []
        real_pump = service.pump

        def pump(*args, **kwargs):
            rounds.append(time.monotonic())
            return real_pump(*args, **kwargs)

        service.pump = pump
        return rounds

    return wrap


SYSCALL = CallKind.SYSCALL
LIBCALL = CallKind.LIBCALL
