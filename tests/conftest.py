"""Shared pytest hooks and fixtures for the test suite."""

import sys
import tracemalloc

import pytest

from asslab import nn


@pytest.fixture
def forward_rows(monkeypatch):
    """Row count of every nn.forward_batch call made while the test runs."""
    rows = []
    real = nn.forward_batch

    def counting(params, x):
        rows.append(len(x))
        return real(params, x)

    monkeypatch.setattr(nn, "forward_batch", counting)
    return rows


@pytest.fixture
def peak_bytes():
    """peak_bytes(fn, *args): the most memory tracemalloc saw allocated
    while fn(*args) ran (numpy buffers included), above what was live
    when it started."""

    def measure(fn, *args):
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - live
        finally:
            if started:
                tracemalloc.stop()

    return measure


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Replay the acceptance checklist after the run so the verdict lines
    # appear even though pytest captures the stdout of passing tests.
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    verdicts = getattr(mod, "VERDICTS", None) if mod is not None else None
    if verdicts:
        terminalreporter.section("acceptance checklist")
        for line in verdicts:
            terminalreporter.write_line(line)
