"""Shared pytest hooks and fixtures for the test suite."""

import sys

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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Replay the acceptance checklist after the run so the verdict lines
    # appear even though pytest captures the stdout of passing tests.
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    verdicts = getattr(mod, "VERDICTS", None) if mod is not None else None
    if verdicts:
        terminalreporter.section("acceptance checklist")
        for line in verdicts:
            terminalreporter.write_line(line)
