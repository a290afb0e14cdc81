import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture
def no_draws(monkeypatch):
    """Make multirank.tensor's SplitMix64 unbuildable, so no coefficient can be drawn."""

    class NoDraws:
        def __init__(self, seed):
            raise AssertionError("coefficients drawn before the storage gate")

    monkeypatch.setattr("multirank.tensor.SplitMix64", NoDraws)


def pytest_terminal_summary(terminalreporter):
    try:
        from acceptance_registry import summary_lines
    except ImportError:
        return
    lines = summary_lines()
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
