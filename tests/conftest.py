"""Shared test plumbing: surface the acceptance criterion lines, and load bench files.

pytest captures stdout of passing tests, so the acceptance module
records its one-line verdicts here and a terminal-summary hook prints
them after the run, pass or fail.
"""

import importlib.util
import sys
from functools import cache
from pathlib import Path

criterion_lines: list[str] = []


def record_criterion(line: str) -> None:
    criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(criterion_lines):
            terminalreporter.write_line(line)


@cache
def bench_module(name: str):
    """bench/<name>.py, loaded by path as the module bench_<name>; the bench directory is not a package."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses looks its module up
    spec.loader.exec_module(module)
    return module
