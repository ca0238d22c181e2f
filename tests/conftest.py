"""Shared pytest configuration: acceptance summary reporting, the ``--run-scripts`` option."""
from __future__ import annotations

import pytest

_ACCEPTANCE_RESULTS: dict[str, tuple[str, str]] = {}


def pytest_addoption(parser):
    parser.addoption(
        "--run-scripts",
        action="store_true",
        default=False,
        help="also run the shipped scripts end to end (tests marked 'scripts')",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(criterion, summary): acceptance-gate check with its label"
    )
    config.addinivalue_line("markers", "scripts: runs a shipped script; skipped without --run-scripts")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-scripts"):
        return
    skip = pytest.mark.skip(reason="runs a shipped script; give --run-scripts")
    for item in items:
        if "scripts" in item.keywords:
            item.add_marker(skip)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    criterion = marker.kwargs.get("criterion", marker.args[0] if marker.args else "?")
    summary = marker.kwargs.get("summary", item.name)
    _ACCEPTANCE_RESULTS[f"{criterion}:{item.nodeid}"] = (
        f"criterion {criterion}",
        f"{report.outcome.upper():6s} {summary}",
    )


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(_ACCEPTANCE_RESULTS):
        label, line = _ACCEPTANCE_RESULTS[key]
        terminalreporter.write_line(f"[{label}] {line}")
