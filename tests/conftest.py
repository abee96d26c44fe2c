"""Shared fixtures for the tier-1 tests."""

import pytest

from sliceobs import report


@pytest.fixture(autouse=True, scope="module")
def fresh_census():
    # `report.census` keeps one census per n for the life of the process,
    # so a census left by one module would spare the modules that run
    # after it in the same session (the benchmark tests among them) the
    # stages they trace or patch
    yield
    report.census.cache_clear()
