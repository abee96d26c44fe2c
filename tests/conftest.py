"""Shared fixtures for the tier-1 tests."""

import pytest

from sliceobs import blanchfield, report


@pytest.fixture(autouse=True, scope="module")
def fresh_census():
    # `report.census` keeps one census per n for the life of the process,
    # so a census left by one module would spare the modules that run
    # after it in the same session (the benchmark tests among them) the
    # stages they trace or patch
    yield
    report.census.cache_clear()


@pytest.fixture(autouse=True)
def fresh_alexander_module():
    # `blanchfield._alexander_module` certifies each n once per process,
    # so a certificate left by one test would let a later test that
    # breaks one of its checks reach the Smith form unchecked
    yield
    blanchfield._alexander_module.cache_clear()
