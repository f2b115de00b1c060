"""Shared fixtures: named groups and the session-wide catalog."""

from __future__ import annotations

import concurrent.futures
import os

import pytest

from formatio.constructions import (
    alternating,
    build_catalog,
    cyclic,
    dihedral,
    quaternion,
    symmetric,
)


@pytest.fixture(scope="session")
def s3():
    return symmetric(3)


@pytest.fixture(scope="session")
def s4():
    return symmetric(4)


@pytest.fixture(scope="session")
def a4():
    return alternating(4)


@pytest.fixture(scope="session")
def a5():
    return alternating(5)


@pytest.fixture(scope="session")
def q8():
    return quaternion()


@pytest.fixture(scope="session")
def d4():
    return dihedral(4)


@pytest.fixture(scope="session")
def z6():
    return cyclic(6)


@pytest.fixture(scope="session")
def catalog():
    return build_catalog()


@pytest.fixture(scope="session")
def catalog_groups(catalog):
    return [e.group for e in catalog]


@pytest.fixture(scope="session")
def soluble_catalog_groups(catalog):
    return [e.group for e in catalog if "soluble" in e.tags]


@pytest.fixture
def forced_pool(monkeypatch):
    """Sweeps with more than one worker run in a pool, whatever their size,
    on a machine taken to have 2 CPUs.  Returns the size of each pool built."""
    from formatio import regularity

    built = []
    real = concurrent.futures.ProcessPoolExecutor

    def spy(max_workers):
        built.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(regularity, "POOL_START_COST", -1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    return built
