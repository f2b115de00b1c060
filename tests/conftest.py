"""Shared fixtures: named groups, the session-wide catalog and the oracle
corpus of its subgroup tables."""

from __future__ import annotations

import random

import pytest

from formatio.constructions import (
    alternating,
    build_catalog,
    cyclic,
    dihedral,
    elementary_abelian,
    quaternion,
    symmetric,
)
from formatio.groups import build_group, semidirect_product
from formatio.structure import all_subgroups


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


def _plane_by_d8(p):
    """E(p^2) x| D8, with D8 acting on F_p^2: r as [[0,-1],[1,0]] and s as
    diag(1,-1).  dihedral(4) encodes r^i s^f as 2i + f, and
    elementary_abelian(p, 2) encodes (a, b) as a + b*p."""

    def act(h, x):
        i, f = divmod(h, 2)
        a, b = x % p, x // p
        if f:
            b = -b
        for _ in range(i):
            a, b = -b, a
        return a % p + b % p * p

    action = [tuple(act(h, x) for x in range(p * p)) for h in range(8)]
    return semidirect_product(elementary_abelian(p, 2), dihedral(4), action)


@pytest.fixture(scope="session")
def e52_d8():
    """Order 200, in vU but not in U: every cyclic subgroup of D8 fixes a
    line of F_5^2, as 2 is a square root of -1 mod 5."""
    return _plane_by_d8(5)


@pytest.fixture(scope="session")
def e32_d8():
    """Order 72, in neither vU nor U: r has no eigenvalue mod 3."""
    return _plane_by_d8(3)


@pytest.fixture(scope="session")
def catalog():
    return build_catalog()


@pytest.fixture(scope="session")
def catalog_groups(catalog):
    return [e.group for e in catalog]


@pytest.fixture(scope="session")
def soluble_catalog_groups(catalog):
    return [e.group for e in catalog if "soluble" in e.tags]


def relabelled(G, seed):
    """G with its elements renamed by a seeded permutation fixing 0."""
    rest = list(range(1, G.order))
    random.Random(seed).shuffle(rest)
    perm = [0] + rest
    table = [[0] * G.order for _ in range(G.order)]
    for a in range(G.order):
        for b in range(G.order):
            table[perm[a]][perm[b]] = perm[G.table[a][b]]
    return build_group(table, G.name + "~")


def subgroup_tables_of(groups):
    """Every distinct subgroup table of the groups, in order of discovery."""
    tables = {}
    for G in groups:
        for H in all_subgroups(G).subgroups:
            K = H.as_group()
            tables.setdefault(K.fingerprint, K)
    return list(tables.values())


@pytest.fixture(scope="session")
def subgroup_tables(catalog_groups, e52_d8, e32_d8):
    """The oracle corpus: every distinct subgroup table of the catalog groups
    and of the E(p^2) x| D8 fixtures."""
    return subgroup_tables_of(catalog_groups + [e52_d8, e32_d8])
