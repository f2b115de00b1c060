"""Schmidt groups are tagged by a scan of zuppo pairs inside the group's
table (Schmidt's theorem); the oracle is the definition, `is_minimal_non`
over the whole subgroup lattice.

The corpus is the max-order-120 catalog, every distinct subgroup table of
the default catalog, the E(p^2) x| D8 fixtures, six larger products, and a
relabelled copy of each.  Z3 x| Z4 and SL(2,3) = Q8 x| Z3 are Schmidt groups
outside the catalog.  Their direct products with Z2 are not, and every proper
non-nilpotent subgroup of those needs an element of order 4 to generate it.
"""

from __future__ import annotations

import random

import pytest

from formatio.classes import NILPOTENT, is_minimal_non, is_schmidt
from formatio.constructions import (
    CatalogConfig,
    alternating,
    build_catalog,
    cyclic,
    direct_product,
    field_action_group,
    lint_catalog,
    quaternion,
    symmetric,
)
from formatio.groups import build_group, semidirect_product
from formatio.structure import all_subgroups


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


def sl23():
    """Q8 x| Z3, the generator of Z3 permuting i -> j -> k -> i."""
    # quaternion() lists 1, -1, i, -i, j, -j, k, -k
    rotate = (0, 1, 4, 5, 6, 7, 2, 3)
    twice = tuple(rotate[x] for x in rotate)
    return semidirect_product(quaternion(), cyclic(3), [tuple(range(8)), rotate, twice])


def z3_by_z4():
    """Z3 x| Z4, the generator of Z4 inverting Z3."""
    inverting = (0, 2, 1)
    return semidirect_product(cyclic(3), cyclic(4),
                              [(0, 1, 2), inverting, (0, 1, 2), inverting])


def outside_the_catalog():
    schmidt = [z3_by_z4(), sl23()]
    return schmidt + [direct_product(G, cyclic(2)) for G in schmidt]


@pytest.fixture(scope="module")
def corpus(catalog_groups, e52_d8, e32_d8):
    s3, s4 = symmetric(3), symmetric(4)
    larger = [
        symmetric(5),
        direct_product(s4, s3),
        direct_product(direct_product(s4, cyclic(2)), cyclic(2)),
        direct_product(alternating(5), cyclic(2)),
        direct_product(field_action_group(4, 5), s3),
        direct_product(field_action_group(7, 2), cyclic(2)),
    ]
    tables = {}
    for G in catalog_groups:
        for H in all_subgroups(G).subgroups:
            K = H.as_group()
            tables.setdefault(K.fingerprint, K)
    catalog_120 = build_catalog(CatalogConfig(max_order=120))
    groups = ([e.group for e in catalog_120] + list(tables.values())
              + [e52_d8, e32_d8] + larger + outside_the_catalog())
    return groups + [relabelled(G, seed) for seed, G in enumerate(groups)]


def test_pair_scan_matches_the_definition(corpus):
    verdicts = []
    for G in corpus:
        got = is_schmidt(G)
        assert got == is_minimal_non(G, NILPOTENT), G.name
        verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_schmidt_groups_outside_the_catalog():
    verdicts = [(G.order, is_schmidt(G), is_schmidt(relabelled(G, 3)))
                for G in outside_the_catalog()]
    assert verdicts == [(12, True, True), (24, True, True),
                        (24, False, False), (48, False, False)]


def test_catalog_tags_build_no_subgroup_lattice():
    entries = build_catalog(CatalogConfig(max_order=120))
    assert lint_catalog(entries) == []
    for e in entries:
        assert not any(key[0] == "_lattice" for key in e.group._memo), e.group.name
    assert [e.group.name for e in entries if "schmidt" in e.tags] == [
        "D3", "D5", "A4", "D7", "E(3|7)", "D11", "E(5|11)"]
