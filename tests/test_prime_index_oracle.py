"""Two algorithms for each prime-index class must agree.

Supersolubility is decided by a climb through normal subgroups of prime
index over the last; the reference reads the chief series, whose factors
must all have prime order.  vU obstructions are read off one top-down
reachability pass over the lattice; the reference runs one BFS chain search
per cyclic primary subgroup.  The corpus is every distinct subgroup table of
the catalog groups and of the E(p^2) x| D8 fixtures.
"""

from __future__ import annotations

import pytest

from formatio.arith import is_prime
from formatio.classes import _is_supersoluble
from formatio.structure import all_subgroups, chief_series
from formatio.subnormality import (
    cyclic_primary_subgroups,
    prime_index_chain,
    vu_obstruction,
)


@pytest.fixture(scope="module")
def corpus(catalog_groups, e52_d8, e32_d8):
    tables = {}
    for G in catalog_groups + [e52_d8, e32_d8]:
        for H in all_subgroups(G).subgroups:
            K = H.as_group()
            tables.setdefault(K.fingerprint, K)
    return list(tables.values())


def test_supersoluble_climb_matches_chief_factor_orders(corpus):
    verdicts = set()
    for K in corpus:
        expected = all(is_prime(o) for o in chief_series(K).factor_orders)
        assert _is_supersoluble(K) == expected, K.name
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_one_pass_vu_obstruction_matches_bfs_per_zuppo(corpus):
    stuck = 0
    for K in corpus:
        expected = next((P for P in cyclic_primary_subgroups(K)
                         if prime_index_chain(K, P) is None), None)
        assert vu_obstruction(K) == expected, K.name
        stuck += expected is not None
    assert stuck > 0
