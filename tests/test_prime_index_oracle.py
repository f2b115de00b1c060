"""Two algorithms for each of U, vU and vstar(F) must agree.

Supersolubility is decided by a climb through normal subgroups of prime
index over the last; the reference reads the chief series, whose factors
must all have prime order.  vU verdicts take U as a shortcut, since U is
inside vU; the reference is the obstruction search alone.  vU and vstar
obstructions ask the reach test of each cyclic primary subgroup with no bound
on the chain length; the reference builds a chain witness for each, climbing
the bounds from 0 to the least that reaches the group.  The corpus is every
distinct subgroup table of the catalog groups and of the E(p^2) x| D8
fixtures.
"""

from __future__ import annotations

from functools import partial

import pytest

from formatio.arith import is_prime
from formatio.classes import (
    NILPOTENT,
    SUPERSOLUBLE,
    V_SUPERSOLUBLE,
    _is_supersoluble,
    is_member,
)
from formatio.structure import all_subgroups, chief_series
from formatio.subnormality import (
    cyclic_primary_subgroups,
    k_subnormal_chain,
    prime_index_chain,
    vstar_obstruction,
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


def test_obstructions_match_chain_per_zuppo(corpus):
    searches = [("vU", vu_obstruction, prime_index_chain)] + [
        (spec.text(), partial(vstar_obstruction, spec=spec),
         partial(k_subnormal_chain, spec=spec))
        for spec in (NILPOTENT, SUPERSOLUBLE)]
    for name, obstruction, chain in searches:
        stuck = 0
        for K in corpus:
            expected = next((P for P in cyclic_primary_subgroups(K)
                             if chain(K, P) is None), None)
            assert obstruction(K) == expected, (K.name, name)
            stuck += expected is not None
        assert stuck > 0, name


def test_vu_verdict_with_supersoluble_shortcut_matches_obstruction(corpus):
    for K in corpus:
        assert is_member(K, V_SUPERSOLUBLE) == (vu_obstruction(K) is None), K.name
