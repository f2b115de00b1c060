"""Sylow towers and reg(f) are decided by arithmetic in the group's own table;
the references are the earlier routes, which build groups.

A Sylow tower is decided by counting pi-elements; the reference climbs a
tower of quotient tables, each by the normal Sylow subgroup of the least
remaining prime.  reg(f) membership reads only the order of each closed-form
residual; the reference materializes the residual and asks whether it lies in
S_pi'(p).  The corpus is every distinct subgroup table of the catalog groups,
of the E(p^2) x| D8 fixtures and of a relabelled copy of E(3^2) x| D8.
"""

from __future__ import annotations

import pytest

from conftest import relabelled, subgroup_tables_of

from formatio.arith import p_part, prime_divisors
from formatio.classes import (
    SOLUBLE,
    PrimeOrdering,
    _has_sylow_tower,
    exponent_formation_member,
    is_member,
    product_member,
    sigma,
    soluble_pi,
)
from formatio.groups import quotient, subgroup
from formatio.supernatural import parse_exponent_function

ORDERINGS = ("2>3>5", "3>2>5", "5>3>2", "3", "7>2>3")
EXPONENT_FUNCTIONS = (
    "default->1",
    "default->full",
    "2->2^inf*3,3->2^2*3^inf,default->1",
    "2->2^inf*5*7,default->2*3",
    "3->3^inf,default->2^inf*3^inf",
)


@pytest.fixture(scope="module")
def corpus(subgroup_tables, e32_d8):
    seen = {K.fingerprint for K in subgroup_tables}
    return subgroup_tables + [K for K in subgroup_tables_of([relabelled(e32_d8, 1)])
                              if K.fingerprint not in seen]


def quotient_tower(G, ordering):
    """Whether the least prime of the ordering dividing |G| has a normal
    Sylow subgroup P, and G/P has a Sylow tower, down to the trivial group."""
    while G.order > 1:
        p = min(prime_divisors(G.order), key=ordering.sort_key)
        p_elements = [x for x in range(G.order)
                      if p_part(G.element_order[x], p) == G.element_order[x]]
        if len(p_elements) != p_part(G.order, p):
            return False
        G, _ = quotient(G, subgroup(G, p_elements))
    return True


def residual_route(G, fn):
    """Soluble, and for each p dividing |G| the materialized residual for
    S(fn(p)) lies in S_pi'(p)."""
    return is_member(G, SOLUBLE) and all(
        product_member(G, soluble_pi((p,), complement=True), sigma(fn.at(p)))
        for p in prime_divisors(G.order))


def test_sylow_tower_count_matches_quotient_tower(corpus):
    for text in ORDERINGS:
        ordering = PrimeOrdering(tuple(int(p) for p in text.split(">")))
        verdicts = set()
        for K in corpus:
            expected = quotient_tower(K, ordering)
            assert _has_sylow_tower(K, ordering) == expected, (K.name, text)
            verdicts.add(expected)
        assert verdicts == {True, False}, text


def test_exponent_formation_order_test_matches_residual_route(corpus):
    for text in EXPONENT_FUNCTIONS:
        fn = parse_exponent_function(text)
        verdicts = set()
        for K in corpus:
            expected = residual_route(K, fn)
            assert exponent_formation_member(K, fn) == expected, (K.name, text)
            verdicts.add(expected)
        assert verdicts == {True, False}, text
