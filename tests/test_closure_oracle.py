"""Differential test: the generator-orbit closure against all-pairs oracles.

The oracles close a set by multiplying every pair of collected elements (and,
for the normal closure, by conjugating every collected element by the whole
group).  They are slow but obviously correct; the library's closure must give
the same element sets on every catalog group.
"""

from __future__ import annotations

from formatio.groups import _closure, normal_closure


def pairs_closure(table, seed):
    """Smallest multiplicatively closed set containing the identity and seed."""
    elems = [0]
    seen = {0}
    for g in seed:
        if g not in seen:
            seen.add(g)
            elems.append(g)
    i = 0
    while i < len(elems):
        a = elems[i]
        for j in range(i + 1):
            b = elems[j]
            for c in (table[a][b], table[b][a]):
                if c not in seen:
                    seen.add(c)
                    elems.append(c)
        i += 1
    return tuple(sorted(elems))


def pairs_normal_closure(G, seed):
    """Like pairs_closure, also adding every conjugate of each collected element."""
    table = G.table
    inv = G.inverse
    elems = [0]
    seen = {0}
    for g in seed:
        if g not in seen:
            seen.add(g)
            elems.append(g)
    i = 0
    while i < len(elems):
        a = elems[i]
        products = [c for b in elems[:i + 1] for c in (table[a][b], table[b][a])]
        conjugates = [table[table[g][a]][inv[g]] for g in range(G.order)]
        for c in products + conjugates:
            if c not in seen:
                seen.add(c)
                elems.append(c)
        i += 1
    return tuple(sorted(elems))


def test_closure_of_every_singleton(catalog_groups):
    for G in catalog_groups:
        for x in range(G.order):
            assert _closure(G.table, (x,)) == pairs_closure(G.table, (x,)), (G.name, x)


def test_closure_of_every_pair_up_to_order_24(catalog_groups):
    for G in catalog_groups:
        if G.order > 24:
            continue
        for x in range(G.order):
            for y in range(x + 1, G.order):
                expected = pairs_closure(G.table, (x, y))
                assert _closure(G.table, (x, y)) == expected, (G.name, x, y)
                assert _closure(G.table, (y, x)) == expected, (G.name, y, x)


def test_normal_closure_of_every_singleton(catalog_groups):
    for G in catalog_groups:
        for x in range(G.order):
            got = normal_closure(G, (x,)).elems
            assert got == pairs_normal_closure(G, (x,)), (G.name, x)
