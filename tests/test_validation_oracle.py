"""Differential tests for Cayley-table validation.

The oracles are the earlier algorithms: the all-triples associativity check,
and the element-by-element range check and inverse search.  The library's
Light's test and row-based checks must accept the same tables and reject the
same tables with byte-identical errors, on every catalog table and on seeded
corruptions that keep the identity.
"""

from __future__ import annotations

import random

import pytest

from formatio.constructions import (
    alternating,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    quaternion,
    symmetric,
)
from formatio.errors import (
    FormatioError,
    GroupConstructionError,
    NotAssociative,
    NotInvertible,
)
from formatio.groups import _check_associativity, _check_identity, build_group


def brute_force_associativity(table):
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise NotAssociative(
                        f"(a*b)*c != a*(b*c) at indices a={a}, b={b}, c={c}")


def elementwise_normalize(table):
    n = len(table)
    if n < 1:
        raise GroupConstructionError("table must have at least one row")
    rows = []
    for i, row in enumerate(table):
        row = tuple(int(x) for x in row)
        if len(row) != n:
            raise GroupConstructionError(f"row {i} has length {len(row)}, expected {n}")
        for x in row:
            if x < 0 or x >= n:
                raise GroupConstructionError(f"entry {x} in row {i} out of range 0..{n - 1}")
        rows.append(row)
    return tuple(rows)


def searched_inverses(table):
    n = len(table)
    inv = []
    for a in range(n):
        row = table[a]
        b = next((j for j in range(n) if row[j] == 0), None)
        if b is None or table[b][a] != 0:
            raise NotInvertible(f"element {a} has no two-sided inverse")
        inv.append(b)
    return tuple(inv)


def oracle_build(table):
    """The validation pipeline of `build_group`, built from the oracles."""
    rows = elementwise_normalize(table)
    _check_identity(rows)
    inverse = searched_inverses(rows)
    brute_force_associativity(rows)
    return rows, inverse


def outcome(fn, table):
    try:
        fn(table)
    except FormatioError as exc:
        return type(exc), str(exc)
    return None


def built(table):
    G = build_group(table)
    return G.table, G.inverse


BASES = (cyclic(8), dihedral(4), quaternion(), elementary_abelian(2, 3),
         elementary_abelian(2, 4), symmetric(3), dihedral(6), alternating(4),
         direct_product(cyclic(2), cyclic(6)))


def cell_corruption(rng, table):
    """One cell outside the identity row and column set to another value."""
    n = len(table)
    rows = [list(r) for r in table]
    a, b = rng.randrange(1, n), rng.randrange(1, n)
    rows[a][b] = rng.choice([x for x in range(n) if x != rows[a][b]])
    return tuple(map(tuple, rows))


def row_swap_corruption(rng, table):
    """Two entries of one row swapped, outside the identity column."""
    n = len(table)
    rows = [list(r) for r in table]
    a = rng.randrange(1, n)
    b, c = rng.sample(range(1, n), 2)
    rows[a][b], rows[a][c] = rows[a][c], rows[a][b]
    return tuple(map(tuple, rows))


def intercalate_corruption(rng, table):
    """A 2x2 Latin subsquare on nonzero values swapped: the result is still a
    Latin square with identity 0 and the same inverses (a loop), so only the
    associativity check can reject it."""
    n = len(table)
    while True:
        a, b = rng.sample(range(1, n), 2)
        c = rng.randrange(1, n)
        u, v = table[a][c], table[b][c]
        d = table[b].index(u)
        if d not in (0, c) and table[a][d] == v and 0 not in (u, v):
            rows = [list(r) for r in table]
            rows[a][c], rows[a][d], rows[b][c], rows[b][d] = v, u, u, v
            return tuple(map(tuple, rows))


CORRUPTIONS = (cell_corruption, row_swap_corruption, intercalate_corruption)


def test_associativity_matches_brute_force_on_catalog(catalog_groups):
    for G in catalog_groups:
        assert outcome(_check_associativity, G.table) is None, G.name
        assert outcome(brute_force_associativity, G.table) is None, G.name


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__)
def test_seeded_corruptions_give_identical_errors(corrupt):
    rng = random.Random(5)
    rejected = 0
    for k in range(120):
        base = BASES[k % len(BASES)].table
        table = corrupt(rng, base)
        expected = outcome(brute_force_associativity, table)
        assert outcome(_check_associativity, table) == expected, table
        assert outcome(built, table) == outcome(oracle_build, table), table
        rejected += expected is not None
    assert rejected >= 60


def test_loop_corruptions_reach_the_associativity_check():
    rng = random.Random(11)
    loops = 0
    for k in range(60):
        table = intercalate_corruption(rng, BASES[k % len(BASES)].table)
        assert outcome(searched_inverses, table) is None
        found = outcome(_check_associativity, table)
        assert found == outcome(brute_force_associativity, table)
        loops += found is not None
    assert loops >= 40


def test_corruption_in_a_larger_table():
    base = direct_product(symmetric(4), cyclic(2)).table
    rng = random.Random(3)
    for corrupt in CORRUPTIONS:
        table = corrupt(rng, base)
        assert outcome(built, table) == outcome(oracle_build, table)


@pytest.mark.parametrize("table", [
    [[0, 1], [1, 7]],
    [[0, 1, 2], [1, -1, 0], [2, 0, 5]],
    [[0, 1, 2], [1, 2, 0], [2, 0, 3, 1]],
    [[0, 1, 2], [1, 2], [2, 0, 1]],
    [[0, 1.0, 2], [1, 2.9, 0], [2, 0, 1]],
    [[0, "1"], ["1", 0]],
    [[0, 1, 2], [1, 1, 1], [2, 0, 1]],
    [[0, 1, 2], [1, 2, 0], [2, 1, 0]],
    [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]],
    [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
    [],
], ids=lambda t: str(t)[:40])
def test_malformed_tables_give_identical_errors(table):
    assert outcome(built, table) == outcome(oracle_build, table)
