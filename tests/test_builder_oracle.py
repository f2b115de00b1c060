"""Oracle: the multiplication rules the builders once wrote out by hand.

`dihedral`, `elementary_abelian`, `quaternion`, `symmetric` and
`alternating` now come from `semidirect_product`, `direct_product` and
permutation composition.  The rules below are the ones they replaced; each
builder must give the same table, element for element, so every catalog
file and every verdict that depends on labels stays the same.
"""

from __future__ import annotations

from itertools import permutations

from formatio.arith import is_prime
from formatio.constructions import (
    alternating,
    dihedral,
    elementary_abelian,
    quaternion,
    symmetric,
)
from formatio.groups import MAX_ORDER


def dihedral_rows(n):
    # encode r^i as 2i, r^i s as 2i+1
    def mul(a: int, b: int) -> int:
        i, fa = divmod(a, 2)
        j, fb = divmod(b, 2)
        if fa == 0:
            return ((i + j) % n) * 2 + fb
        return ((i - j) % n) * 2 + (1 - fb)

    return tuple(tuple(mul(a, b) for b in range(2 * n)) for a in range(2 * n))


def digit_addition_rows(p, d):
    """(Z_p)^d with vectors encoded as base-p digit strings."""
    n = p ** d

    def add(a: int, b: int) -> int:
        out = 0
        mult = 1
        for _ in range(d):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    return tuple(tuple(add(i, j) for j in range(n)) for i in range(n))


def quaternion_unit_rows():
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {("1", "1"): "1", ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
            ("i", "j"): "k", ("j", "i"): "-k", ("j", "k"): "i", ("k", "j"): "-i",
            ("k", "i"): "j", ("i", "k"): "-j"}

    def unit_mul(a: str, b: str) -> str:
        sa, ua = (-1, a[1:]) if a.startswith("-") else (1, a)
        sb, ub = (-1, b[1:]) if b.startswith("-") else (1, b)
        if ua == "1":
            prod = ub
        elif ub == "1":
            prod = ua
        else:
            prod = base[(ua, ub)]
        s = sa * sb
        if prod.startswith("-"):
            prod, s = prod[1:], -s
        return prod if s == 1 else f"-{prod}"

    index = {u: i for i, u in enumerate(names)}
    return tuple(tuple(index[unit_mul(a, b)] for b in names) for a in names)


def permutation_rows(n, even_only):
    def parity(p) -> int:
        inv = sum(1 for i in range(len(p)) for j in range(i) if p[j] > p[i])
        return inv % 2

    perms = sorted(p for p in permutations(range(n))
                   if not even_only or parity(p) == 0)
    index = {p: i for i, p in enumerate(perms)}
    return tuple(
        tuple(index[tuple(a[b[x]] for x in range(n))] for b in perms)
        for a in perms)


def test_dihedral_matches_the_rotation_reflection_rule():
    for n in range(3, MAX_ORDER // 2 + 1):
        assert dihedral(n).table == dihedral_rows(n), n


def test_elementary_abelian_matches_digit_addition():
    for p in filter(is_prime, range(2, MAX_ORDER + 1)):
        for d in range(1, 10):
            if p ** d > MAX_ORDER:
                break
            assert elementary_abelian(p, d).table == digit_addition_rows(p, d), (p, d)


def test_quaternion_matches_the_unit_table():
    assert quaternion().table == quaternion_unit_rows()


def test_symmetric_and_alternating_match_composition_tables():
    for n in range(1, 6):
        assert symmetric(n).table == permutation_rows(n, even_only=False), n
        assert alternating(n).table == permutation_rows(n, even_only=True), n
