"""Oracle: the multiplication rules the builders once wrote out by hand.

`dihedral`, `elementary_abelian`, `quaternion`, `symmetric`,
`alternating` and `field_action_group` now come from `semidirect_product`,
`direct_product`, rows read through generator rows and one field step.  The
rules below are the ones they replaced; each builder must give the same
table, element for element, so every catalog file and every verdict that
depends on labels stays the same.
"""

from __future__ import annotations

from itertools import chain, permutations

from formatio.arith import is_prime, multiplicative_order
from formatio.constructions import (
    _digits,
    _least_irreducible,
    _poly_mul_mod,
    alternating,
    cyclic,
    dihedral,
    elementary_abelian,
    field_action_group,
    quaternion,
    symmetric,
)
from formatio.groups import MAX_ORDER, semidirect_product


def dihedral_rows(n):
    """Encode r^i as 2i and r^i s as 2i+1, and evaluate the rotation and
    reflection rule a row at a time.  r^i * r^j s^f = r^(i+j) s^f, so the row
    of r^i is the identity's row rotated left by 2i.  r^i s * r^j s^f =
    r^(i-j) s^(1-f), so the row of r^i s lists, for j = 0, 1, ..., the pair
    2((i-j) mod n) + 1, 2((i-j) mod n): the pairs `down` for k = n-1, ..., 0
    rotated to start at k = i."""
    ident = tuple(range(2 * n))
    down = tuple(x for k in reversed(range(n)) for x in (2 * k + 1, 2 * k))
    rows = []
    for i in range(n):
        shift = 2 * (n - 1 - i)
        rows += [ident[2 * i:] + ident[:2 * i], down[shift:] + down[:shift]]
    return tuple(rows)


def digit_addition_rows(p, d):
    """(Z_p)^d with vectors encoded as base-p digit strings, lowest digit
    first, added digit by digit mod p, a row at a time.  In the row of a, the
    lowest digits of b run through a block of p consecutive codes, and a's
    lowest digit rotates that block; the block for the higher digits of b is
    the one their sum with a's higher digits names, which is the row of
    a // p in (Z_p)^(d-1)."""
    ident = tuple(range(p ** d))

    def row(a, d):
        if d == 0:
            return (0,)
        low = a % p
        return tuple(chain.from_iterable(
            ident[h * p + low:h * p + p] + ident[h * p:h * p + low]
            for h in row(a // p, d - 1)))

    return tuple(row(a, d) for a in ident)


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


def per_scalar_action(n, p):
    """The permutations of F_p^d by multiplication with zeta^k, k = 0..n-1,
    each power of zeta multiplied into every field element polynomial by
    polynomial: d is the order of p modulo n, F_p^d is built on the least
    monic irreducible of degree d, and zeta is its least element of
    multiplicative order n."""
    d = multiplicative_order(p, n)
    size = p ** d
    modulus = _least_irreducible(p, d)
    elements = [_digits(i, p, d) for i in range(size)]
    index = {x: i for i, x in enumerate(elements)}
    one = (1,) + (0,) * (d - 1)

    def order_up_to_n(x):
        power, order = x, 1
        while power != one and order <= n:
            power, order = _poly_mul_mod(power, x, modulus, p), order + 1
        return order

    zeta = next(x for x in elements[1:] if order_up_to_n(x) == n)
    action, scalar = [], one
    for _ in range(n):
        action.append(tuple(index[_poly_mul_mod(x, scalar, modulus, p)] for x in elements))
        scalar = _poly_mul_mod(scalar, zeta, modulus, p)
    return d, action


def test_field_action_groups_match_the_per_scalar_rule():
    checked = 0
    for n in range(2, MAX_ORDER // 2 + 1):
        for p in filter(is_prime, range(2, MAX_ORDER // n + 1)):
            if n % p == 0 or p ** multiplicative_order(p, n) * n > MAX_ORDER:
                continue
            d, action = per_scalar_action(n, p)
            expected = semidirect_product(elementary_abelian(p, d), cyclic(n), action)
            assert field_action_group(n, p).table == expected.table, (n, p)
            checked += 1
    assert checked > 100
