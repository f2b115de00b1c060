"""Builders for the standard small groups and a persisted, tagged catalog.

Every builder is deterministic.  E-type groups (an elementary abelian group
extended by a cyclic group of coprime order acting by field multiplication)
use the lexicographically least monic irreducible polynomial and the least
field element of the right multiplicative order, so tables are reproducible
bit for bit.
"""

from __future__ import annotations

import json
import math
from itertools import permutations
from pathlib import Path

from .arith import factorize, is_prime, multiplicative_order
from .errors import GroupConstructionError, NotCoprime, TooLarge, UnsupportedParameter
from .groups import (
    MAX_ORDER,
    FiniteGroup,
    _trusted_group,
    direct_product,
    group_from_json,
    group_to_json,
    is_isomorphic,
    semidirect_product,
)
from .records import record


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise UnsupportedParameter(f"cyclic order must be >= 1, got {n}")
    if n > MAX_ORDER:
        raise TooLarge(f"order {n} exceeds cap {MAX_ORDER}")
    rows = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return _trusted_group(rows, name=f"Z{n}")


def elementary_abelian(p: int, d: int) -> FiniteGroup:
    """(Z_p)^d with vectors encoded as base-p digit strings."""
    if d >= 1 and p > MAX_ORDER:  # the order p^d is at least p
        raise TooLarge(f"E{p}^{d} has order at least {p} above the cap {MAX_ORDER}")
    if not is_prime(p):
        raise UnsupportedParameter(f"{p} is not prime")
    if d < 1:
        raise UnsupportedParameter(f"rank must be >= 1, got {d}")
    n = p ** d
    if n > MAX_ORDER:
        raise TooLarge(f"order {n} exceeds cap {MAX_ORDER}")

    def add(a: int, b: int) -> int:
        out = 0
        mult = 1
        for _ in range(d):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    rows = tuple(tuple(add(i, j) for j in range(n)) for i in range(n))
    return _trusted_group(rows, name=f"E{p}^{d}")


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n; elements r^i and r^i*s."""
    if n < 3:
        raise UnsupportedParameter(f"dihedral needs n >= 3, got {n}")
    if 2 * n > MAX_ORDER:
        raise TooLarge(f"order {2 * n} exceeds cap {MAX_ORDER}")

    # encode r^i as 2i, r^i s as 2i+1
    def mul(a: int, b: int) -> int:
        i, fa = divmod(a, 2)
        j, fb = divmod(b, 2)
        if fa == 0:
            return ((i + j) % n) * 2 + fb
        return ((i - j) % n) * 2 + (1 - fb)

    rows = tuple(tuple(mul(a, b) for b in range(2 * n)) for a in range(2 * n))
    return _trusted_group(rows, name=f"D{n}")


def quaternion() -> FiniteGroup:
    """The quaternion group of order 8 on {1,-1,i,-i,j,-j,k,-k}."""
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
    rows = tuple(tuple(index[unit_mul(a, b)] for b in names) for a in names)
    return _trusted_group(rows, name="Q8")


def symmetric(n: int) -> FiniteGroup:
    """S_n on permutations in lexicographic order; identity first."""
    if not 1 <= n <= 5:
        raise UnsupportedParameter(f"symmetric supports 1..5, got {n}")
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    rows = tuple(
        tuple(index[tuple(a[b[x]] for x in range(n))] for b in perms)
        for a in perms)
    return _trusted_group(rows, name=f"S{n}")


def alternating(n: int) -> FiniteGroup:
    if not 1 <= n <= 5:
        raise UnsupportedParameter(f"alternating supports 1..5, got {n}")

    def parity(p) -> int:
        inv = sum(1 for i in range(len(p)) for j in range(i) if p[j] > p[i])
        return inv % 2

    perms = sorted(p for p in permutations(range(n)) if parity(p) == 0)
    index = {p: i for i, p in enumerate(perms)}
    rows = tuple(
        tuple(index[tuple(a[b[x]] for x in range(n))] for b in perms)
        for a in perms)
    return _trusted_group(rows, name=f"A{n}")


# ---------------------------------------------------------------------------
# Field-action groups


def _digits(i: int, p: int, d: int) -> tuple[int, ...]:
    """The d lowest base-p digits of i, least significant first."""
    return tuple(i // p ** k % p for k in range(d))


def _poly_mul_mod(a: tuple[int, ...], b: tuple[int, ...],
                  modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    d = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] = (prod[i + j] + ca * cb) % p
    # reduce modulo the monic modulus
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(d + 1):
                prod[k - d + j] = (prod[k - d + j] - c * modulus[j]) % p
    out = prod[:d] + [0] * (d - len(prod[:d]))
    return tuple(out)


def _poly_divisible(poly: tuple[int, ...], divisor: tuple[int, ...], p: int) -> bool:
    rem = list(poly)
    dd = len(divisor) - 1
    lead_inv = pow(divisor[-1], -1, p)
    for k in range(len(rem) - 1, dd - 1, -1):
        c = rem[k]
        if c:
            factor = (c * lead_inv) % p
            for j in range(dd + 1):
                rem[k - dd + j] = (rem[k - dd + j] - factor * divisor[j]) % p
    return not any(rem[:dd])


def _least_irreducible(p: int, d: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree d over the prime field."""
    if d == 1:
        return (0, 1)  # the polynomial x

    def monics(degree):
        for code in range(p ** degree):
            yield _digits(code, p, degree) + (1,)

    lower = [g for degree in range(1, d // 2 + 1) for g in monics(degree)]
    return next(candidate for candidate in monics(d)
                if not any(_poly_divisible(candidate, g, p) for g in lower))


def field_action_group(n: int, p: int) -> FiniteGroup:
    """An elementary abelian p-group extended by a cyclic group of order n
    acting faithfully by multiplication in the smallest field containing an
    element of multiplicative order n.

    The degenerate case n = 1 returns the cyclic group of order p.
    """
    if n < 1:
        raise UnsupportedParameter(f"n must be >= 1, got {n}")
    # the order p^d * n is at least p * n; is_prime(p) and
    # multiplicative_order(p, n) would take too long on huge parameters
    if p * n > MAX_ORDER:
        raise TooLarge(f"order {p} exceeds cap {MAX_ORDER}" if n == 1 else
                       f"E({n}|{p}) has order at least {p * n} above the cap {MAX_ORDER}")
    if not is_prime(p):
        raise UnsupportedParameter(f"{p} is not prime")
    if n == 1:
        G = cyclic(p)
        return _trusted_group(G.table, name=f"E(1|{p})")
    if math.gcd(n, p) != 1:
        raise NotCoprime(f"need gcd(n, p) = 1, got n={n}, p={p}")
    d = multiplicative_order(p, n)
    size = p ** d
    if size * n > MAX_ORDER:
        raise TooLarge(
            f"E({n}|{p}) has order {size * n} above the cap {MAX_ORDER}")
    modulus = _least_irreducible(p, d)

    # element i is the polynomial whose coefficients are i's base-p digits
    elements = [_digits(i, p, d) for i in range(size)]
    index = {x: i for i, x in enumerate(elements)}
    one = (1,) + (0,) * (d - 1)

    def order_up_to_n(x: tuple[int, ...]) -> int:  # n + 1 for any larger order
        power, order = x, 1
        while power != one and order <= n:
            power, order = _poly_mul_mod(power, x, modulus, p), order + 1
        return order

    # least field element of multiplicative order exactly n: the group of
    # units is cyclic of order p^d - 1, which n divides
    zeta = next(x for x in elements[1:] if order_up_to_n(x) == n)

    additive = elementary_abelian(p, d)
    cyc = cyclic(n)
    action = []
    # identity scalar, then successive powers of zeta
    scalar = one
    for _ in range(n):
        perm = tuple(index[_poly_mul_mod(elements[i], scalar, modulus, p)]
                     for i in range(size))
        action.append(perm)
        scalar = _poly_mul_mod(scalar, zeta, modulus, p)
    G = semidirect_product(additive, cyc, action)
    return _trusted_group(G.table, name=f"E({n}|{p})")


# ---------------------------------------------------------------------------
# The catalog


@record
class CatalogEntry:
    group: FiniteGroup
    tags: tuple[str, ...]
    provenance: str


@record
class CatalogConfig:
    max_order: int = 60


CYCLIC_MAX = 16
ABELIAN_MAX = 27
DIHEDRAL_MAX = 12
FIELD_ACTION_PARAMS = (
    (2, 3), (3, 2), (2, 5), (4, 3), (4, 5), (2, 7), (3, 7), (6, 7),
    (5, 11), (8, 3), (9, 2),
)
PRODUCT_PAIRS = (
    ("S3", "Z2"), ("S3", "Z3"), ("S3", "Z4"), ("S3", "Z5"), ("S3", "S3"),
    ("A4", "Z2"), ("A4", "Z3"), ("A4", "Z4"), ("D4", "Z2"), ("D4", "Z3"),
    ("Q8", "Z2"), ("Q8", "Z3"), ("S4", "Z2"),
)


def _partitions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def _abelian_groups_upto(bound: int):
    """All abelian groups of order 2..bound via prime-power partitions."""
    for m in range(2, bound + 1):
        factor_lists = []
        for p, a in sorted(factorize(m).items()):
            factor_lists.append([(p, part) for part in _partitions(a)])
        combos = [()]
        for options in factor_lists:
            combos = [c + (opt,) for c in combos for opt in options]
        for combo in combos:
            cyclic_orders = []
            for p, partition in combo:
                cyclic_orders.extend(p ** e for e in partition)
            cyclic_orders.sort(reverse=True)
            if len(cyclic_orders) == 1:
                continue  # plain cyclic groups come from the cyclic builder
            G = cyclic(cyclic_orders[0])
            for q in cyclic_orders[1:]:
                G = direct_product(G, cyclic(q))
            name = "x".join(f"Z{q}" for q in cyclic_orders)
            yield _trusted_group(G.table, name=name), f"abelian({cyclic_orders})"


def compute_tags(G: FiniteGroup) -> tuple[str, ...]:
    from .classes import (
        ABELIAN, NILPOTENT, SOLUBLE, SUPERSOLUBLE, is_member, is_schmidt,
    )

    tags = []
    if G.order == 1:
        tags.append("trivial")
    if any(o == G.order for o in G.element_order):
        tags.append("cyclic")
    if is_member(G, ABELIAN):
        tags.append("abelian")
    if is_member(G, NILPOTENT):
        tags.append("nilpotent")
    if is_member(G, SUPERSOLUBLE):
        tags.append("supersoluble")
    if is_member(G, SOLUBLE):
        tags.append("soluble")
    else:
        tags.append("nonsoluble")
    if is_schmidt(G):
        tags.append("schmidt")
    return tuple(sorted(tags))


def lint_catalog(entries) -> list[str]:
    """Recompute predicate tags; report mismatches as messages."""
    problems = []
    for e in entries:
        fresh = compute_tags(e.group)
        if fresh != e.tags:
            problems.append(
                f"{e.group.name}: stored tags {e.tags} != computed {fresh}")
    return problems


def build_catalog(config: CatalogConfig | None = None) -> list[CatalogEntry]:
    """Deterministic curated catalog, deduplicated up to isomorphism."""
    max_order = (config or CatalogConfig()).max_order
    candidates: list[tuple[FiniteGroup, str]] = []

    for k in range(1, min(CYCLIC_MAX, max_order) + 1):
        candidates.append((cyclic(k), f"cyclic({k})"))
    for G, prov in _abelian_groups_upto(min(ABELIAN_MAX, max_order)):
        candidates.append((G, prov))
    for k in range(3, min(DIHEDRAL_MAX, max_order // 2) + 1):
        candidates.append((dihedral(k), f"dihedral({k})"))
    if 8 <= max_order:
        candidates.append((quaternion(), "quaternion()"))
    for k in (3, 4):
        if math.factorial(k) <= max_order:
            candidates.append((symmetric(k), f"symmetric({k})"))
    if 12 <= max_order:
        candidates.append((alternating(4), "alternating(4)"))
    if 60 <= max_order:
        candidates.append((alternating(5), "alternating(5)"))
    for n, p in FIELD_ACTION_PARAMS:
        try:
            E = field_action_group(n, p)
        except TooLarge:
            continue
        if E.order <= max_order:
            candidates.append((E, f"field_action_group({n},{p})"))
    named = {"S3": symmetric(3), "S4": symmetric(4), "A4": alternating(4),
             "D4": dihedral(4), "Q8": quaternion(),
             "Z2": cyclic(2), "Z3": cyclic(3), "Z4": cyclic(4), "Z5": cyclic(5)}
    for left, right in PRODUCT_PAIRS:
        G = direct_product(named[left], named[right])
        if G.order <= max_order:
            candidates.append((G, f"direct_product({left},{right})"))

    accepted: list[CatalogEntry] = []
    for G, provenance in candidates:
        if any(e.group.order == G.order and is_isomorphic(e.group, G)
               for e in accepted):
            continue
        accepted.append(CatalogEntry(G, compute_tags(G), provenance))
    accepted.sort(key=lambda e: (e.group.order, e.group.name))
    return accepted


# ---------------------------------------------------------------------------
# Persistence


def _slug(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name)


def write_catalog(entries, out_dir: str | Path) -> Path:
    out_dir = Path(out_dir)
    groups_dir = out_dir / "groups"
    groups_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for e in entries:
        fname = f"{e.group.order:04d}_{_slug(e.group.name)}.json"
        (groups_dir / fname).write_text(group_to_json(e.group), encoding="utf-8")
        manifest.append({
            "file": f"groups/{fname}",
            "name": e.group.name,
            "order": e.group.order,
            "tags": list(e.tags),
            "provenance": e.provenance,
        })
    manifest.sort(key=lambda row: (row["order"], row["name"]))
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _catalog_rows(cat_dir: Path) -> list[dict]:
    return json.loads((cat_dir / "manifest.json").read_text(encoding="utf-8"))


def _load_entry(cat_dir: Path, row: dict) -> CatalogEntry:
    """One manifest row's group, through full table validation."""
    G = group_from_json((cat_dir / row["file"]).read_text(encoding="utf-8"))
    if G.order != row["order"]:
        raise GroupConstructionError(
            f"manifest order mismatch for {row['name']}")
    return CatalogEntry(G, tuple(row["tags"]), row["provenance"])


def read_catalog(cat_dir: str | Path) -> list[CatalogEntry]:
    """Load a persisted catalog; groups go through full table validation."""
    cat_dir = Path(cat_dir)
    return [_load_entry(cat_dir, row) for row in _catalog_rows(cat_dir)]


def read_catalog_entry(cat_dir: str | Path, name: str) -> CatalogEntry | None:
    """The first catalog entry the manifest lists under `name`, or None.

    Only that entry's table is read and validated.
    """
    cat_dir = Path(cat_dir)
    for row in _catalog_rows(cat_dir):
        if row["name"] == name:
            return _load_entry(cat_dir, row)
    return None
