"""Builders for the standard small groups and a persisted, tagged catalog.

Every group is built one of three ways: as a permutation group on its
listed elements (`symmetric`, `alternating`, `quaternion`), as a direct
product of cyclic groups (`elementary_abelian` and the catalog's abelian
groups), or as a semidirect product (`dihedral`, `field_action_group`).
A permutation group composes permutations only for its greedy generators;
every other row is a generator's row read through an earlier row (Holt, Eick
and O'Brien, Handbook of Computational Group Theory: a Cayley table from
generator images).  `named_group` is the one table from builder tokens
(S3, Z12, D6, E(4|3), ...) to groups; the CLI reads it.  The catalog builds
only the candidates whose order fits its bound, and takes its products'
factors from its own candidates, plus S3, which is a factor but no entry
(the catalog holds it as D3).  No two candidates are isomorphic, so every
candidate is an entry and the build runs no isomorphism search; a test
checks that invariant.

Every builder is deterministic.  E-type groups (an elementary abelian group
extended by a cyclic group of coprime order acting by field multiplication)
use the lexicographically least monic irreducible polynomial and the least
field element of the right multiplicative order, so tables are reproducible
bit for bit.
"""

from __future__ import annotations

import json
import re
from functools import reduce
from itertools import permutations
from math import gcd
from pathlib import Path

from .arith import factorize, is_prime, multiplicative_order
from .errors import (
    FormatioError,
    GroupConstructionError,
    NotCoprime,
    TooLarge,
    UnsupportedParameter,
)
from .groups import (
    MAX_ORDER,
    FiniteGroup,
    _reader,
    _trusted_group,
    direct_product,
    group_from_json,
    group_to_json,
    parse_json,
    semidirect_product,
)
from .records import record


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise UnsupportedParameter(f"cyclic order must be >= 1, got {n}")
    if n > MAX_ORDER:
        raise TooLarge(f"order {n} exceeds cap {MAX_ORDER}")
    elems = tuple(range(n))
    rows = tuple(elems[i:] + elems[:i] for i in range(n))
    return FiniteGroup(rows, f"Z{n}", (0,) + elems[:0:-1],
                       tuple(n // gcd(i, n) for i in elems))


def _renamed(G: FiniteGroup, name: str) -> FiniteGroup:
    """G's table under another name, with its bookkeeping shared."""
    return FiniteGroup(G.table, name, G.inverse, G.element_order, G.fingerprint)


def _cyclic_product(orders, name: str) -> FiniteGroup:
    """Z_q1 x Z_q2 x ... for the listed orders, encoded by `direct_product`:
    the element with coordinates (c1, c2, ...) is c1*q2*q3*... + c2*q3*... + ..."""
    return _renamed(reduce(direct_product, map(cyclic, orders)), name)


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation a*b, which maps x to a[b[x]]."""
    return tuple(map(a.__getitem__, b))


def _permutation_group(perms, name: str) -> FiniteGroup:
    """The group of the listed permutations of 0..m-1, identity first.

    Only the greedy generators s (each the least element not yet reached)
    have their rows composed, one permutation product per element.  Every
    other element y is reached as s*x with the row of x known, and its row
    is the row of s read through the row of x, as (s*x)*c = s*(x*c).
    """
    index = {p: i for i, p in enumerate(perms)}
    rows: list = [None] * len(perms)
    rows[0] = tuple(range(len(perms)))
    reached, gens = [0], []
    for g, perm in enumerate(perms):
        if rows[g] is not None:
            continue
        rows[g] = tuple(index[_compose(perm, b)] for b in perms)
        gens.append(g)
        reached.append(g)
        for x in reached:  # visits the elements appended on the way
            read = _reader(rows[x])
            for s in gens:
                y = rows[s][x]
                if rows[y] is None:
                    rows[y] = read(rows[s])
                    reached.append(y)
    return _trusted_group(tuple(rows), name)


def elementary_abelian(p: int, d: int) -> FiniteGroup:
    """(Z_p)^d, element i the vector of i's d base-p digits."""
    if d >= 1 and p > MAX_ORDER:  # the order p^d is at least p
        raise TooLarge(f"E{p}^{d} has order at least {p} above the cap {MAX_ORDER}")
    if not is_prime(p):
        raise UnsupportedParameter(f"{p} is not prime")
    if d < 1:
        raise UnsupportedParameter(f"rank must be >= 1, got {d}")
    n = p ** d
    if n > MAX_ORDER:
        raise TooLarge(f"order {n} exceeds cap {MAX_ORDER}")
    return _cyclic_product((p,) * d, f"E{p}^{d}")


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n: Z_n x| Z_2 with the
    reflection acting by negation, so r^i is 2i and r^i*s is 2i+1."""
    if n < 3:
        raise UnsupportedParameter(f"dihedral needs n >= 3, got {n}")
    if 2 * n > MAX_ORDER:
        raise TooLarge(f"order {2 * n} exceeds cap {MAX_ORDER}")
    rotations = cyclic(n)
    action = (tuple(range(n)), rotations.inverse)
    return _renamed(semidirect_product(rotations, cyclic(2), action), f"D{n}")


def quaternion() -> FiniteGroup:
    """The quaternion group of order 8 on 1, -1, i, -i, j, -j, k, -k, with
    i = (0 1 2 3)(4 5 6 7), j = (0 4 2 6)(1 7 3 5) and k = ij."""
    i, j = (1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)
    minus, k = _compose(i, i), _compose(i, j)
    units = (tuple(range(8)), minus, i, _compose(minus, i), j, _compose(minus, j),
             k, _compose(minus, k))
    return _permutation_group(units, "Q8")


def symmetric(n: int) -> FiniteGroup:
    """S_n on permutations in lexicographic order; identity first."""
    if not 1 <= n <= 5:
        raise UnsupportedParameter(f"symmetric supports 1..5, got {n}")
    return _permutation_group(tuple(permutations(range(n))), f"S{n}")


def alternating(n: int) -> FiniteGroup:
    """A_n on the even permutations in lexicographic order; identity first."""
    if not 1 <= n <= 5:
        raise UnsupportedParameter(f"alternating supports 1..5, got {n}")
    even = tuple(p for p in permutations(range(n))
                 if sum(p[j] > p[i] for i in range(n) for j in range(i)) % 2 == 0)
    return _permutation_group(even, f"A{n}")


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
        return _renamed(cyclic(p), f"E(1|{p})")
    if gcd(n, p) != 1:
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

    # identity scalar, then successive powers of zeta: multiplying by
    # zeta^(k+1) is multiplying by zeta^k and then by zeta, so each action
    # is the previous one read through the step x -> x*zeta
    step = tuple(index[_poly_mul_mod(x, zeta, modulus, p)] for x in elements)
    action = [tuple(range(size))]
    for _ in range(n - 1):
        action.append(_reader(action[-1])(step))
    G = semidirect_product(elementary_abelian(p, d), cyclic(n), action)
    return _renamed(G, f"E({n}|{p})")


_FIXED_NAMES = {
    "S3": lambda: symmetric(3), "S4": lambda: symmetric(4),
    "S5": lambda: symmetric(5), "A4": lambda: alternating(4),
    "A5": lambda: alternating(5), "Q8": quaternion,
}
_NAME_PATTERNS = ((r"Z([0-9]+)", cyclic), (r"D([0-9]+)", dihedral),
                  (r"E\(([0-9]+)\|([0-9]+)\)", field_action_group))


def named_group(token: str) -> FiniteGroup | None:
    """The group a builder name denotes, or None for any other text: S3, S4,
    S5, A4, A5, Q8, Z<n> (`cyclic`), D<n> (`dihedral`) and E(<n>|<p>)
    (`field_action_group`), numbers in ASCII digits."""
    if token in _FIXED_NAMES:
        return _FIXED_NAMES[token]()
    for pattern, builder in _NAME_PATTERNS:
        if m := re.fullmatch(pattern, token):
            params = [x.lstrip("0") or "0" for x in m.groups()]
            # int() refuses digit strings past Python's int-string limit,
            # which is at least 640; a builder's order is at least each of its
            # parameters, so such a parameter is far above the cap
            if max(map(len, params)) > 640:
                raise TooLarge(f"a parameter of {token[:16]}... exceeds the order "
                               f"cap {MAX_ORDER}")
            return builder(*map(int, params))
    return None


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
# no pair below gives a group isomorphic to another candidate, so the pairs
# (2, p), (3, 2) and (S3, Z2) are left out: E(2|p) is D_p, E(3|2) is A4 and
# S3xZ2 is D6
FIELD_ACTION_PARAMS = ((4, 3), (4, 5), (3, 7), (6, 7), (5, 11), (8, 3))
PRODUCT_PAIRS = (
    ("S3", "Z3"), ("S3", "Z4"), ("S3", "Z5"), ("S3", "S3"),
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
    """The abelian groups of order 2..bound, from prime-power partitions.

    A cyclic group is left out where the cyclic builder makes it (order at
    most CYCLIC_MAX) and where its order is a prime power.  So the cyclic
    groups yielded are those of order above CYCLIC_MAX with two or more
    prime divisors, under product names (Z9xZ2, Z5xZ4, ...); Z17, Z19, Z23,
    Z25 and Z27 are in neither builder.
    """
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
            is_cyclic = len(cyclic_orders) == len(combo)  # one part per prime
            if is_cyclic and (m <= CYCLIC_MAX or len(combo) == 1):
                continue
            name = "x".join(f"Z{q}" for q in cyclic_orders)
            yield _cyclic_product(cyclic_orders, name), f"abelian({cyclic_orders})"


def compute_tags(G: FiniteGroup) -> tuple[str, ...]:
    """G's predicate tags.  Cyclic groups are abelian, and abelian within
    nilpotent within supersoluble within soluble, while a Schmidt group is
    not nilpotent and has order p^a q^b for two primes p and q (Schmidt's
    theorem); so each verdict settles the ones it implies, and a predicate
    is tested only where none has settled it."""
    from .classes import (
        ABELIAN, NILPOTENT, SOLUBLE, SUPERSOLUBLE, is_member, is_schmidt,
    )

    is_cyclic = G.order in G.element_order
    abelian = is_cyclic or is_member(G, ABELIAN)
    nilpotent = abelian or is_member(G, NILPOTENT)
    supersoluble = nilpotent or is_member(G, SUPERSOLUBLE)
    soluble = supersoluble or is_member(G, SOLUBLE)
    schmidt = not nilpotent and len(factorize(G.order)) == 2 and is_schmidt(G)
    tags = [tag for tag, holds in (
        ("trivial", G.order == 1), ("cyclic", is_cyclic), ("abelian", abelian),
        ("nilpotent", nilpotent), ("supersoluble", supersoluble),
        ("soluble", soluble), ("nonsoluble", not soluble), ("schmidt", schmidt))
        if holds]
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
    """Deterministic curated catalog of pairwise non-isomorphic groups."""
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
    if 24 <= max_order:
        candidates.append((symmetric(4), "symmetric(4)"))
    if 12 <= max_order:
        candidates.append((alternating(4), "alternating(4)"))
    if 60 <= max_order:
        candidates.append((alternating(5), "alternating(5)"))
    for n, p in FIELD_ACTION_PARAMS:
        if p ** multiplicative_order(p, n) * n <= max_order:
            candidates.append((field_action_group(n, p), f"field_action_group({n},{p})"))
    # every factor of a product pair is a candidate, or S3 (which is D3),
    # exactly when its order fits, so a missing factor rules the product out
    factors = {G.name: G for G, _ in candidates}
    if 6 <= max_order:
        factors["S3"] = symmetric(3)
    for left, right in PRODUCT_PAIRS:
        A, B = factors.get(left), factors.get(right)
        if A is not None and B is not None and A.order * B.order <= max_order:
            candidates.append((direct_product(A, B), f"direct_product({left},{right})"))

    entries = [CatalogEntry(G, compute_tags(G), provenance)
               for G, provenance in candidates]
    entries.sort(key=lambda e: (e.group.order, e.group.name))
    return entries


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


# the type of each field of a manifest row
_MANIFEST_FIELDS = {"file": str, "name": str, "order": int, "tags": list,
                    "provenance": str}


def _catalog_rows(cat_dir: Path) -> list[dict]:
    rows = parse_json((cat_dir / "manifest.json").read_bytes(), "manifest")
    if not isinstance(rows, list):
        raise GroupConstructionError("manifest must hold a JSON list")
    for i, row in enumerate(rows):
        if not (isinstance(row, dict)
                and all(type(row.get(k)) is t for k, t in _MANIFEST_FIELDS.items())
                and all(type(tag) is str for tag in row["tags"])
                and "\0" not in row["file"]):
            raise GroupConstructionError(
                f"manifest row {i} needs a file path, a string name and "
                f"provenance, an integer order and a list of string tags")
    return rows


def _load_entry(cat_dir: Path, row: dict) -> CatalogEntry:
    """One manifest row's group, through full table validation.  An error in
    its group file names the row's group and file."""
    try:
        G = group_from_json((cat_dir / row["file"]).read_bytes())
    except FormatioError as exc:
        raise type(exc)(f"catalog group {row['name']} ({row['file']}): {exc}") from None
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
