"""Finite groups as full Cayley tables over element indices 0..n-1.

The identity is pinned at index 0.  Groups and subgroups are immutable after
construction.  Everything computed later from a group (its cyclic table,
conjugacy classes, derived series, materialized subgroups, quotients, and in
other modules its subgroup lattice, chief series and chain steps) goes through
one decorator, `memoized`, which stores `fn(G, *args)` in the group's single
memo under the key `(fn.__qualname__, *args)`.  Each entry is a deterministic
function of the group and the key, so sharing instances stays safe.  Keys hold
only values that compare by value (element tuples, ints, spec records), never
a group or a subgroup: groups compare by identity, so such a key would miss
for every equal copy of its group.

Sets are closed under multiplication one way, by Dimino's coset step
(`_coset_extension`; Holt, Eick and O'Brien, Handbook of Computational Group
Theory), which `_dimino` folds over a seed; a section upper/lower becomes a
standalone group one way, through `section`.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from bisect import bisect_left
from functools import cached_property, wraps
from math import gcd
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import (
    ActionNotAutomorphism,
    ActionNotHomomorphism,
    GroupConstructionError,
    NoIdentityAtZero,
    NotAssociative,
    NotInvertible,
    NotNormal,
    SizeCapExceeded,
)
from .records import record

# the largest group any operation will accept
MAX_ORDER = 512

Row = tuple[int, ...]
Table = tuple[Row, ...]


class FiniteGroup:
    """A finite group: order, multiplication table, inverses, element orders."""

    __slots__ = ("name", "order", "table", "inverse", "element_order",
                 "fingerprint", "_memo")

    def __init__(self, table: Table, name: str, inverse: Row,
                 element_order: Row, fingerprint: str):
        self.name = name
        self.order = len(table)
        self.table = table
        self.inverse = inverse
        self.element_order = element_order
        self.fingerprint = fingerprint
        self._memo: dict = {}

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def conjugate(self, a: int, g: int) -> int:
        """g * a * g^-1."""
        t = self.table
        return t[t[g][a]][self.inverse[g]]

    def commutator(self, a: int, b: int) -> int:
        """a^-1 * b^-1 * a * b."""
        t = self.table
        inv = self.inverse
        return t[t[t[inv[a]][inv[b]]][a]][b]

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


_MISSING = object()


def memoized(fn):
    """Memoize fn(G, *args) in G's memo under (fn.__qualname__, *args).

    The arguments after G form the key, so they must be hashable plain values
    that do not refer back to a group.  A call that raises stores nothing.
    """
    name = fn.__qualname__

    @wraps(fn)
    def cached(G, *args):
        key = (name, *args)
        got = G._memo.get(key, _MISSING)
        if got is _MISSING:
            got = G._memo[key] = fn(G, *args)
        return got

    return cached


def _fingerprint(table: Table) -> str:
    n = len(table)
    h = hashlib.sha256()
    h.update(n.to_bytes(4, "big"))
    flat = array("i")
    for row in table:
        flat.extend(row)
    h.update(flat.tobytes())
    return h.hexdigest()


def _element_orders(table: Table) -> Row:
    orders = []
    for a in range(len(table)):
        x = table[0][a]
        k = 1
        while x != 0:
            x = table[x][a]
            k += 1
        orders.append(k)
    return tuple(orders)


def _normalize_table(table: Sequence[Sequence[int]]) -> Table:
    n = len(table)
    if n < 1:
        raise GroupConstructionError("table must have at least one row")
    rows = []
    for i, row in enumerate(table):
        row = tuple(map(int, row))
        if len(row) != n:
            raise GroupConstructionError(f"row {i} has length {len(row)}, expected {n}")
        if min(row) < 0 or max(row) >= n:
            x = next(x for x in row if x < 0 or x >= n)
            raise GroupConstructionError(f"entry {x} in row {i} out of range 0..{n - 1}")
        rows.append(row)
    return tuple(rows)


def _check_identity(table: Table) -> None:
    for a in range(len(table)):
        if table[0][a] != a or table[a][0] != a:
            raise NoIdentityAtZero(f"index 0 is not a two-sided identity at element {a}")


def _compute_inverses(table: Table) -> Row:
    inv = []
    for a, row in enumerate(table):
        b = row.index(0) if 0 in row else None
        if b is None or table[b][a] != 0:
            raise NotInvertible(f"element {a} has no two-sided inverse")
        inv.append(b)
    return tuple(inv)


def _check_associativity(table: Table) -> None:
    """Light's associativity test, for a table with identity 0.

    The elements g with (x*g)*y = x*(g*y) for all x, y include the identity
    and are closed under products (apply the law for g and for h twice each
    to (x*(g*h))*y).  `_dimino`, folded over every index, reaches only
    products of the generators it picks, and every index is either reached
    or picked; so when the generators pass, every element does, and the law
    needs checking only for them, at most log2(n) of them in a group.  For
    each (x, g) the check compares the row of x*g with the row of x read
    through the row of g, one tuple comparison.

    On a failure, the lexicographically first failing triple is found by a
    per-(a, b) row comparison and named in the error.
    """
    for g in _generating_sequence(table, range(len(table))):
        through_g = _coset_getter(table[g])
        if any(table[row[g]] != through_g(row) for row in table):
            break
    else:
        return
    through = [_coset_getter(row) for row in table]
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            left, right = table[ab], through[b](row)
            if left != right:
                c = next(c for c, (x, y) in enumerate(zip(left, right)) if x != y)
                raise NotAssociative(f"(a*b)*c != a*(b*c) at indices a={a}, b={b}, c={c}")


def build_group(table: Sequence[Sequence[int]], name: str = "G") -> FiniteGroup:
    """Validate a Cayley table and return the group it defines."""
    rows = _normalize_table(table)
    if len(rows) > MAX_ORDER:
        raise SizeCapExceeded(f"order {len(rows)} exceeds cap {MAX_ORDER}")
    _check_identity(rows)
    inverse = _compute_inverses(rows)
    _check_associativity(rows)
    return FiniteGroup(rows, name, inverse, _element_orders(rows), _fingerprint(rows))


def _trusted_group(rows: Table, name: str) -> FiniteGroup:
    """Construct from a table that is associative by construction.

    Used for subgroups, quotients and products of already-validated groups;
    identity and inverse bookkeeping is still recomputed.
    """
    inverse = _compute_inverses(rows)
    return FiniteGroup(rows, name, inverse, _element_orders(rows), _fingerprint(rows))


def group_to_json(G: FiniteGroup) -> str:
    payload = {"name": G.name, "order": G.order, "table": [list(r) for r in G.table]}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def group_from_json(text: str) -> FiniteGroup:
    """Load a group from the JSON Cayley-table format, with full validation."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GroupConstructionError(f"group file is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise GroupConstructionError("group file must hold a JSON object")
    missing = [key for key in ("name", "order", "table") if key not in payload]
    if missing:
        raise GroupConstructionError(f"group file lacks {', '.join(missing)}")
    table = payload["table"]
    if not (isinstance(table, list) and all(
            isinstance(row, list) and all(type(x) is int for x in row) for row in table)):
        raise GroupConstructionError("group table must be a list of rows of integers")
    if payload["order"] != len(table):
        raise GroupConstructionError("declared order does not match table size")
    return build_group(table, name=str(payload["name"]))


# ---------------------------------------------------------------------------
# Subgroups


@record
class Subgroup:
    """A subgroup of `parent`, stored as a strictly sorted index tuple."""

    parent: FiniteGroup
    elems: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elems)

    def __contains__(self, x: int) -> bool:
        return x in self.elem_set

    @cached_property
    def elem_set(self) -> frozenset[int]:
        return frozenset(self.elems)

    def is_full(self) -> bool:
        return len(self.elems) == self.parent.order

    def as_group(self) -> FiniteGroup:
        """This subgroup as a standalone group (relabeled, memoized)."""
        return materialize(self.parent, self.elems)

    def __repr__(self) -> str:
        return f"Subgroup(of={self.parent.name}, order={self.order})"


def subgroup(parent: FiniteGroup, elems: Iterable[int]) -> Subgroup:
    """Validated subgroup: sorted, contains the identity, closed, Lagrange."""
    sorted_elems = tuple(sorted(set(int(x) for x in elems)))
    if not sorted_elems or sorted_elems[0] != 0:
        raise GroupConstructionError("a subgroup must contain the identity index 0")
    eset = set(sorted_elems)
    table = parent.table
    for a in sorted_elems:
        if a >= parent.order:
            raise GroupConstructionError(f"index {a} outside the parent group")
        row = table[a]
        for b in sorted_elems:
            if row[b] not in eset:
                raise GroupConstructionError(
                    f"not closed: {a}*{b} = {row[b]} is outside the set")
    if parent.order % len(sorted_elems) != 0:
        raise GroupConstructionError(
            f"size {len(sorted_elems)} does not divide the group order {parent.order}")
    return Subgroup(parent, sorted_elems)


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, (0,))


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, tuple(range(G.order)))


def _dimino(table: Table, seed: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Element tuple of the subgroup generated by the seed, and its greedy
    generators: each seed element not yet reached extends the subgroup built
    so far by one coset step and becomes the next generator."""
    elems: tuple[int, ...] = (0,)
    gens: tuple[int, ...] = ()
    for g in seed:
        i = bisect_left(elems, g)
        if i == len(elems) or elems[i] != g:  # not yet reached
            elems = _coset_extension(table, elems, gens, g)
            gens += (g,)
    return elems, gens


def _closure(table: Table, seed: Iterable[int]) -> tuple[int, ...]:
    """Element set of the subgroup generated by the seed."""
    return _dimino(table, seed)[0]


def _generating_sequence(table: Table, elems: Iterable[int]) -> tuple[int, ...]:
    """Greedy generators of the subgroup with ascending element list `elems`:
    each is the least element not yet reached from the ones before it."""
    return _dimino(table, elems)[1]


def _coset_getter(elems: tuple[int, ...]):
    """Maps the table row of x to the left coset x*H, for H with element
    tuple `elems`."""
    return itemgetter(*elems) if len(elems) > 1 else (lambda row: (row[0],))


def _coset_extension(table: Table, elems: tuple[int, ...], gens: tuple[int, ...],
                     z: int) -> tuple[int, ...]:
    """Element set of <H, z> for the subgroup H = <gens> with element tuple
    `elems` and z outside it (Dimino's coset step).

    H is already closed, so the join is built from whole left cosets x*H: a
    coset representative x = s*r, for s among the generators and z and r a
    representative found so far, opens a new coset when x is not yet reached.
    The union of cosets is closed under left multiplication by the
    generators, so it is the subgroup they generate.
    """
    coset = _coset_getter(elems)
    seen = set(elems)
    seen.update(coset(table[z]))
    gens = gens + (z,)
    reps = [z]
    for r in reps:
        for s in gens:
            x = table[s][r]
            if x not in seen:
                seen.update(coset(table[x]))
                reps.append(x)
    return tuple(sorted(seen))


def _normal_product(table: Table, normal: tuple[int, ...],
                    other: tuple[int, ...]) -> tuple[int, ...]:
    """Element set of N*M for subgroups N and M with N normalized by M: the
    union of the cosets m*N, m in M.  N*M = M*N is then a subgroup."""
    coset = _coset_getter(normal)
    seen = set(normal)
    for m in other:
        if m not in seen:
            seen.update(coset(table[m]))
    return tuple(sorted(seen))


@memoized
def cyclic_table(G: FiniteGroup) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]]:
    """Per element x, the least generator of <x>; and per such least
    generator, the sorted element tuple of its cyclic subgroup.

    <x, y> depends only on <x> and <y>, so callers that range over pairs of
    elements can range over pairs of least generators instead.  Built in one
    ascending pass: the first element of a cyclic subgroup met is its least
    generator, and it claims every power x^k with k prime to the order of x.
    """
    table = G.table
    leader = [-1] * G.order
    members: dict[int, tuple[int, ...]] = {}
    for x in range(G.order):
        if leader[x] >= 0:
            continue
        powers = [0]
        row = table[x]
        for _ in range(G.element_order[x] - 1):
            powers.append(row[powers[-1]])
        o = len(powers)
        for k, y in enumerate(powers):
            if gcd(k, o) == 1:
                leader[y] = x
        members[x] = tuple(sorted(powers))
    return tuple(leader), members


def generated_subgroup(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """The subgroup generated by the given element indices."""
    gens = tuple(gens)
    for g in gens:
        if not 0 <= g < G.order:
            raise GroupConstructionError(f"generator {g} outside the group")
    return Subgroup(G, _closure(G.table, gens))


@memoized
def materialize(parent: FiniteGroup, elems: tuple[int, ...]) -> FiniteGroup:
    """Relabel a closed element set of `parent` as a standalone group."""
    if len(elems) == parent.order:
        return parent  # the relabelling is the identity, so is the table
    index = {e: i for i, e in enumerate(elems)}
    table = parent.table
    rows = tuple(tuple(index[table[a][b]] for b in elems) for a in elems)
    head = ".".join(map(str, elems[:4])) + (".." if len(elems) > 4 else "")
    return _trusted_group(rows, name=f"{parent.name}|{head}")


def centralizer(G: FiniteGroup, elems: Iterable[int] | Subgroup) -> Subgroup:
    """Elements commuting with every element of the given set."""
    target = elems.elems if isinstance(elems, Subgroup) else tuple(elems)
    table = G.table
    out = [g for g in range(G.order)
           if all(table[g][s] == table[s][g] for s in target)]
    return Subgroup(G, tuple(out))


def center(G: FiniteGroup) -> Subgroup:
    return centralizer(G, range(G.order))


def conjugate_set(G: FiniteGroup, elems: Iterable[int], g: int) -> frozenset[int]:
    table = G.table
    ginv = G.inverse[g]
    row_g = table[g]
    return frozenset(table[row_g[a]][ginv] for a in elems)


def is_normal_in(G: FiniteGroup, inner: frozenset[int], outer: Iterable[int]) -> bool:
    """Whether the closed set `inner` is normalized by every element of `outer`."""
    table = G.table
    inv = G.inverse
    for g in outer:
        row_g = table[g]
        ginv = inv[g]
        for a in inner:
            if table[row_g[a]][ginv] not in inner:
                return False
    return True


def is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    return is_normal_in(G, H.elem_set, range(G.order))


def normal_core(G: FiniteGroup, H: Subgroup,
                within: Iterable[int] | None = None) -> Subgroup:
    """Largest subgroup of H normalized by `within` (default G), for H inside
    it: the intersection of H's conjugates by its elements."""
    core = set(H.elems)
    for g in range(G.order) if within is None else within:
        core &= conjugate_set(G, H.elems, g)
        if len(core) == 1:
            break
    return Subgroup(G, tuple(sorted(core)))


@memoized
def conjugacy_classes(G: FiniteGroup) -> tuple[frozenset[int], ...]:
    """Per element, its conjugacy class, each class computed once."""
    table = G.table
    inv = G.inverse
    classes: list[frozenset[int] | None] = [None] * G.order
    for a in range(G.order):
        if classes[a] is None:
            got = frozenset(table[table[g][a]][inv[g]] for g in range(G.order))
            for b in got:
                classes[b] = got
    return tuple(classes)


def normal_closure(G: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    """Smallest normal subgroup of G containing the seed elements: the
    subgroup generated by the union of the seed's conjugacy classes, each
    class looked up once (`conjugacy_classes`)."""
    classes = conjugacy_classes(G)
    union: set[int] = set()
    for a in seed:
        if a not in union:
            union |= classes[a]
    return Subgroup(G, _closure(G.table, sorted(union)))


def derived_subgroup(G: FiniteGroup, elems: tuple[int, ...]) -> tuple[int, ...]:
    """Commutator subgroup of the subgroup H with ascending element tuple
    `elems`: the normal closure in H of the commutators of H's greedy
    generators.

    For H = <X>, that closure N lies in H', and H/N is abelian because the
    images of X commute; so N = H'.  The commutators' conjugates under every
    element of H generate N.
    """
    table = G.table
    inv = G.inverse
    gens = _generating_sequence(table, elems)
    comms = {G.commutator(a, b) for i, a in enumerate(gens) for b in gens[:i]}
    comms.discard(0)
    return _closure(table, {table[table[h][c]][inv[h]] for h in elems for c in comms})


@memoized
def derived_series(G: FiniteGroup, elems: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Derived series of the subgroup with element set `elems`, from `elems`
    down to the first term that equals its own commutator subgroup.

    The series ends in the trivial subgroup exactly when the subgroup is soluble.
    """
    series = [elems]
    while (nxt := derived_subgroup(G, series[-1])) != series[-1]:
        series.append(nxt)
    return tuple(series)


# ---------------------------------------------------------------------------
# Homomorphisms, quotients, products


@record
class GroupHom:
    """A verified homomorphism, stored as an index map."""

    source: FiniteGroup
    target: FiniteGroup
    image: tuple[int, ...]


def group_hom(source: FiniteGroup, target: FiniteGroup,
              image: Sequence[int]) -> GroupHom:
    image = tuple(int(x) for x in image)
    if len(image) != source.order:
        raise GroupConstructionError("image map has the wrong length")
    if image[0] != 0:
        raise GroupConstructionError("a homomorphism must send identity to identity")
    ts, tt = source.table, target.table
    for a in range(source.order):
        ia = image[a]
        row = ts[a]
        for b in range(source.order):
            if image[row[b]] != tt[ia][image[b]]:
                raise GroupConstructionError(
                    f"not a homomorphism at pair ({a}, {b})")
    return GroupHom(source, target, image)


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """G/N with cosets ordered by minimal element, plus the projection."""
    return _quotient(G, N.elems)


@memoized
def _quotient(G: FiniteGroup, elems: tuple[int, ...]) -> tuple[FiniteGroup, GroupHom]:
    if not is_normal_in(G, frozenset(elems), range(G.order)):
        raise NotNormal(f"subgroup of order {len(elems)} is not normal in {G.name}")
    if len(elems) == 1:  # the cosets are the elements: G itself, identity hom
        return G, GroupHom(G, G, tuple(range(G.order)))
    table = G.table
    coset_of = [-1] * G.order
    reps: list[int] = []
    for g in range(G.order):
        if coset_of[g] >= 0:
            continue
        members = sorted(table[g][x] for x in elems)
        idx = len(reps)
        reps.append(members[0])
        for m in members:
            coset_of[m] = idx
    # cosets are discovered in order of their minimal element, so reps is sorted
    q = len(reps)
    rows = tuple(tuple(coset_of[table[reps[i]][reps[j]]] for j in range(q))
                 for i in range(q))
    Q = _trusted_group(rows, name=f"{G.name}/n{len(elems)}")
    return Q, GroupHom(G, Q, tuple(coset_of))


def section(G: FiniteGroup, upper: tuple[int, ...],
            lower: Iterable[int]) -> tuple[FiniteGroup, GroupHom]:
    """upper/lower as a standalone group, for a subgroup of G with ascending
    element tuple `upper` and a normal subgroup `lower` of it, plus the
    projection, which maps positions in `upper` (`materialize`'s labels)."""
    pos = {e: i for i, e in enumerate(upper)}
    return _quotient(materialize(G, upper), tuple(sorted(pos[e] for e in lower)))


def direct_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    """A x B with pairs (a, b) encoded as a*|B| + b."""
    nb = B.order
    ta, tb = A.table, B.table
    rows = []
    for a1 in range(A.order):
        row_a = ta[a1]
        for b1 in range(nb):
            row_b = tb[b1]
            rows.append(tuple(row_a[a2] * nb + row_b[b2]
                              for a2 in range(A.order) for b2 in range(nb)))
    return _trusted_group(tuple(rows), name=f"{A.name}x{B.name}")


def _check_automorphism(N: FiniteGroup, perm: Sequence[int], label: str) -> None:
    if sorted(perm) != list(range(N.order)) or perm[0] != 0:
        raise ActionNotAutomorphism(f"action[{label}] is not a permutation fixing 0")
    t = N.table
    for a in range(N.order):
        pa = perm[a]
        for b in range(N.order):
            if perm[t[a][b]] != t[pa][perm[b]]:
                raise ActionNotAutomorphism(
                    f"action[{label}] breaks multiplication at ({a}, {b})")


def semidirect_product(N: FiniteGroup, H: FiniteGroup,
                       action: Sequence[Sequence[int]]) -> FiniteGroup:
    """N x| H for a homomorphism H -> Aut(N) given as permutations of N.

    Pairs (n, h) are encoded as n*|H| + h; multiplication is
    (n1, h1)(n2, h2) = (n1 * action[h1](n2), h1 h2).
    """
    if len(action) != H.order:
        raise ActionNotHomomorphism("need one automorphism per element of H")
    perms = [tuple(int(x) for x in p) for p in action]
    for h, perm in enumerate(perms):
        _check_automorphism(N, perm, str(h))
    th = H.table
    for h1 in range(H.order):
        for h2 in range(H.order):
            composed = tuple(perms[h1][perms[h2][x]] for x in range(N.order))
            if composed != perms[th[h1][h2]]:
                raise ActionNotHomomorphism(
                    f"action is not a homomorphism at pair ({h1}, {h2})")
    nh = H.order
    tn = N.table
    rows = []
    for n1 in range(N.order):
        row_n = tn[n1]
        for h1 in range(nh):
            row_h = th[h1]
            act = perms[h1]
            rows.append(tuple(row_n[act[n2]] * nh + row_h[h2]
                              for n2 in range(N.order) for h2 in range(nh)))
    return _trusted_group(tuple(rows), name=f"{N.name}:|{H.name}")


# ---------------------------------------------------------------------------
# Isomorphism testing


@memoized
def _iso_screen(G: FiniteGroup) -> tuple:
    return (
        G.order,
        tuple(sorted(G.element_order)),
        center(G).order,
        tuple(len(t) for t in derived_series(G, tuple(range(G.order)))),
    )


def _extend_partial_iso(A: FiniteGroup, B: FiniteGroup,
                        amap: dict[int, int], g: int, b: int) -> dict[int, int] | None:
    """Extend a partial isomorphism by g -> b; None when inconsistent."""
    m = dict(amap)
    if g in m:
        return m if m[g] == b else None
    m[g] = b
    elems = list(amap) + [g]
    ta, tb = A.table, B.table
    i = 0
    while i < len(elems):
        x = elems[i]
        mx = m[x]
        for j in range(i + 1):
            y = elems[j]
            my = m[y]
            for prod, iprod in ((ta[x][y], tb[mx][my]), (ta[y][x], tb[my][mx])):
                known = m.get(prod)
                if known is None:
                    m[prod] = iprod
                    elems.append(prod)
                elif known != iprod:
                    return None
        i += 1
    if len(set(m.values())) != len(m):
        return None
    return m


def isomorphism(A: FiniteGroup, B: FiniteGroup) -> GroupHom | None:
    """An isomorphism A -> B, or None.

    Screens on cheap invariants first, then backtracks over generator images
    constrained to elements of equal order.
    """
    if A.order != B.order:
        return None
    if _iso_screen(A) != _iso_screen(B):
        return None
    gens = _generating_sequence(A.table, range(A.order))
    if not gens:  # trivial group
        return GroupHom(A, B, (0,))
    by_order: dict[int, list[int]] = {}
    for x in range(B.order):
        by_order.setdefault(B.element_order[x], []).append(x)

    def search(k: int, amap: dict[int, int]) -> dict[int, int] | None:
        if k == len(gens):
            return amap if len(amap) == A.order else None
        g = gens[k]
        taken = set(amap.values())
        for b in by_order.get(A.element_order[g], ()):
            if b in taken:
                continue
            extended = _extend_partial_iso(A, B, amap, g, b)
            if extended is not None:
                found = search(k + 1, extended)
                if found is not None:
                    return found
        return None

    mapping = search(0, {0: 0})
    if mapping is None:
        return None
    return GroupHom(A, B, tuple(mapping[a] for a in range(A.order)))


def is_isomorphic(A: FiniteGroup, B: FiniteGroup) -> bool:
    return isomorphism(A, B) is not None
