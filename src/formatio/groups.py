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

A group's `fingerprint` is its table as an exact dict key (`TableKey`): two
groups with equal tables have equal keys, so verdicts keyed by it are shared
across copies.  A group made by `materialize` keeps one link back, `origin`,
the parent group and the element tuple it was cut from; the subgroup lattice
uses it to read the subgroup's lattice off the parent's, when the parent has
one memoized (`memoized(fn).peek`).

Sets are closed under multiplication one way, by Dimino's coset step
(`_coset_extension`; Holt, Eick and O'Brien, Handbook of Computational Group
Theory), which `_dimino` folds over a seed; a section upper/lower becomes a
standalone group one way, through `section`.  Conjugation acts one way too:
`conjugations(G, elems)` memoizes the conjugation row x -> g*x*g^-1 of each
greedy generator g of <elems> (of G when `elems` is left out).  Normality
tests (`is_normal_in`), cores (`normal_core`) and the subgroup lattice's
conjugation action read those rows, and none conjugates by every element of
a subgroup, as a set is normalized by a subgroup exactly when it is by the
subgroup's generators.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from functools import cached_property, wraps
from itertools import chain
from math import gcd, lcm
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


class TableKey:
    """A Cayley table as a dict key: its hash is computed once, and two keys
    are equal exactly when their tables are."""

    __slots__ = ("table", "_hash")

    def __init__(self, table: Table):
        self.table = table
        self._hash = hash(table)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, TableKey):
            return NotImplemented
        return self.table is other.table or (
            self._hash == other._hash and self.table == other.table)


class FiniteGroup:
    """A finite group: order, multiplication table, inverses, element orders,
    the table's key, and for a materialized subgroup its (parent, elements)."""

    __slots__ = ("name", "order", "table", "inverse", "element_order",
                 "fingerprint", "origin", "_memo")

    def __init__(self, table: Table, name: str, inverse: Row,
                 element_order: Row, fingerprint: TableKey | None = None,
                 origin: tuple[FiniteGroup, tuple[int, ...]] | None = None):
        self.name = name
        self.order = len(table)
        self.table = table
        self.inverse = inverse
        self.element_order = element_order
        self.fingerprint = fingerprint or TableKey(table)
        self.origin = origin
        self._memo: dict = {}

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
    `peek(G, *args)` returns what is stored, or None, and computes nothing.
    """
    name = fn.__qualname__

    @wraps(fn)
    def cached(G, *args):
        key = (name, *args)
        got = G._memo.get(key, _MISSING)
        if got is _MISSING:
            got = G._memo[key] = fn(G, *args)
        return got

    cached.peek = lambda G, *args: G._memo.get((name, *args))
    return cached


def _element_orders(table: Table) -> Row:
    """The order of each element.  The powers a^k of an element a of order m
    have orders m / gcd(k, m), so each cyclic subgroup is walked once, from
    the first element of it met."""
    orders = [0] * len(table)
    for a, row in enumerate(table):
        if not orders[a]:
            powers = [0, a]
            while powers[-1]:
                powers.append(row[powers[-1]])
            m = len(powers) - 1
            for k, y in enumerate(powers[:m]):
                if not orders[y]:
                    orders[y] = m // gcd(k, m)
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
    labels = tuple(range(len(table)))
    if table[0] == labels and tuple(map(itemgetter(0), table)) == labels:
        return
    a = next(a for a in labels if table[0][a] != a or table[a][0] != a)
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
        through_g = _reader(table[g])
        if any(table[row[g]] != through_g(row) for row in table):
            break
    else:
        return
    through = [_reader(row) for row in table]
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            left, right = table[ab], through[b](row)
            if left != right:
                c = next(c for c, (x, y) in enumerate(zip(left, right)) if x != y)
                raise NotAssociative(f"(a*b)*c != a*(b*c) at indices a={a}, b={b}, c={c}")


def build_group(table: Sequence[Sequence[int]], name: str = "G") -> FiniteGroup:
    """Validate a Cayley table and return the group it defines."""
    return _validated(_normalize_table(table), name)


def _validated(rows: Table, name: str) -> FiniteGroup:
    """The group of a table of in-range integer rows, once the size cap, the
    identity, the inverses and associativity pass."""
    if len(rows) > MAX_ORDER:
        raise SizeCapExceeded(f"order {len(rows)} exceeds cap {MAX_ORDER}")
    _check_identity(rows)
    inverse = _compute_inverses(rows)
    _check_associativity(rows)
    return FiniteGroup(rows, name, inverse, _element_orders(rows))


def _trusted_group(rows: Table, name: str) -> FiniteGroup:
    """Construct from a table that is associative by construction.

    Used for quotients and semidirect products of already-validated groups
    and for permutation groups; inverses and element orders are still
    recomputed from the table.
    """
    return FiniteGroup(rows, name, _compute_inverses(rows), _element_orders(rows))


def group_to_json(G: FiniteGroup) -> str:
    """The text of `json.dumps({"name": ..., "order": ..., "table": ...},
    sort_keys=True, separators=(",", ":"))` and a newline, each row joined
    from one tuple of label strings."""
    labels = tuple(map(str, range(G.order)))
    rows = "],[".join(",".join(_reader(row)(labels)) for row in G.table)
    return f'{{"name":{json.dumps(G.name)},"order":{G.order},"table":[[{rows}]]}}\n'


def parse_json(data: str | bytes, what: str):
    """The JSON value in `data`, which must be UTF-8 when it is bytes; text
    that is not UTF-8 or not JSON, or nests too deeply for the decoder,
    raises GroupConstructionError naming `what`."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError:
        raise GroupConstructionError(f"{what} is not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise GroupConstructionError(f"{what} is not JSON: {exc}") from None
    except RecursionError:
        raise GroupConstructionError(f"{what} nests JSON too deeply") from None


_INT = frozenset((int,))


def group_from_json(text: str | bytes) -> FiniteGroup:
    """Load a group from the JSON Cayley-table format, with full validation."""
    payload = parse_json(text, "group file")
    if not isinstance(payload, dict):
        raise GroupConstructionError("group file must hold a JSON object")
    missing = [key for key in ("name", "order", "table") if key not in payload]
    if missing:
        raise GroupConstructionError(f"group file lacks {', '.join(missing)}")
    name, order, table = payload["name"], payload["order"], payload["table"]
    if not isinstance(name, str):
        raise GroupConstructionError("group name must be a string")
    if type(order) is not int:
        raise GroupConstructionError("group order must be an integer")
    if not (isinstance(table, list) and all(
            isinstance(row, list) and _INT.issuperset(map(type, row)) for row in table)):
        raise GroupConstructionError("group table must be a list of rows of integers")
    if order != len(table):
        raise GroupConstructionError("declared order does not match table size")
    # the entries are ints, so one pass per row over lengths and one over
    # ranges decide the table; `_normalize_table` names the first bad row
    rows = tuple(map(tuple, table))
    if not (rows and set(map(len, rows)) == {order}
            and frozenset(range(order)).issuperset(chain.from_iterable(rows))):
        rows = _normalize_table(rows)
    return _validated(rows, name)


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


def _reader(elems: tuple[int, ...]):
    """The map seq -> tuple(seq[i] for i in elems): read through the table
    row of x, it gives the left coset x*H of H with element tuple `elems`;
    read through another row or permutation, it composes the two."""
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
    coset = _reader(elems)
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
    coset = _reader(normal)
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
    """Relabel a closed element set of `parent` as a standalone group: the
    element at position i of `elems` becomes i.  Inverses and element orders
    are read off the parent's, and the group keeps `(parent, elems)` as its
    `origin`."""
    if len(elems) == parent.order:
        return parent  # the relabelling is the identity, so is the table
    relabel = {e: i for i, e in enumerate(elems)}.__getitem__
    at = _reader(elems)
    rows = tuple(tuple(map(relabel, at(parent.table[a]))) for a in elems)
    head = ".".join(map(str, elems[:4])) + (".." if len(elems) > 4 else "")
    return FiniteGroup(rows, f"{parent.name}|{head}",
                       tuple(map(relabel, at(parent.inverse))),
                       at(parent.element_order), origin=(parent, elems))


def centralizer(G: FiniteGroup, elems: Iterable[int] | Subgroup,
                K: Subgroup | None = None) -> Subgroup:
    """Elements g with g*h*g^-1*h^-1 in K for every h in H = <elems>, for a
    normal subgroup K of G (default trivial): the centralizer of H, or of
    HK/K when K is given.

    With K normal, the h for which g*h*g^-1 lies in hK form a subgroup, so
    testing the greedy generators of H is enough.
    """
    seed = elems.elems if isinstance(elems, Subgroup) else sorted(set(elems))
    kset = K.elem_set if K is not None else {0}
    table = G.table
    inv = G.inverse
    gens = [(h, inv[h]) for h in _generating_sequence(table, seed)]
    return Subgroup(G, tuple(
        g for g, row in enumerate(table)
        if all(table[table[row[h]][inv[g]]][hinv] in kset for h, hinv in gens)))


def center(G: FiniteGroup) -> Subgroup:
    return centralizer(G, range(G.order))


@memoized
def conjugations(G: FiniteGroup, elems: tuple[int, ...] = ()) -> tuple[Row, ...]:
    """The conjugation row x -> g*x*g^-1 of each greedy generator g of the
    subgroup generated by the nonempty seed `elems`, or of G when `elems` is
    left out.

    The elements g with g*S*g^-1 = S form a subgroup for any set S, so S is
    normalized by a subgroup exactly when its generators' rows map S into
    itself; normality tests and cores read these rows and conjugate by no
    other element.
    """
    table = G.table
    # a single element is its own generator, with no closure to take
    gens = elems if len(elems) == 1 else _generating_sequence(table, elems or range(G.order))
    rows = []
    for g in gens:
        ginv = G.inverse[g]
        rows.append(tuple([table[x][ginv] for x in table[g]]))
    return tuple(rows)


def is_normal_in(G: FiniteGroup, inner: frozenset[int], outer: tuple[int, ...] = ()) -> bool:
    """Whether the set `inner` is normalized by the subgroup generated by
    `outer`, or by G when `outer` is left out."""
    return all(inner.issuperset(map(row.__getitem__, inner))
               for row in conjugations(G, outer))


def is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    return is_normal_in(G, H.elem_set)


def normal_core(G: FiniteGroup, H: Subgroup, within: tuple[int, ...] = ()) -> Subgroup:
    """Largest subgroup of H normalized by the subgroup generated by
    `within` (by default G): the intersection of H's conjugates by its
    elements.

    The elements of H that some generator's row maps out of what is left
    are dropped until none is.  What is left is mapped into itself by every
    row, so it is normalized; it contains the core, which no row maps out of
    itself; and it lies in H, so it is the core.
    """
    rows = conjugations(G, within)
    core, left = (), H.elems
    while left != core:
        core, kept = left, frozenset(left)
        left = tuple(x for x in core if all(row[x] in kept for row in rows))
    return Subgroup(G, core)


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


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """G/N with cosets ordered by minimal element, plus the projection."""
    return _quotient(G, N.elems)


@memoized
def _quotient(G: FiniteGroup, elems: tuple[int, ...]) -> tuple[FiniteGroup, GroupHom]:
    if not is_normal_in(G, frozenset(elems)):
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


def _pair_rows(table_n: Table, perms: Sequence[Sequence[int]], table_h: Table) -> Table:
    """The table of (n1, h1)(n2, h2) = (n1 * perms[h1](n2), h1 h2) on pairs
    (n, h) encoded as n*|H| + h.

    The rows of (n, 1) and of (1, h) join, over n2, the blocks of the codes
    of (x, h*h2) over h2, where x = n * perms[h](n2); the blocks are built
    once per (h, x).  Every other row is the row of (1, h) read through the
    row of (n, 1), as (n, h) = (n, 1)(1, h) and (a*b)*x = a*(b*x).
    """
    nh = len(table_h)
    blocks = [[tuple(x * nh + y for y in row_h) for x in range(len(table_n))]
              for row_h in table_h]

    def joined(h: int, xs: Iterable[int]) -> Row:
        return tuple(chain.from_iterable(map(blocks[h].__getitem__, xs)))

    reads = [_reader(joined(h, act)) for h, act in enumerate(perms)]
    bases = [joined(0, row_n) for row_n in table_n]
    return tuple(read(base) for base in bases for read in reads)


def direct_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    """A x B with pairs (a, b) encoded as a*|B| + b.  Inverses and element
    orders are read off the factors': (a, b)^-1 = (a^-1, b^-1), and (a, b)
    has order lcm(|a|, |b|)."""
    rows = _pair_rows(A.table, [range(A.order)] * B.order, B.table)
    nb = B.order
    inverse = tuple(ia * nb + ib for ia in A.inverse for ib in B.inverse)
    orders = tuple(lcm(oa, ob) for oa in A.element_order for ob in B.element_order)
    return FiniteGroup(rows, f"{A.name}x{B.name}", inverse, orders)


def _check_automorphism(N: FiniteGroup, perm: Sequence[int], label: str,
                        gens: Sequence[int]) -> None:
    """Check that perm is an automorphism of N, given N's greedy generators.

    The a with perm(a*b) = perm(a)*perm(b) for every b are closed under
    products, so when N's generators pass, every element does, and the law
    needs checking only on their rows, as in `_check_associativity`.  On a
    failure every row is scanned, to name the first failing pair."""
    if sorted(perm) != list(range(N.order)) or perm[0] != 0:
        raise ActionNotAutomorphism(f"action[{label}] is not a permutation fixing 0")
    t = N.table
    through = _reader(perm)  # the row of x to x*perm(b) over every b

    def breaks(a: int) -> bool:
        return tuple(map(perm.__getitem__, t[a])) != through(t[perm[a]])

    if any(map(breaks, gens)):
        a = next(filter(breaks, range(N.order)))
        left, right = tuple(map(perm.__getitem__, t[a])), through(t[perm[a]])
        b = next(b for b, (x, y) in enumerate(zip(left, right)) if x != y)
        raise ActionNotAutomorphism(f"action[{label}] breaks multiplication at ({a}, {b})")


def semidirect_product(N: FiniteGroup, H: FiniteGroup,
                       action: Sequence[Sequence[int]]) -> FiniteGroup:
    """N x| H for a homomorphism H -> Aut(N) given as permutations of N.

    Pairs (n, h) are encoded as n*|H| + h; multiplication is
    (n1, h1)(n2, h2) = (n1 * action[h1](n2), h1 h2).
    """
    if len(action) != H.order:
        raise ActionNotHomomorphism("need one automorphism per element of H")
    perms = [tuple(int(x) for x in p) for p in action]
    n_gens = _generating_sequence(N.table, range(N.order))
    for h, perm in enumerate(perms):
        _check_automorphism(N, perm, str(h), n_gens)
    th = H.table

    # the h1 passing against every h2 are closed under products, so only H's
    # generators are checked, unless one fails; and the identity, which is
    # no product of generators when H is trivial
    def breaks(h1: int, h2: int) -> bool:
        return tuple(map(perms[h1].__getitem__, perms[h2])) != perms[th[h1][h2]]

    hs = range(H.order)
    if any(breaks(h1, h2) for h1 in (0, *_generating_sequence(th, hs)) for h2 in hs):
        h1, h2 = next((h1, h2) for h1 in hs for h2 in hs if breaks(h1, h2))
        raise ActionNotHomomorphism(f"action is not a homomorphism at pair ({h1}, {h2})")
    return _trusted_group(_pair_rows(N.table, perms, th), name=f"{N.name}:|{H.name}")


# ---------------------------------------------------------------------------
# Isomorphism testing


@memoized
def _order_profile(G: FiniteGroup) -> tuple[int, ...]:
    """G's element orders, sorted: the cheap isomorphism invariant."""
    return tuple(sorted(G.element_order))


@memoized
def _iso_screen(G: FiniteGroup) -> tuple:
    """The dearer isomorphism invariants: the centre's order and the orders
    in the derived series."""
    return (
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

    Screens on invariants first, the order and sorted element orders before
    the centre and derived series, then backtracks over generator images
    constrained to elements of equal order.
    """
    if A.order != B.order or _order_profile(A) != _order_profile(B):
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
