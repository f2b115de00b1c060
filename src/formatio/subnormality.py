"""Subnormal-chain searches over the subgroup lattice.

Two step relations are supported for a chain H = H_0 <= H_1 <= ... <= H_n = G:
  * class steps: H_{i-1} is normal in H_i, or H_i modulo the core of H_{i-1}
    lies in a given class;
  * prime steps: each containment has prime index.

Chains are found by BFS over the materialized lattice, so a returned witness
is always one of minimal length, with deterministic tie-breaking.

vU membership asks only whether each cyclic primary subgroup tops a
prime-step chain, not for the chain itself.  One memoized top-down pass over
the lattice answers that for every member at once (`_prime_index_reach`), so
`vu_obstruction` runs no search; `prime_index_chain` stays the only source of
witnesses.
"""

from __future__ import annotations

from .arith import is_prime, prime_divisors
from .config import limits
from .errors import UnsupportedParameter
from .groups import (
    FiniteGroup,
    Subgroup,
    cyclic_table,
    is_normal_in,
    memoized,
    normal_core,
    section,
)
from .records import record
from .structure import all_subgroups
from .classes import ClassSpec, is_member

STEP_NORMAL = "normal"
STEP_CLASS_QUOTIENT = "class-quotient"
STEP_PRIME_INDEX = "prime-index"


@record(frozen=True)
class ChainWitness:
    group: FiniteGroup
    chain: tuple[Subgroup, ...]
    step_kinds: tuple[str, ...]
    spec_text: str | None = None

    def verify(self, spec: ClassSpec | None = None) -> bool:
        """Re-check every labeled step of the chain."""
        G = self.group
        if len(self.chain) != len(self.step_kinds) + 1:
            return False
        if self.chain[-1].elems != tuple(range(G.order)):
            return False
        for i, kind in enumerate(self.step_kinds):
            small, big = self.chain[i], self.chain[i + 1]
            if not (small.elem_set <= big.elem_set):
                return False
            if kind == STEP_NORMAL:
                if not is_normal_in(G, small.elem_set, big.elems):
                    return False
            elif kind == STEP_PRIME_INDEX:
                if big.order % small.order or not is_prime(big.order // small.order):
                    return False
            elif kind == STEP_CLASS_QUOTIENT:
                if spec is None:
                    return False
                if not is_member(_core_quotient(G, small, big), spec):
                    return False
            else:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "group": self.group.name,
            "spec": self.spec_text,
            "chain": [list(s.elems) for s in self.chain],
            "steps": list(self.step_kinds),
        }


def _core_quotient(G: FiniteGroup, small: Subgroup, big: Subgroup) -> FiniteGroup:
    """big / Core_big(small), materialized as a standalone group."""
    return section(G, big.elems, normal_core(G, small, big.elems).elems)[0]


def _bfs_chain(G: FiniteGroup,
               start: Subgroup, edge_ok) -> tuple[tuple[int, ...], ...] | None:
    """Shortest path from start.elems to the full group, None if unreachable.

    A node's proper supersets are its `above` bits in the lattice, tried in
    ascending index order, which is (size, elements) order.
    """
    lattice = all_subgroups(G)
    subs = lattice.subgroups
    top = len(subs) - 1
    node = lattice.index.get(start.elems)
    if node is None:
        raise ValueError(f"{start!r} is not a subgroup of {G.name}")
    if node == top:
        return (start.elems,)
    frontier = [node]
    parent: dict[int, int | None] = {node: None}
    seen = 1 << node  # the bits of `parent`
    while frontier:
        nxt = []
        for node in frontier:
            ups = lattice.above[node] & ~seen
            while ups:
                low = ups & -ups
                ups ^= low
                up = low.bit_length() - 1
                if not edge_ok(subs[node].elems, subs[up].elems):
                    continue
                seen |= low
                parent[up] = node
                if up == top:
                    path = [up]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return tuple(subs[i].elems for i in reversed(path))
                nxt.append(up)
        frontier = nxt
    return None


@memoized
def _class_step(G: FiniteGroup, spec: ClassSpec, small: tuple[int, ...],
                big: tuple[int, ...]) -> str | None:
    """The kind of the step small <= big in a class-subnormal chain, or None."""
    if is_normal_in(G, frozenset(small), big):
        return STEP_NORMAL
    if is_member(_core_quotient(G, Subgroup(G, small), Subgroup(G, big)), spec):
        return STEP_CLASS_QUOTIENT
    return None


def k_subnormal_chain(G: FiniteGroup, H: Subgroup,
                      spec: ClassSpec) -> ChainWitness | None:
    """Chain from H to G with normal or class-core-quotient steps."""

    def edge_ok(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
        return _class_step(G, spec, small, big) is not None

    path = _bfs_chain(G, H, edge_ok)
    if path is None:
        return None
    kinds = tuple(_class_step(G, spec, path[i], path[i + 1])
                  for i in range(len(path) - 1))
    return ChainWitness(G, tuple(Subgroup(G, t) for t in path), kinds, spec.text())


def is_k_subnormal(G: FiniteGroup, H: Subgroup, spec: ClassSpec) -> bool:
    return k_subnormal_chain(G, H, spec) is not None


def prime_index_chain(G: FiniteGroup, H: Subgroup) -> ChainWitness | None:
    """Chain from H to G in which every containment has prime index."""

    def edge_ok(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
        return is_prime(len(big) // len(small)) and len(big) % len(small) == 0

    path = _bfs_chain(G, H, edge_ok)
    if path is None:
        return None
    kinds = tuple(STEP_PRIME_INDEX for _ in range(len(path) - 1))
    return ChainWitness(G, tuple(Subgroup(G, t) for t in path), kinds, None)


def is_prime_index_subnormal(G: FiniteGroup, H: Subgroup) -> bool:
    return prime_index_chain(G, H) is not None


def cyclic_primary_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """All nontrivial cyclic subgroups of prime-power order (the zuppos),
    read off the group's table of cyclic subgroups."""
    _, members = cyclic_table(G)
    primary = [t for t in members.values() if len(prime_divisors(len(t))) == 1]
    return tuple(Subgroup(G, t) for t in sorted(primary, key=lambda t: (len(t), t)))


def vstar_obstruction(G: FiniteGroup, spec: ClassSpec) -> Subgroup | None:
    """First cyclic primary subgroup without a class-subnormal chain."""
    if not spec.hereditary:
        raise UnsupportedParameter(
            f"vstar needs a hereditary-flagged spec, got {spec.text()}")
    for P in cyclic_primary_subgroups(G):
        if k_subnormal_chain(G, P, spec) is None:
            return P
    return None


def vstar_member(G: FiniteGroup, spec: ClassSpec) -> bool:
    """Whether every cyclic primary subgroup is class-subnormal."""
    return vstar_obstruction(G, spec) is None


@memoized
def _prime_index_reach(G: FiniteGroup, budget: int) -> int:
    """Bitmask of the lattice members that top a prime-index chain to G.

    One top-down pass in (size, elements) order: G reaches itself, and a
    member H reaches G when some reaching member above it has prime index
    over H.  Members above H come later in the order, so each is settled
    before H.  For each prime p, the members of order p*|H| form one mask.
    """
    lattice = all_subgroups(G, budget)
    subs = lattice.subgroups
    top = len(subs) - 1
    by_order: dict[int, int] = {}
    for i, H in enumerate(subs):
        by_order[H.order] = by_order.get(H.order, 0) | 1 << i
    up_orders = {n: tuple(n * p for p in prime_divisors(G.order // n)) for n in by_order}
    reach = 1 << top
    for i in range(top - 1, -1, -1):
        ups = lattice.above[i] & reach
        if ups and any(ups & by_order.get(m, 0) for m in up_orders[subs[i].order]):
            reach |= 1 << i
    return reach


def vu_obstruction(G: FiniteGroup) -> Subgroup | None:
    """First cyclic primary subgroup without a prime-index chain, read off
    the one-pass reachability mask; `prime_index_chain` finds the same
    members reachable, one BFS each."""
    reach = _prime_index_reach(G, limits.subgroup_budget)
    index = all_subgroups(G).index
    for P in cyclic_primary_subgroups(G):
        if not reach >> index[P.elems] & 1:
            return P
    return None


def vu_member(G: FiniteGroup) -> bool:
    """Whether every cyclic primary subgroup tops a prime-index chain."""
    return vu_obstruction(G) is None
