"""Subnormal chains over the subgroup lattice.

Two step relations are supported for a chain H = H_0 <= H_1 <= ... <= H_n = G:
  * class steps: H_{i-1} is normal in H_i, or H_i modulo the core of H_{i-1}
    lies in a given class;
  * prime steps: each containment has prime index.

Both kinds share one step test (`_step`) and one memoized reach test, run on
demand (`_reaches`): whether a lattice member tops a chain to G of at most a
given number of steps.  vstar and vU membership ask it of each cyclic primary
subgroup, with no bound on the length.  A chain witness is read off the same
test: its length is the least bound within which H reaches G, and from H each
step goes to the least-index member above that reaches G in one step fewer.
So a witness is always one of minimal length, and the lexicographically least
such (in lattice indices).
"""

from __future__ import annotations

from .arith import factorize, is_prime, prime_divisors
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


@record
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


def _ups(lattice, node: int):
    """The members above lattice member `node`, in ascending index order."""
    ups = lattice.above[node]
    while ups:
        yield (ups & -ups).bit_length() - 1
        ups &= ups - 1


def _node(G: FiniteGroup, H: Subgroup) -> int:
    node = all_subgroups(G).index.get(H.elems)
    if node is None:
        raise UnsupportedParameter(f"{H!r} is not a subgroup of {G.name}")
    return node


@memoized
def _class_step(G: FiniteGroup, spec: ClassSpec, small: tuple[int, ...],
                big: tuple[int, ...]) -> str | None:
    """The kind of the step small <= big in a class-subnormal chain, or None."""
    if is_normal_in(G, frozenset(small), big):
        return STEP_NORMAL
    if is_member(_core_quotient(G, Subgroup(G, small), Subgroup(G, big)), spec):
        return STEP_CLASS_QUOTIENT
    return None


def _step(G: FiniteGroup, kind: str | ClassSpec, small: tuple[int, ...],
          big: tuple[int, ...]) -> str | None:
    """The kind of the step small < big in a chain of the given kind (prime
    steps, or class steps for a class), or None."""
    if kind == STEP_PRIME_INDEX:
        return STEP_PRIME_INDEX if is_prime(len(big) // len(small)) else None
    return _class_step(G, kind, small, big)


@memoized
def _reaches(G: FiniteGroup, kind: str | ClassSpec, node: int, steps: int) -> bool:
    """Whether lattice member `node` tops a chain of the given kind to G with
    at most `steps` steps, or of any length when `steps` is -1.

    G reaches itself.  Another member reaches G when some member above it
    reaches G in one step fewer and the step to it passes `_step`
    (`_next_members`); the first such member settles the answer.
    """
    lattice = all_subgroups(G)
    if node == len(lattice) - 1:
        return True
    return steps != 0 and next(
        _next_members(G, lattice, kind, node, max(steps - 1, -1)), None) is not None


def _next_members(G: FiniteGroup, lattice, kind: str | ClassSpec, node: int,
                  steps: int):
    """The members above `node`, in ascending index order, that the step from
    `node` passes `_step` into and that reach G within `steps`; lazily.

    A prime step is arithmetic, so it is tested first.  For a class step the
    reach of the member above is settled (and memoized) first, so the dear
    class steps are tested only on edges into members that reach G.
    """
    subs = lattice.subgroups
    small = subs[node].elems
    if kind == STEP_PRIME_INDEX:
        return (up for up in _ups(lattice, node)
                if _step(G, kind, small, subs[up].elems)
                and _reaches(G, kind, up, steps))
    return (up for up in _ups(lattice, node)
            if _reaches(G, kind, up, steps) and _step(G, kind, small, subs[up].elems))


def _chain(G: FiniteGroup, H: Subgroup, kind: str | ClassSpec,
           spec_text: str | None) -> ChainWitness | None:
    """A shortest chain of the given kind from H to G, None if there is none.

    Its length n is the least bound within which H reaches G.  From H, each
    step goes to the least-index member above that reaches G in one step
    fewer, which gives the lexicographically least chain of length n (in
    lattice indices): the one a breadth-first search from H returns when it
    tries the members above in ascending index order.
    """
    lattice = all_subgroups(G)
    subs = lattice.subgroups
    path = [_node(G, H)]
    index = G.order // H.order
    if kind == STEP_PRIME_INDEX:
        # a prime step takes one prime factor off the index, so every prime
        # chain from H has as many steps as the index has prime factors
        bounds = [sum(factorize(index).values())]
    else:
        # each step at least doubles the order, so no chain is longer
        bounds = range(index.bit_length())
    length = next((n for n in bounds if _reaches(G, kind, path[0], n)), None)
    if length is None:
        return None
    for left in reversed(range(length)):
        path.append(next(_next_members(G, lattice, kind, path[-1], left)))
    chain = tuple(subs[i] for i in path)
    kinds = tuple(_step(G, kind, a.elems, b.elems) for a, b in zip(chain, chain[1:]))
    return ChainWitness(G, chain, kinds, spec_text)


def k_subnormal_chain(G: FiniteGroup, H: Subgroup,
                      spec: ClassSpec) -> ChainWitness | None:
    """Chain from H to G with normal or class-core-quotient steps."""
    return _chain(G, H, spec, spec.text())


def is_k_subnormal(G: FiniteGroup, H: Subgroup, spec: ClassSpec) -> bool:
    return _reaches(G, spec, _node(G, H), -1)


def prime_index_chain(G: FiniteGroup, H: Subgroup) -> ChainWitness | None:
    """Chain from H to G in which every containment has prime index."""
    return _chain(G, H, STEP_PRIME_INDEX, None)


def is_prime_index_subnormal(G: FiniteGroup, H: Subgroup) -> bool:
    return _reaches(G, STEP_PRIME_INDEX, _node(G, H), -1)


def cyclic_primary_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """All nontrivial cyclic subgroups of prime-power order (the zuppos),
    read off the group's table of cyclic subgroups."""
    _, members = cyclic_table(G)
    primary = [t for t in members.values() if len(prime_divisors(len(t))) == 1]
    return tuple(Subgroup(G, t) for t in sorted(primary, key=lambda t: (len(t), t)))


def _obstruction(G: FiniteGroup, kind: str | ClassSpec) -> Subgroup | None:
    """First cyclic primary subgroup that tops no chain of the given kind."""
    index = all_subgroups(G).index
    return next((P for P in cyclic_primary_subgroups(G)
                 if not _reaches(G, kind, index[P.elems], -1)), None)


def vstar_obstruction(G: FiniteGroup, spec: ClassSpec) -> Subgroup | None:
    """First cyclic primary subgroup without a class-subnormal chain."""
    if not spec.hereditary:
        raise UnsupportedParameter(
            f"vstar needs a hereditary-flagged spec, got {spec.text()}")
    return _obstruction(G, spec)


def vstar_member(G: FiniteGroup, spec: ClassSpec) -> bool:
    """Whether every cyclic primary subgroup is class-subnormal."""
    return vstar_obstruction(G, spec) is None


def vu_obstruction(G: FiniteGroup) -> Subgroup | None:
    """First cyclic primary subgroup without a prime-index chain."""
    return _obstruction(G, STEP_PRIME_INDEX)


def vu_member(G: FiniteGroup) -> bool:
    """Whether every cyclic primary subgroup tops a prime-index chain."""
    return vu_obstruction(G) is None
