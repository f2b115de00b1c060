"""Characteristic subgroups and series built on top of the group core.

The subgroup lattice is enumerated by cyclic extension over the zuppos, the
cyclic subgroups of prime-power order: each zuppo joins every subgroup found
before it, one Dimino coset step per join (`groups._coset_extension`, the one
closure primitive; Holt, Eick and O'Brien, Handbook of Computational Group
Theory).  Normal products multiply two known subgroups and close nothing.
Chief factors are built as sections (`groups.section`), like the core
quotients of the chain searches.  Normal structure comes from one primitive:
the normal closures of a normal subgroup N with one element per class outside
N (`_class_closures`), and the minimal ones, the minimal normals over N
(`_minimal_normals_over`).  Normal subgroups are products of the closures
over 1; chief series, the hypercentre and the soluble radical climb one
minimal normal at a time, without listing the normal subgroups.

Everything here is deterministic: subgroup lists are sorted by (size, element
tuple), chief series always pick the candidate with the lexicographically
least element set, and results are memoized per group.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import and_

from .arith import lcm_ints, prime_divisors
from .errors import NotChiefFactor, SizeCapExceeded, TooLarge
from .groups import (
    MAX_ORDER,
    FiniteGroup,
    Subgroup,
    _closure,
    _coset_extension,
    _generating_sequence,
    _normal_product,
    conjugacy_classes,
    cyclic_table,
    derived_series,
    is_normal,
    memoized,
    normal_closure,
    quotient,
    section,
    semidirect_product,
    trivial_subgroup,
)
from .records import record


@record
class SubgroupLattice:
    """Every subgroup of `parent` in (size, elements) order, with
    containment: bit j of above[i] is set when j properly contains i."""

    parent: FiniteGroup
    subgroups: tuple[Subgroup, ...]
    above: tuple[int, ...]

    @property
    def maximal_flags(self) -> tuple[bool, ...]:
        """Maximal: the whole group (the last member) is the only one above."""
        top = 1 << (len(self.subgroups) - 1)
        return tuple(a == top for a in self.above)

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        """Each member's position, keyed by its element tuple."""
        return {s.elems: i for i, s in enumerate(self.subgroups)}

    def maximal_subgroups(self) -> tuple[Subgroup, ...]:
        return tuple(s for s, f in zip(self.subgroups, self.maximal_flags) if f)

    def __len__(self) -> int:
        return len(self.subgroups)


# the most subgroups, or normal subgroups, one enumeration may find; read at
# each call, so that the CLI can set it for one command
subgroup_budget = 20000


def _over_budget(G: FiniteGroup, budget: int, what: str) -> TooLarge:
    return TooLarge(f"{G.name} has more than {budget} {what}; raise the budget")


def all_subgroups(G: FiniteGroup) -> SubgroupLattice:
    """Enumerate every subgroup by cyclic extension over the zuppos.

    A zuppo is a cyclic subgroup of prime-power order; it enters as its least
    generator, and the zuppos take turns in a fixed order: larger element
    order first (which makes fewer repeated joins), then by generator.
    Starting from the trivial subgroup, each zuppo generator z extends every
    subgroup H found before z's turn that does not contain z to <H, z>, by
    Dimino's coset step from the generators H was built from.

    Complete: a subgroup U is generated by its zuppos, since each element is
    the product of its prime-power parts, each of which generates a zuppo.  If
    z_1, ..., z_k are the zuppo generators lying in U, in turn order,
    induction on j shows that <z_1, ..., z_j> has been found by the end of
    z_j's turn; so U = <z_1, ..., z_k> is found.

    The enumeration raises TooLarge as soon as it finds more subgroups than
    the module's `subgroup_budget`.  The lattice is memoized per budget, so a
    call under a smaller budget enumerates again and raises.
    """
    return _lattice(G, subgroup_budget)


@memoized
def _lattice(G: FiniteGroup, budget: int) -> SubgroupLattice:
    table = G.table
    _, members = cyclic_table(G)
    order = G.element_order
    zuppos = sorted((z for z in members if len(prime_divisors(order[z])) == 1),
                    key=lambda z: (-order[z], z))
    # element tuple, element set and generators of every subgroup found so far
    found: list[tuple[tuple[int, ...], frozenset[int], tuple[int, ...]]] = [
        ((0,), frozenset((0,)), ())]
    known = {(0,)}
    for z in zuppos:
        for i in range(len(found)):
            elems, eset, gens = found[i]
            if z in eset:
                continue
            join = _coset_extension(table, elems, gens, z)
            if join not in known:
                known.add(join)
                if len(known) > budget:
                    raise _over_budget(G, budget, "subgroups")
                found.append((join, frozenset(join), gens + (z,)))
    found.sort(key=lambda f: (len(f[0]), f[0]))
    containing = [0] * G.order  # bit j of containing[x]: subgroup j holds x
    for j, (elems, _, _) in enumerate(found):
        for x in elems:
            containing[x] |= 1 << j
    # K contains H exactly when K holds the identity and H's generators
    above = [reduce(and_, [containing[g] for g in gens], containing[0]) & ~(1 << i)
             for i, (_, _, gens) in enumerate(found)]
    return SubgroupLattice(
        G, tuple(Subgroup(G, elems) for elems, _, _ in found), tuple(above))


def maximal_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    return all_subgroups(G).maximal_subgroups()


def frattini(G: FiniteGroup) -> Subgroup:
    """Intersection of all maximal subgroups (the whole group if none exist)."""
    common = set(range(G.order))
    for m in maximal_subgroups(G):
        common &= m.elem_set
    return Subgroup(G, tuple(sorted(common)))


@memoized
def _class_closures(G: FiniteGroup, below: tuple[int, ...]
                    ) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The distinct normal closures of `below` and one element g outside it,
    each with the least g giving it, in element-tuple order.  Conjugates give
    the same closure, so one g per conjugacy class is tried."""
    skip = set(below)
    classes = conjugacy_classes(G)
    closures: dict[tuple[int, ...], int] = {}
    for g in range(G.order):
        if g not in skip:
            skip |= classes[g]
            closures.setdefault(normal_closure(G, below + (g,)).elems, g)
    return tuple(sorted(closures.items()))


def normal_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """All normal subgroups, as products of normal closures of classes.

    Each conjugacy class has one normal closure; taking the distinct ones in
    a fixed order, each multiplies every normal subgroup found before its
    turn that does not contain it.  A normal subgroup is the product of the
    closures of the classes inside it, so by the same induction as for
    `all_subgroups` every one is found.

    Like `all_subgroups`, the enumeration raises TooLarge as soon as it finds
    more normal subgroups than the module's `subgroup_budget`, and the list is
    memoized per budget.
    """
    return _normal_subgroups(G, subgroup_budget)


@memoized
def _normal_subgroups(G: FiniteGroup, budget: int) -> tuple[Subgroup, ...]:
    found = [((0,), frozenset((0,)))]
    known = {(0,)}
    for M, g in _class_closures(G, (0,)):
        for elems, eset in list(found):
            if g in eset:  # then all of M, as elems is normal
                continue
            product = _normal_product(G.table, elems, M)
            if product not in known:
                known.add(product)
                if len(known) > budget:
                    raise _over_budget(G, budget, "normal subgroups")
                found.append((product, frozenset(product)))
    return tuple(Subgroup(G, t) for t in sorted(known, key=lambda t: (len(t), t)))


@memoized
def _minimal_normals_over(G: FiniteGroup, below: tuple[int, ...]) -> tuple[Subgroup, ...]:
    """The normal subgroups minimal over the normal subgroup `below`, in
    (size, elements) order.  A normal subgroup over `below` contains the
    closure of `below` and any of its elements outside it, so these are the
    minimal closures."""
    minimal: list[Subgroup] = []
    for M, _ in sorted(_class_closures(G, below), key=lambda c: (len(c[0]), c[0])):
        N = Subgroup(G, M)
        if not any(L.elem_set < N.elem_set for L in minimal):
            minimal.append(N)
    return tuple(minimal)


def _climb(G: FiniteGroup, step) -> Subgroup:
    """Upper series from 1: while some minimal normal M over the current term
    Z has step(M, Z), Z moves up to the first such M.  When step depends only
    on the G-isomorphism type of M/Z, this ends at the largest normal K whose
    chief factors all pass: K contains Z, as KZ/K ~ Z/(K & Z) passes, and a
    larger K would have a passing factor M/Z inside it, by Jordan-Hoelder."""
    Z = trivial_subgroup(G)
    while (M := next((M for M in _minimal_normals_over(G, Z.elems) if step(M, Z)),
                     None)) is not None:
        Z = M
    return Z


def minimal_normal_over(G: FiniteGroup, below: Subgroup) -> Subgroup | None:
    """Deterministic minimal normal subgroup of G/below, as its preimage: of
    the normal subgroups minimal over the normal subgroup `below`, the one
    with the least element tuple.  None when below is the whole group."""
    return min(_minimal_normals_over(G, below.elems), key=lambda M: M.elems,
               default=None)


def minimal_normal_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    return _minimal_normals_over(G, (0,))


def socle(G: FiniteGroup) -> Subgroup:
    """Join of all minimal normal subgroups."""
    return Subgroup(G, _closure(G.table, [x for M in minimal_normal_subgroups(G)
                                          for x in M.elems]))


def elems_soluble(G: FiniteGroup, elems: tuple[int, ...]) -> bool:
    """Solubility of a subgroup, computed inside the parent's table."""
    return derived_series(G, elems)[-1] == (0,)


def soluble_radical(G: FiniteGroup) -> Subgroup:
    """Largest normal soluble subgroup, up the soluble chief factors."""
    return _climb(G, lambda M, Z: elems_soluble(G, M.elems))


def frattini_socle(G: FiniteGroup) -> Subgroup:
    """Preimage of the socle of G modulo its Frattini subgroup."""
    phi = frattini(G)
    Q, hom = quotient(G, phi)
    target = socle(Q).elem_set
    return Subgroup(G, tuple(g for g in range(G.order) if hom.image[g] in target))


# ---------------------------------------------------------------------------
# Chief series and chief factors


@record
class ChiefSeries:
    """Ascending chain of normal subgroups with simple-as-possible steps."""

    group: FiniteGroup
    chain: tuple[Subgroup, ...]          # trivial ... full, all normal in G
    factor_orders: tuple[int, ...]       # per consecutive step
    centralizers: tuple[Subgroup, ...]   # C_G(step) per consecutive step

    def factors(self):
        return tuple(zip(self.chain[1:], self.chain[:-1]))


def centralizer_of_factor(G: FiniteGroup, H: Subgroup, K: Subgroup) -> Subgroup:
    """Elements acting trivially on H/K by conjugation, for normal subgroups
    K <= H of G.

    Conjugation by g is an automorphism of H/K, so it is trivial exactly when
    it fixes the coset of each generator h of H: g*h*g^-1*h^-1 in K.
    """
    kset = K.elem_set
    table = G.table
    inv = G.inverse
    gens = [(h, inv[h]) for h in _generating_sequence(table, H.elems)]
    out = []
    for g, row in enumerate(table):
        ginv = inv[g]
        if all(table[table[row[h]][ginv]][hinv] in kset for h, hinv in gens):
            out.append(g)
    return Subgroup(G, tuple(out))


@memoized
def chief_series(G: FiniteGroup) -> ChiefSeries:
    chain = [trivial_subgroup(G)]
    while chain[-1].order < G.order:
        nxt = minimal_normal_over(G, chain[-1])
        chain.append(nxt)
    orders = tuple(chain[i + 1].order // chain[i].order for i in range(len(chain) - 1))
    cents = tuple(centralizer_of_factor(G, chain[i + 1], chain[i])
                  for i in range(len(chain) - 1))
    return ChiefSeries(G, tuple(chain), orders, cents)


def _is_chief_factor(G: FiniteGroup, H: Subgroup, K: Subgroup) -> bool:
    return is_normal(G, K) and any(
        M.elems == H.elems for M in _minimal_normals_over(G, K.elems))


def chief_factor_group(G: FiniteGroup, H: Subgroup, K: Subgroup) -> FiniteGroup:
    """The factor H/K extended by the action G induces on it:
    (H/K) x| (G / C_G(H/K)), built through quotients and a checked action.

    Raises SizeCapExceeded, as `is_member` would on the result, before the
    table of an extension above `MAX_ORDER` is built."""
    if not _is_chief_factor(G, H, K):
        raise NotChiefFactor(
            f"{H.order}/{K.order} is not a chief factor of {G.name}")
    A, projA = section(G, H.elems, K.elems)
    C = centralizer_of_factor(G, H, K)
    B, projB = quotient(G, C)
    if A.order * B.order > MAX_ORDER:
        raise SizeCapExceeded(
            f"group of order {A.order * B.order} exceeds the cap {MAX_ORDER}")
    # one automorphism of A per coset of C, induced by conjugation; each
    # coset is represented by its least element
    coset_of = dict(zip(H.elems, projA.image))
    h_reps = [H.elems[projA.image.index(i)] for i in range(A.order)]
    b_reps = [projB.image.index(j) for j in range(B.order)]
    action = [tuple(coset_of[G.conjugate(h, b)] for h in h_reps) for b in b_reps]
    return semidirect_product(A, B, action)


def hypercenter(G: FiniteGroup, spec) -> Subgroup:
    """Largest normal subgroup all of whose chief factors under G lie centrally
    for the class: each factor F satisfies F x| (G/C_G(F)) in the class.
    Climbs the upper series through central factors."""
    return _climb(G, lambda M, Z: _factor_is_central(G, spec, M.elems, Z.elems))


@memoized
def _factor_is_central(G: FiniteGroup, spec, upper: tuple[int, ...],
                       lower: tuple[int, ...]) -> bool:
    """Whether the chief factor upper/lower lies centrally for the class."""
    from .classes import is_member  # deferred: classes builds on this module

    # the factor embeds in the extension, so for a hereditary class it must
    # itself qualify
    if spec.hereditary and not is_member(section(G, upper, lower)[0], spec):
        return False
    return is_member(chief_factor_group(G, Subgroup(G, upper), Subgroup(G, lower)), spec)


def exponent(G: FiniteGroup) -> int:
    """Least common multiple of all element orders."""
    return lcm_ints(G.element_order)


def class_exponent(groups) -> "Supernatural":
    """lcm of the exponents of finitely many groups, as a supernatural number."""
    from .supernatural import from_int, lcm, ONE

    out = ONE
    for G in groups:
        out = lcm(out, from_int(exponent(G)))
    return out
