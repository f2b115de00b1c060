"""Characteristic subgroups and series built on top of the group core.

The subgroup lattice is enumerated in two phases over the zuppos, the cyclic
subgroups of prime-power order (Holt, Eick and O'Brien, Handbook of
Computational Group Theory: cyclic extension by conjugacy classes, and the
prime-index normal series of soluble groups).  Phase 1 is cyclic extension
inside the soluble residual R = G^(oo): one subgroup per conjugacy class
joins each zuppo in R, one Dimino coset step per join
(`groups._coset_extension`, the one closure primitive), and each new join
comes in with its whole class, by the conjugation rows of G's generators
(`groups.conjugations`, the one conjugation primitive, which also gives
phase 2's normality test and the members' least conjugates).  It finds every
subgroup of R, and so every perfect subgroup, which lies in each term of the
derived series.  Phase 2 climbs by normal steps of prime index: a subgroup H
and a zuppo generator z outside R and outside H that normalizes H, with z^p
in H, give H<z> of order p|H|, a normal product (`groups._normal_product`)
that closes nothing.  A subgroup U not inside R has a normal V of prime
index p that contains U & R, since U/(U & R) ~ UR/R is soluble; the p-part
of any u in U outside V gives such a z with V<z> = U, so by induction on |U|
every subgroup is found.  A visit of H skips a z that lies in a join already
made from H: that join has order p|H| and holds H<z>, so it is H<z>.  The
full proofs are in `all_subgroups`.

A group cut out of G by `groups.materialize` does not enumerate at all when
G's lattice is memoized for the same budget: its lattice is read off G's
(`_restricted`), since its subgroups are the members of G's lattice inside
it.

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
    _normal_product,
    centralizer,
    conjugacy_classes,
    conjugations,
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
    containment: bit j of above[i] is set when j properly contains i, and
    bit j of containing[x] when j holds the element x."""

    parent: FiniteGroup
    subgroups: tuple[Subgroup, ...]
    above: tuple[int, ...]
    containing: tuple[int, ...]

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

    def join(self, x: int, y: int) -> int:
        """The index of <x, y>: of the members holding x and y, the least, as
        every other one holds it and is larger."""
        both = self.containing[x] & self.containing[y]
        return (both & -both).bit_length() - 1

    @cached_property
    def least_conjugate(self) -> tuple[int, ...]:
        """Per member, the least index of a member conjugate to it in
        `parent`.  Conjugation by each of the parent's greedy generators
        permutes the members, and the classes are the orbits of those
        permutations."""
        perms = [[self.index[tuple(sorted(map(row.__getitem__, s.elems)))]
                  for s in self.subgroups] for row in conjugations(self.parent)]
        least = [-1] * len(self.subgroups)
        for i in range(len(least)):
            if least[i] < 0:  # the least member of a class not yet met
                least[i] = i
                orbit = [i]
                for j in orbit:
                    for perm in perms:
                        if least[perm[j]] < 0:
                            least[perm[j]] = i
                            orbit.append(perm[j])
        return tuple(least)

    def __len__(self) -> int:
        return len(self.subgroups)


# the most subgroups, or normal subgroups, one enumeration may find, and the
# only cap on them: a computation that enumerates neither is not stopped.
# Read at each call, so that the CLI can set it for one command
subgroup_budget = 20000


def _over_budget(G: FiniteGroup, budget: int, what: str) -> TooLarge:
    return TooLarge(f"{G.name} has more than {budget} {what}; raise the budget")


@memoized
def zuppos(G: FiniteGroup) -> tuple[int, ...]:
    """The least generators (`cyclic_table`) of G's zuppos, the nontrivial
    cyclic subgroups of prime-power order, in ascending order."""
    _, members = cyclic_table(G)
    order = G.element_order
    return tuple(z for z in members if len(prime_divisors(order[z])) == 1)


def all_subgroups(G: FiniteGroup) -> SubgroupLattice:
    """Enumerate every subgroup in two phases: zuppo joins inside the soluble
    residual, then prime-index normal steps.

    A zuppo is a cyclic subgroup of prime-power order; it enters as its least
    generator, and the zuppos take turns in a fixed order: larger element
    order first (which makes fewer repeated joins), then by generator.

    Phase 1 lists the subgroups of the soluble residual R = G^(oo), the last
    term of G's derived series (trivial when G is soluble).  It keeps one
    representative per conjugacy class of the subgroups found, starting from
    the trivial subgroup, and visits each representative H once, including
    those appended on the way.  Each zuppo generator z in R outside H
    extends H to <H, z>, by Dimino's coset step from the generators H was
    built from.  A join not yet found becomes a representative, and it comes
    in with its orbit under conjugation by G's greedy generators: each image
    is the conjugated element tuple, generated by the conjugated generators.
    The orbit under generators of G is the orbit under G, so the subgroups
    found are closed under conjugation by G after every step.

    Complete.  R is normal, so conjugation by G maps the zuppos in R onto
    zuppos in R.  Take any subgroup K found and any zuppo generator y in R
    outside K.  K = H^g for its class representative H and some g in G, so
    <K, y> = <H, y'>^g, where y' = y^(g^-1) lies in R outside H.  <H, y'> is
    the join of H with the least generator z of the zuppo <y'>, which the
    visit of H made or found known; so <H, y'> and its conjugate <K, y> are
    found.  So the subgroups found hold the trivial one and are closed under
    joins with the zuppos of R.  A subgroup U of R is generated by its
    zuppos, since each element is the product of its prime-power parts;
    joining them one at a time to the trivial subgroup reaches U.

    Phase 2 visits every subgroup H found, including those it appends, and
    each zuppo generator z outside R in turn order.  It adds <H, z> = H<z>
    (a normal product) when z is outside H, z^p lies in H for the prime p
    dividing the order of z, and z normalizes H (conjugating H's generators
    is enough).  Then <H, z> has order p|H|.

    Complete, by induction on |U|.  If U lies in R, phase 1 found it; every
    perfect U = U' does, as it lies in each term of the derived series.
    Otherwise U/(U & R) ~ UR/R, inside G/R, is soluble and nontrivial, so it
    has a normal subgroup of prime index p, whose preimage V is normal of
    index p in U and contains U & R.  V is found: it is U & R, or it is not
    inside R and is smaller than U.  Take u in U outside V.  Its prime-power
    parts are powers of u, and those for primes other than p lie in V, as
    U/V has order p; so its p-part lies outside V, and so does the least
    generator z of that p-part's cyclic subgroup.  So z is outside R, since
    U & R lies in V; z normalizes V, and z^p lies in V.  The visit of V meets
    z with <V, z> = U, unless z lies in a join J = V<y> made before from V:
    then J/V has order q and holds zV, of p-power order, so q = p, and V<z>
    and J both have order p|V|, so J = U.  That is why a visit skips z when
    z lies in a join already made from H, and never tries a zuppo inside R.

    The enumeration raises TooLarge as soon as it finds more subgroups than
    the module's `subgroup_budget`.  The lattice is memoized per budget, so a
    call under a smaller budget enumerates again and raises.

    A group made by `materialize(G, elems)` whose parent G already has its
    lattice memoized for the same budget reads its lattice off G's instead
    (`_restricted`); G's lattice is never enumerated only for that.  It has
    no more members than G's, which fit the budget, so the budget holds.
    """
    return _lattice(G, subgroup_budget)


@memoized
def _lattice(G: FiniteGroup, budget: int) -> SubgroupLattice:
    if G.origin is not None:
        parent, elems = G.origin
        lattice = _lattice.peek(parent, budget)
        if lattice is not None:
            return _restricted(G, lattice, elems)
    table = G.table
    _, members = cyclic_table(G)
    order = G.element_order
    turns = sorted(zuppos(G), key=lambda z: (-order[z], z))
    residual = frozenset(derived_series(G, tuple(range(G.order)))[-1])
    # element tuple, element set and generators of every subgroup found so far
    found: list[tuple[tuple[int, ...], frozenset[int], tuple[int, ...]]] = [
        ((0,), frozenset((0,)), ())]
    known = {(0,)}

    def add(join: tuple[int, ...], gens: tuple[int, ...]) -> None:
        if join not in known:
            known.add(join)
            if len(known) > budget:
                raise _over_budget(G, budget, "subgroups")
            found.append((join, frozenset(join), gens))

    # phase 1: zuppo joins inside the residual, one class representative at a
    # time, each new join added with its orbit under conjugation by G
    inner = [z for z in turns if z in residual]
    if inner:
        rows = conjugations(G)
        representatives = [found[0]]
        for elems, eset, gens in representatives:  # visits those appended
            for z in inner:
                if z in eset:
                    continue
                join = _coset_extension(table, elems, gens, z)
                if join in known:
                    continue
                k = len(found)
                add(join, gens + (z,))
                representatives.append(found[k])
                while k < len(found):  # the orbit, closed under each generator
                    member, _, member_gens = found[k]
                    for row in rows:
                        at = row.__getitem__
                        add(tuple(sorted(map(at, member))), tuple(map(at, member_gens)))
                    k += 1
    # phase 2: prime-index normal steps by the zuppo generators outside the
    # residual, each with its p-th power and its conjugation h -> z*h*z^-1
    steps = []
    for z in turns:
        if z not in residual:
            zp = z
            for _ in range(prime_divisors(order[z])[0] - 1):
                zp = table[zp][z]
            steps.append((z, zp, conjugations(G, (z,))[0], members[z]))
    for elems, eset, gens in found:  # visits the members appended on the way
        joined: set[int] = set()  # elements of the joins made from this member
        for z, zp, conj, powers in steps:
            if z in eset or z in joined or zp not in eset:
                continue
            if eset.issuperset(map(conj.__getitem__, gens)):
                join = _normal_product(table, elems, powers)
                joined.update(join)
                add(join, gens + (z,))
    found.sort(key=lambda f: (len(f[0]), f[0]))
    return _ordered_lattice(G, [f[0] for f in found], [f[2] for f in found])


def _restricted(H: FiniteGroup, lattice: SubgroupLattice,
                elems: tuple[int, ...]) -> SubgroupLattice:
    """The lattice of H = materialize(G, elems), read off G's `lattice`: the
    members inside H, relabelled by their positions in `elems`.  The
    relabelling is increasing, so it keeps the (size, elements) order."""
    top = lattice.index[elems]
    relabel = {e: i for i, e in enumerate(elems)}.__getitem__
    above = lattice.above
    inside = [tuple(map(relabel, lattice.subgroups[i].elems))
              for i in range(top) if above[i] >> top & 1]
    inside.append(tuple(range(len(elems))))
    return _ordered_lattice(H, inside, inside)


def _ordered_lattice(G: FiniteGroup, found: list[tuple[int, ...]],
                     seeds: list[tuple[int, ...]]) -> SubgroupLattice:
    """The lattice of the subgroups `found`, already in (size, elements)
    order, each generated by its entry of `seeds`: K contains H exactly when
    K holds the identity and H's seed."""
    containing = [0] * G.order  # bit j of containing[x]: subgroup j holds x
    for j, elems in enumerate(found):
        for x in elems:
            containing[x] |= 1 << j
    above = [reduce(and_, map(containing.__getitem__, seed), containing[0]) & ~(1 << i)
             for i, seed in enumerate(seeds)]
    return SubgroupLattice(G, tuple(Subgroup(G, elems) for elems in found), tuple(above),
                           tuple(containing))


def memoized_lattice(G: FiniteGroup) -> SubgroupLattice | None:
    """G's lattice under the current budget if it is memoized, else None;
    this enumerates nothing."""
    return _lattice.peek(G, subgroup_budget)


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


@memoized
def chief_series(G: FiniteGroup) -> ChiefSeries:
    chain = [trivial_subgroup(G)]
    while chain[-1].order < G.order:
        nxt = minimal_normal_over(G, chain[-1])
        chain.append(nxt)
    orders = tuple(chain[i + 1].order // chain[i].order for i in range(len(chain) - 1))
    cents = tuple(centralizer(G, chain[i + 1], chain[i])
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
    C = centralizer(G, H, K)
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
