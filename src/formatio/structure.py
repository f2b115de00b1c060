"""Characteristic subgroups and series built on top of the group core.

Everything here is deterministic: subgroup lists are sorted by (size, element
tuple), chief series always pick the candidate with the lexicographically
least element set, and results are memoized per group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import lcm_ints
from .config import limits
from .errors import NotChiefFactor, TooLarge
from .groups import (
    FiniteGroup,
    Subgroup,
    _closure,
    derived_series,
    full_subgroup,
    is_normal_in,
    normal_closure,
    quotient,
    semidirect_product,
    trivial_subgroup,
)


@dataclass(frozen=True)
class SubgroupLattice:
    """Every subgroup of `parent`, with maximality and normality flags."""

    parent: FiniteGroup
    subgroups: tuple[Subgroup, ...]
    maximal_flags: tuple[bool, ...]
    normal_flags: tuple[bool, ...]

    def maximal_subgroups(self) -> tuple[Subgroup, ...]:
        return tuple(s for s, f in zip(self.subgroups, self.maximal_flags) if f)

    def normal_members(self) -> tuple[Subgroup, ...]:
        return tuple(s for s, f in zip(self.subgroups, self.normal_flags) if f)

    def __len__(self) -> int:
        return len(self.subgroups)


def all_subgroups(G: FiniteGroup, budget: int | None = None) -> SubgroupLattice:
    """Enumerate every subgroup by closing cyclic subgroups under joins."""
    budget = budget if budget is not None else limits.subgroup_budget
    cached = G._derived.get("lattice")
    if cached is not None:
        if len(cached) > budget:
            raise TooLarge(f"{G.name} has more than {budget} subgroups; raise the budget")
        return cached
    table = G.table
    cyclics = sorted({_closure(table, (x,)) for x in range(G.order)})
    cyclic_sets = [(c, frozenset(c)) for c in cyclics]
    subs: set[tuple[int, ...]] = set(cyclics)
    frontier = list(cyclics)
    while frontier:
        base = frontier.pop()
        base_set = frozenset(base)
        for c, cset in cyclic_sets:
            if cset <= base_set:
                continue
            join = _closure(table, base + c)
            if join not in subs:
                subs.add(join)
                if len(subs) > budget:
                    raise TooLarge(
                        f"{G.name} has more than {budget} subgroups; raise the budget")
                frontier.append(join)
    ordered = sorted(subs, key=lambda t: (len(t), t))
    sets = [frozenset(t) for t in ordered]
    n = G.order
    maximal = []
    for i, t in enumerate(ordered):
        if len(t) == n:
            maximal.append(False)
            continue
        covered = any(len(ordered[j]) > len(t) and len(ordered[j]) < n
                      and sets[i] <= sets[j] for j in range(len(ordered)))
        maximal.append(not covered)
    normal = [is_normal_in(G, s, range(n)) for s in sets]
    lattice = SubgroupLattice(
        G,
        tuple(Subgroup(G, t) for t in ordered),
        tuple(maximal),
        tuple(normal),
    )
    G._derived["lattice"] = lattice
    return lattice


def maximal_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    return all_subgroups(G).maximal_subgroups()


def frattini(G: FiniteGroup) -> Subgroup:
    """Intersection of all maximal subgroups (the whole group if none exist)."""
    maxes = maximal_subgroups(G)
    if not maxes:
        return full_subgroup(G)
    common = set(maxes[0].elems)
    for m in maxes[1:]:
        common &= m.elem_set
    return Subgroup(G, tuple(sorted(common)))


def normal_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """All normal subgroups, found by closing normal closures upward."""
    cached = G._derived.get("normals")
    if cached is not None:
        return cached
    seen: set[tuple[int, ...]] = {(0,)}
    frontier = [(0,)]
    while frontier:
        base = frontier.pop()
        base_set = set(base)
        for g in range(G.order):
            if g in base_set:
                continue
            bigger = normal_closure(G, base + (g,)).elems
            if bigger not in seen:
                seen.add(bigger)
                frontier.append(bigger)
    ordered = sorted(seen, key=lambda t: (len(t), t))
    result = tuple(Subgroup(G, t) for t in ordered)
    G._derived["normals"] = result
    return result


def minimal_normal_over(G: FiniteGroup, below: Subgroup,
                        within: Subgroup | None = None) -> Subgroup | None:
    """Deterministic minimal normal subgroup of G/below, as its preimage.

    When `within` is given the search is restricted to preimages inside it.
    Returns None when below is already the whole search space.
    """
    pool = within.elems if within is not None else range(G.order)
    below_set = below.elem_set
    candidates: list[tuple[int, ...]] = []
    for g in pool:
        if g in below_set:
            continue
        candidates.append(normal_closure(G, below.elems + (g,)).elems)
    if not candidates:
        return None
    unique = sorted(set(candidates))
    minimal = [t for t in unique
               if not any(set(u) < set(t) for u in unique)]
    return Subgroup(G, min(minimal))


def minimal_normal_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    nontrivial = [N for N in normal_subgroups(G) if N.order > 1]
    return tuple(N for N in nontrivial
                 if not any(M.elem_set < N.elem_set for M in nontrivial))


def socle(G: FiniteGroup) -> Subgroup:
    """Join of all minimal normal subgroups."""
    mins = minimal_normal_subgroups(G)
    if not mins:
        return trivial_subgroup(G)
    seed: tuple[int, ...] = ()
    for m in mins:
        seed += m.elems
    return Subgroup(G, _closure(G.table, seed))


def elems_soluble(G: FiniteGroup, elems: tuple[int, ...]) -> bool:
    """Solubility of a subgroup, computed inside the parent's table."""
    return derived_series(G, elems)[-1] == (0,)


def soluble_radical(G: FiniteGroup) -> Subgroup:
    """Largest normal soluble subgroup (join of all of them)."""
    seed: tuple[int, ...] = (0,)
    for N in normal_subgroups(G):
        if elems_soluble(G, N.elems):
            seed += N.elems
    radical = Subgroup(G, _closure(G.table, seed))
    assert elems_soluble(G, radical.elems), "join of soluble normals went insoluble"
    return radical


def frattini_socle(G: FiniteGroup) -> Subgroup:
    """Preimage of the socle of G modulo its Frattini subgroup."""
    phi = frattini(G)
    Q, hom = quotient(G, phi)
    target = socle(Q).elem_set
    return Subgroup(G, tuple(g for g in range(G.order) if hom.image[g] in target))


# ---------------------------------------------------------------------------
# Chief series and chief factors


@dataclass(frozen=True)
class ChiefSeries:
    """Ascending chain of normal subgroups with simple-as-possible steps."""

    group: FiniteGroup
    chain: tuple[Subgroup, ...]          # trivial ... full, all normal in G
    factor_orders: tuple[int, ...]       # per consecutive step
    centralizers: tuple[Subgroup, ...]   # C_G(step) per consecutive step

    def factors(self):
        return tuple(zip(self.chain[1:], self.chain[:-1]))


def centralizer_of_factor(G: FiniteGroup, H: Subgroup, K: Subgroup) -> Subgroup:
    """Elements acting trivially on H/K by conjugation."""
    kset = K.elem_set
    out = []
    for g in range(G.order):
        if all(G.mul(G.conjugate(h, g), G.inverse[h]) in kset for h in H.elems):
            out.append(g)
    return Subgroup(G, tuple(out))


def chief_series(G: FiniteGroup) -> ChiefSeries:
    cached = G._derived.get("chief_series")
    if cached is not None:
        return cached
    chain = [trivial_subgroup(G)]
    while chain[-1].order < G.order:
        nxt = minimal_normal_over(G, chain[-1])
        chain.append(nxt)
    orders = tuple(chain[i + 1].order // chain[i].order for i in range(len(chain) - 1))
    cents = tuple(centralizer_of_factor(G, chain[i + 1], chain[i])
                  for i in range(len(chain) - 1))
    series = ChiefSeries(G, tuple(chain), orders, cents)
    G._derived["chief_series"] = series
    return series


def _is_chief_factor(G: FiniteGroup, H: Subgroup, K: Subgroup) -> bool:
    if not (K.elem_set < H.elem_set):
        return False
    norms = {N.elems for N in normal_subgroups(G)}
    if H.elems not in norms or K.elems not in norms:
        return False
    return not any(K.elem_set < N.elem_set < H.elem_set
                   for N in normal_subgroups(G))


def chief_factor_group(G: FiniteGroup, H: Subgroup, K: Subgroup) -> FiniteGroup:
    """The factor H/K extended by the action G induces on it:
    (H/K) x| (G / C_G(H/K)), built through quotients and a checked action."""
    if not _is_chief_factor(G, H, K):
        raise NotChiefFactor(
            f"{H.order}/{K.order} is not a chief factor of {G.name}")
    hgroup = H.as_group()
    pos = {e: i for i, e in enumerate(H.elems)}
    k_inside = Subgroup(hgroup, tuple(sorted(pos[e] for e in K.elems)))
    A, projA = quotient(hgroup, k_inside)
    C = centralizer_of_factor(G, H, K)
    B, projB = quotient(G, C)
    # one automorphism of A per coset of C, induced by conjugation
    b_reps = [min(g for g in range(G.order) if projB.image[g] == i)
              for i in range(B.order)]
    action = []
    for rep in b_reps:
        perm = [0] * A.order
        for i in range(A.order):
            h = next(e for e in H.elems if projA.image[pos[e]] == i)
            conj = G.conjugate(h, rep)
            perm[i] = projA.image[pos[conj]]
        action.append(tuple(perm))
    return semidirect_product(A, B, action)


def hypercenter(G: FiniteGroup, spec) -> Subgroup:
    """Largest normal subgroup all of whose chief factors under G lie centrally
    for the class: each factor F satisfies F x| (G/C_G(F)) in the class.

    Candidates are all normal subgroups; each is tested along one chief series
    of G refined through it.
    """
    from .classes import is_member  # deferred: classes builds on this module

    memo = G._derived.setdefault(("central_factor", spec.text()), {})

    def factor_is_central(M: Subgroup, Z: Subgroup) -> bool:
        key = (M.elems, Z.elems)
        got = memo.get(key)
        if got is None:
            if spec.hereditary:
                # the factor embeds in the extension, so it must itself qualify
                hgroup = M.as_group()
                pos = {e: i for i, e in enumerate(M.elems)}
                z_inside = Subgroup(hgroup, tuple(sorted(pos[e] for e in Z.elems)))
                bare, _ = quotient(hgroup, z_inside)
                if not is_member(bare, spec):
                    memo[key] = False
                    return False
            got = is_member(chief_factor_group(G, M, Z), spec)
            memo[key] = got
        return got

    best = trivial_subgroup(G)
    for N in normal_subgroups(G):
        if N.order <= best.order:
            continue
        Z = trivial_subgroup(G)
        ok = True
        while Z.order < N.order:
            M = minimal_normal_over(G, Z, within=N)
            if M is None or not factor_is_central(M, Z):
                ok = False
                break
            Z = M
        if ok:
            best = N
    return best


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
