"""Differential tests for the subgroup-lattice layer.

The oracles are the earlier, slower algorithms: the lattice closed under joins
with every cyclic subgroup, containment by an all-pairs subset scan (with the
maximal intersection and a BFS chain search built on it), and the isolated
set and pair graph tested on every pair of elements.  The library's
two-phase lattice (zuppo joins inside the soluble residual, then prime-index
normal steps), its containment bitmasks, its chain witnesses read off
the reach test and its cyclic-subgroup pair tests must give the same results,
and relabelling a table must move every result along with it.
"""

from __future__ import annotations

import random

import pytest

from conftest import relabelled as conftest_relabelled
from formatio import structure
from formatio.arith import is_prime, prime_divisors
from formatio.classes import is_member, parse_spec
from formatio.constructions import (
    alternating,
    cyclic,
    direct_product,
    elementary_abelian,
    field_action_group,
    symmetric,
)
from formatio.errors import TooLarge
from formatio.groups import (
    Subgroup,
    _closure,
    _normal_product,
    _trusted_group,
    build_group,
    cyclic_table,
    is_normal,
    is_normal_in,
    materialize,
    normal_core,
    quotient,
    trivial_subgroup,
)
from formatio.regularity import isolated_set, maximal_intersection, non_class_graph
from formatio.structure import (
    _is_chief_factor,
    _minimal_normals_over,
    all_subgroups,
    chief_series,
    hypercenter,
    minimal_normal_over,
    minimal_normal_subgroups,
    normal_subgroups,
    socle,
    soluble_radical,
)
from formatio.subnormality import _core_quotient, k_subnormal_chain, prime_index_chain

ISOLATED_SPECS = ("vU", "N", "reg(default->1)", "sylow_tower:2>3>5")


def cyclic_joins_lattice(G):
    """Every subgroup, by joining each subgroup found with every cyclic
    subgroup from scratch; with the maximal flags."""
    table = G.table
    cyclics = sorted({_closure(table, (x,)) for x in range(G.order)})
    subs = set(cyclics)
    frontier = list(cyclics)
    while frontier:
        base = frontier.pop()
        for c in cyclics:
            if not set(c) <= set(base):
                join = _closure(table, base + c)
                if join not in subs:
                    subs.add(join)
                    frontier.append(join)
    ordered = sorted(subs, key=lambda t: (len(t), t))
    n = G.order
    maximal = tuple(
        len(t) < n and not any(len(t) < len(u) < n and set(t) <= set(u) for u in ordered)
        for t in ordered)
    return ordered, maximal


def proper_superset_lists(ordered):
    """Each subgroup's proper supersets in (size, elements) order, by an
    all-pairs subset scan over a lattice already in that order."""
    sets = [frozenset(t) for t in ordered]
    return {t: [u for u, su in zip(ordered, sets) if s < su]
            for t, s in zip(ordered, sets)}


def all_pairs_maximal_intersection(G, spec):
    """Common elements of the class members not properly inside another."""
    members = [frozenset(t) for t in cyclic_joins_lattice(G)[0]
               if is_member(materialize(G, t), spec)]
    maximal = [s for s in members if not any(s < other for other in members)]
    return tuple(sorted(frozenset.intersection(*maximal)))


def bfs_chain_over_superset_lists(G, start, step_kind, ups):
    """Shortest chain from start to G over `ups`, with its step kinds:
    `step_kind(small, big)` names the kind of an edge, or is None for none."""
    full = tuple(range(G.order))
    if start == full:
        return (full,), ()
    parent, kinds, frontier = {start: None}, {}, [start]
    while frontier:
        nxt = []
        for node in frontier:
            for up in ups[node]:
                if up in parent:
                    continue
                kind = step_kind(node, up)
                if kind is None:
                    continue
                parent[up], kinds[up] = node, kind
                if up == full:
                    path = [up]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return tuple(path), tuple(kinds[t] for t in path[1:])
                nxt.append(up)
        frontier = nxt
    return None


_PAIR_CLOSURES: dict = {}


def pair_member(G, x, y, spec):
    """Whether <x, y> lies in the class, closing each unordered pair of
    elements once per group."""
    key = (G.fingerprint, min(x, y), max(x, y))
    elems = _PAIR_CLOSURES.get(key)
    if elems is None:
        elems = _PAIR_CLOSURES[key] = _closure(G.table, (x, y))
    return is_member(materialize(G, elems), spec)


def all_pairs_isolated(G, spec):
    return tuple(x for x in range(G.order)
                 if all(pair_member(G, x, y, spec) for y in range(G.order)))


def relabelled(G, seed):
    """G with its elements renamed by a seeded permutation fixing 0."""
    rest = list(range(1, G.order))
    random.Random(seed).shuffle(rest)
    perm = [0] + rest
    table = [[0] * G.order for _ in range(G.order)]
    for a in range(G.order):
        for b in range(G.order):
            table[perm[a]][perm[b]] = perm[G.table[a][b]]
    return build_group(table, G.name + "~"), perm


@pytest.fixture(scope="module")
def large_groups():
    # A5xZ2 has members neither soluble nor inside its residual A5, such as
    # A4xZ2: prime-index steps from A5's subgroups by the central involution
    return [symmetric(5), direct_product(field_action_group(7, 2), cyclic(2)),
            direct_product(alternating(5), cyclic(2))]


def assert_lattice_matches_oracle(G):
    lattice = all_subgroups(G)
    ordered, maximal = cyclic_joins_lattice(G)
    assert [s.elems for s in lattice.subgroups] == ordered, G.name
    assert lattice.maximal_flags == maximal, G.name
    position = {t: i for i, t in enumerate(ordered)}
    supersets = proper_superset_lists(ordered)
    above = tuple(sum(1 << position[u] for u in supersets[t]) for t in ordered)
    assert lattice.above == above, G.name


def test_lattice_matches_cyclic_joins_on_catalog(catalog_groups):
    for G in catalog_groups:
        assert_lattice_matches_oracle(G)


def test_lattice_matches_cyclic_joins_on_large_groups(large_groups):
    for G in large_groups:
        assert_lattice_matches_oracle(G)


def test_lattice_matches_cyclic_joins_on_relabelled_copies(large_groups):
    for seed, G in enumerate(large_groups):
        assert_lattice_matches_oracle(relabelled(G, seed)[0])


def test_lattice_by_classes_matches_cyclic_joins():
    # phase 1 joins one subgroup per conjugacy class with each zuppo of the
    # soluble residual, here all of A5 and the A5 inside A5xS3; S5 and A5xZ2,
    # and relabelled copies of them, are in `large_groups`
    groups = [alternating(5), direct_product(alternating(5), symmetric(3))]
    for seed, G in enumerate(groups + groups):
        assert_lattice_matches_oracle(G if seed < 2 else conftest_relabelled(G, seed))


def fresh_lattice(K, cache):
    """K's lattice enumerated on a copy of its table with no parent link,
    once per table."""
    if K.fingerprint not in cache:
        copy = _trusted_group(K.table, K.name + "-fresh")
        assert copy.origin is None
        cache[K.fingerprint] = all_subgroups(copy)
    return cache[K.fingerprint]


def test_restricted_lattices_match_fresh_enumeration(subgroup_tables):
    # every subgroup of every corpus group, of S5 and of A5xS3 (order 360),
    # and of relabelled copies of A5xS3 and of the larger corpus groups
    big = direct_product(alternating(5), symmetric(3))
    larger = [K for K in subgroup_tables if K.order >= 48]
    groups = [*subgroup_tables, symmetric(5), big, conftest_relabelled(big, 1),
              *(conftest_relabelled(K, seed) for seed, K in enumerate(larger))]
    cache: dict = {}
    pairs = 0
    for G in groups:
        lattice = all_subgroups(G)
        for H in lattice.subgroups:
            K = materialize(G, H.elems)
            got = structure._restricted(K, lattice, H.elems)
            want = fresh_lattice(K, cache)
            assert [s.elems for s in got.subgroups] == [s.elems for s in want.subgroups], (
                G.name, H.elems)
            assert got.above == want.above, (G.name, H.elems)
            pairs += 1
    assert pairs > 5000


def test_subgroups_read_their_lattice_off_a_memoized_parent(monkeypatch):
    restricted, steps = [], []

    def spy(fn, calls):
        def wrapped(*args):
            calls.append(args[0])
            return fn(*args)
        return wrapped

    monkeypatch.setattr(structure, "_restricted", spy(structure._restricted, restricted))
    monkeypatch.setattr(structure, "_coset_extension",
                        spy(structure._coset_extension, steps))
    G = _trusted_group(symmetric(5).table, "S5-fresh")
    a5 = next(H for H in all_subgroups(G).subgroups if H.order == 60)
    K = a5.as_group()
    assert K.origin == (G, a5.elems)
    steps.clear()
    assert len(all_subgroups(K)) == 59
    assert (restricted, steps) == ([K], [])
    # under another budget the parent has no lattice to read, so K enumerates
    # its own, and the budget holds on it
    monkeypatch.setattr(structure, "subgroup_budget", 58)
    with pytest.raises(TooLarge, match=r"more than 58 subgroups"):
        all_subgroups(K)
    assert restricted == [K] and steps


def test_no_parent_lattice_is_enumerated_for_a_restriction():
    G = _trusted_group(symmetric(4).table, "S4-fresh")
    K = materialize(G, tuple(sorted(_closure(G.table, (1, 2)))))
    assert K.origin is not None
    lattice = all_subgroups(K)
    assert not any(key[0] == "_lattice" for key in G._memo)
    assert len(lattice) == len(all_subgroups(_trusted_group(K.table, "fresh")))


def test_lattice_joins_match_pair_closures(catalog_groups, large_groups):
    for G in [*catalog_groups, *large_groups]:
        lattice = all_subgroups(G)
        assert structure.memoized_lattice(G) is lattice
        subgroups = lattice.subgroups
        leads = sorted(cyclic_table(G)[1])  # <x, y> depends on <x> and <y> only
        for x in leads:
            for y in leads:
                assert subgroups[lattice.join(x, y)].elems == _closure(G.table, (x, y)), \
                    (G.name, x, y)


def test_maximal_intersection_matches_all_pairs_scan(catalog_groups, large_groups):
    specs = [parse_spec(t) for t in ("vU", "N", "reg(default->1)",
                                     "cap(p_nilpotent:2,S)", "sylow_tower:2>3>5")]
    copies = [relabelled(G, seed)[0] for seed, G in enumerate(large_groups)]
    for G in [*catalog_groups, *copies]:
        for spec in specs:
            assert maximal_intersection(G, spec) == all_pairs_maximal_intersection(
                G, spec), (G.name, spec.text())


def test_chain_searches_match_bfs_over_superset_lists(catalog_groups):
    # N, and U: the inner class of vstar(U)
    class_specs = [parse_spec("N"), parse_spec("U")]

    def prime_step(small, big):
        return "prime-index" if is_prime(len(big) // len(small)) else None

    def class_step(G, spec):
        def kind(small, big):
            if all(G.conjugate(x, g) in small for g in big for x in small):
                return "normal"
            core_quotient = _core_quotient(G, Subgroup(G, small), Subgroup(G, big))
            return "class-quotient" if is_member(core_quotient, spec) else None
        return kind

    def found(witness):
        if witness is None:
            return None
        return tuple(s.elems for s in witness.chain), witness.step_kinds

    for G in catalog_groups:
        if G.order > 24:
            continue
        ups = proper_superset_lists(cyclic_joins_lattice(G)[0])
        primary = sorted({_closure(G.table, (x,)) for x in range(G.order)
                          if len(prime_divisors(G.element_order[x])) == 1})
        for P in primary:
            H = Subgroup(G, P)
            assert found(prime_index_chain(G, H)) == bfs_chain_over_superset_lists(
                G, P, prime_step, ups), (G.name, P)
            for spec in class_specs:
                assert found(k_subnormal_chain(G, H, spec)) == (
                    bfs_chain_over_superset_lists(G, P, class_step(G, spec), ups)), (
                    G.name, P, spec.text())


def test_budget_boundary_on_fresh_and_cached_lattice(monkeypatch):
    fresh = _trusted_group(symmetric(4).table, "S4-fresh")
    for _ in range(2):
        monkeypatch.setattr(structure, "subgroup_budget", 29)
        with pytest.raises(TooLarge, match=r"^S4-fresh has more than 29 subgroups; "
                                           r"raise the budget$"):
            all_subgroups(fresh)
        monkeypatch.setattr(structure, "subgroup_budget", 30)
        assert len(all_subgroups(fresh)) == 30


def test_budget_boundaries_in_each_lattice_phase(monkeypatch):
    # S5 has 156 subgroups; the 59 inside its residual A5 come from zuppo
    # joins (phase 1), the rest from prime-index normal steps (phase 2),
    # each of which is one normal product
    assert len(all_subgroups(alternating(5))) == 59
    fresh = _trusted_group(symmetric(5).table, "S5-fresh")
    products = []

    def counted_product(*args):
        products.append(args)
        return _normal_product(*args)

    monkeypatch.setattr(structure, "_normal_product", counted_product)
    for _ in range(2):
        for budget, in_phase_2 in ((58, False), (155, True)):
            products.clear()
            monkeypatch.setattr(structure, "subgroup_budget", budget)
            with pytest.raises(TooLarge, match=rf"^S5-fresh has more than {budget} "
                                               r"subgroups; raise the budget$"):
                all_subgroups(fresh)
            assert bool(products) == in_phase_2, budget
        monkeypatch.setattr(structure, "subgroup_budget", 156)
        assert len(all_subgroups(fresh)) == 156


def test_budget_holds_on_a_cyclic_group(monkeypatch):
    # every subgroup of Z8 is cyclic; the first call must still count them all
    fresh = _trusted_group(cyclic(8).table, "Z8-fresh")
    monkeypatch.setattr(structure, "subgroup_budget", 3)
    with pytest.raises(TooLarge, match="more than 3 subgroups"):
        all_subgroups(fresh)
    monkeypatch.setattr(structure, "subgroup_budget", 4)
    assert len(all_subgroups(fresh)) == 4


def test_identical_copies_are_the_group_itself(catalog_groups):
    for G in catalog_groups[:12] + [symmetric(4)]:
        assert materialize(G, tuple(range(G.order))) is G
        Q, hom = quotient(G, trivial_subgroup(G))
        assert Q is G
        assert hom.image == tuple(range(G.order))


def test_normal_subgroups_match_lattice_flags(catalog_groups):
    for G in catalog_groups:
        normal = [s.elems for s in all_subgroups(G).subgroups if is_normal(G, s)]
        assert [N.elems for N in normal_subgroups(G)] == normal, G.name


def test_minimal_normal_over_matches_the_normal_subgroup_list(catalog_groups):
    for G in catalog_groups:
        normals = normal_subgroups(G)
        for below in normals:
            over = [N for N in normals if below.elem_set < N.elem_set]
            minimal = [N.elems for N in over
                       if not any(M.elem_set < N.elem_set for M in over)]
            assert [M.elems for M in _minimal_normals_over(G, below.elems)] == minimal
            got = minimal_normal_over(G, below)
            assert (got.elems if got else None) == min(minimal, default=None), G.name
            for above in normals:
                chief = above.elems in minimal
                assert _is_chief_factor(G, above, below) == chief, (G.name, above, below)


def test_chief_series_does_not_list_normal_subgroups():
    # (Z2)^8 has 417,199 subgroups, all normal; a chief series needs 8 steps
    G = elementary_abelian(2, 8)
    assert chief_series(G).factor_orders == (2,) * 8
    assert is_member(G, parse_spec("supersoluble"))
    whole = tuple(range(G.order))
    assert hypercenter(G, parse_spec("nilpotent")).elems == whole
    assert soluble_radical(G).elems == whole
    assert len(minimal_normal_subgroups(G)) == 255
    assert socle(G).elems == whole
    assert not any(key[0] == "_normal_subgroups" for key in G._memo)


def test_isolated_set_matches_all_element_pairs(catalog_groups):
    specs = [parse_spec(t) for t in ISOLATED_SPECS]
    for G in catalog_groups:
        for spec in specs:
            assert isolated_set(G, spec) == all_pairs_isolated(G, spec), (
                G.name, spec.text())


def test_pair_graph_matches_all_element_pairs(catalog_groups):
    specs = [parse_spec(t) for t in ("vU", "N", "A")]
    for G in catalog_groups:
        if G.order > 24:
            continue
        n = G.order
        for spec in specs:
            expected = tuple(tuple(not pair_member(G, x, y, spec) for y in range(n))
                             for x in range(n))
            assert non_class_graph(G, spec).adjacency == expected, (G.name, spec.text())


def test_results_move_with_a_relabelling(catalog_groups):
    specs = [parse_spec("vU"), parse_spec("N")]
    # non-nilpotent groups, where the two element sets are proper subsets
    picked = [G for G in catalog_groups if not is_member(G, specs[1])][::2][:10]
    assert len(picked) == 10
    for seed, G in enumerate(picked):
        H, perm = relabelled(G, seed)
        lattice_g, lattice_h = all_subgroups(G), all_subgroups(H)
        assert len(lattice_h) == len(lattice_g), G.name
        assert (sorted(s.order for s in lattice_h.subgroups)
                == sorted(s.order for s in lattice_g.subgroups)), G.name
        for spec in specs:
            for compute in (isolated_set, maximal_intersection):
                moved = tuple(sorted(perm[x] for x in compute(G, spec)))
                assert compute(H, spec) == moved, (G.name, spec.text(), compute.__name__)


def test_normality_and_cores_match_conjugation_by_every_element(subgroup_tables):
    # every pair small <= big of lattice members of the corpus groups, and of
    # relabelled copies of the larger ones: normal when every element of big
    # maps small onto itself, and the core is the intersection of small's
    # conjugates by every element of big
    larger = [K for K in subgroup_tables if K.order >= 48]
    pairs = 0
    for G in [*subgroup_tables, *(relabelled(K, seed)[0] for seed, K in enumerate(larger))]:
        lattice = all_subgroups(G)
        subs = lattice.subgroups
        conj = [[G.conjugate(x, g) for x in range(G.order)] for g in range(G.order)]
        for i, small in enumerate(subs):
            for j in range(i, len(subs)):
                if j != i and not lattice.above[i] >> j & 1:
                    continue
                big = subs[j].elems
                conjugates = [frozenset(map(conj[g].__getitem__, small.elems)) for g in big]
                normal = all(c == small.elem_set for c in conjugates)
                core = tuple(sorted(frozenset.intersection(*conjugates)))
                assert is_normal_in(G, small.elem_set, big) is normal, (G.name, i, j)
                assert normal_core(G, small, big).elems == core, (G.name, i, j)
                pairs += 1
            # G itself, by default
            conjugates = [frozenset(map(row.__getitem__, small.elems)) for row in conj]
            assert is_normal_in(G, small.elem_set) is all(
                c == small.elem_set for c in conjugates), (G.name, i)
            assert normal_core(G, small).elems == tuple(
                sorted(frozenset.intersection(*conjugates))), (G.name, i)
    assert pairs > 17000


def test_least_conjugates_match_conjugation_by_every_element(catalog_groups, large_groups):
    for G in [*catalog_groups, *large_groups[:1]]:
        lattice = all_subgroups(G)
        least = []
        for s in lattice.subgroups:
            conjugates = {tuple(sorted(G.conjugate(x, g) for x in s.elems))
                          for g in range(G.order)}
            least.append(min(lattice.index[t] for t in conjugates))
        assert lattice.least_conjugate == tuple(least), G.name


def test_isolated_sets_agree_with_and_without_a_lattice(catalog_groups):
    # with G's lattice memoized, pairs are read off it and judged by class;
    # without, they are closed and judged one by one (until a verdict on the
    # whole group enumerates its lattice)
    specs = [parse_spec(t) for t in ISOLATED_SPECS]
    for G in catalog_groups[::3]:
        for spec in specs:
            bare, full = (_trusted_group(G.table, G.name + k) for k in ("-bare", "-lattice"))
            all_subgroups(full)
            assert structure.memoized_lattice(bare) is None
            got = isolated_set(bare, spec)
            assert got == isolated_set(full, spec) == all_pairs_isolated(G, spec), (
                G.name, spec.text())
