"""Core group arithmetic: construction, closure, quotients, isomorphism."""

from __future__ import annotations

import itertools

import pytest

from formatio.constructions import cyclic, dihedral, symmetric
from formatio.errors import (
    ActionNotAutomorphism,
    ActionNotHomomorphism,
    GroupConstructionError,
    NoIdentityAtZero,
    NotAssociative,
    NotInvertible,
    NotNormal,
)
from formatio.groups import (
    build_group,
    center,
    centralizer,
    direct_product,
    generated_subgroup,
    group_from_json,
    group_to_json,
    is_isomorphic,
    isomorphism,
    normal_core,
    quotient,
    semidirect_product,
    subgroup,
    trivial_subgroup,
)


def z_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def test_trivial_group():
    G = build_group([[0]], "1")
    assert G.order == 1
    assert G.element_order == (1,)


def test_z6_element_orders():
    G = build_group(z_table(6), "Z6")
    assert G.element_order == (1, 6, 3, 2, 3, 6)
    assert G.inverse == (0, 5, 4, 3, 2, 1)


def test_identity_not_at_zero_rejected():
    # shift the identity of Z3 to index 1
    table = [[1, 0, 2], [0, 1, 2], [2, 2, 0]]
    with pytest.raises(NoIdentityAtZero):
        build_group(table)


def test_corrupted_cell_raises_not_associative(s3):
    table = [list(r) for r in s3.table]
    table[3][4] = 1 if table[3][4] != 1 else 2
    with pytest.raises((NotAssociative, NotInvertible)):
        build_group(table)


def test_bad_entry_rejected():
    with pytest.raises(GroupConstructionError):
        build_group([[0, 1], [1, 7]])


def test_generated_subgroup_of_transposition(s3):
    # brute-force closure over the table agrees
    H = generated_subgroup(s3, [1])
    elems = {0, 1}
    for a, b in itertools.product(list(elems), repeat=2):
        elems.add(s3.table[a][b])
    assert H.elems == tuple(sorted(elems))
    assert H.order == 2


def test_generated_subgroup_empty_is_trivial(s3):
    assert generated_subgroup(s3, []).elems == (0,)


def test_transposition_and_three_cycle_generate_s3(s3):
    assert generated_subgroup(s3, [1, 3]).order == 6


def test_generated_subgroup_idempotent(catalog_groups):
    for G in catalog_groups[:20]:
        full = generated_subgroup(G, range(G.order))
        assert full.elems == tuple(range(G.order))
        again = generated_subgroup(G, full.elems)
        assert again.elems == full.elems


def test_center_abelian_is_whole(z6):
    assert center(z6).order == 6


def test_center_s3_trivial_by_brute_force(s3):
    by_hand = tuple(g for g in range(6)
                    if all(s3.table[g][x] == s3.table[x][g] for x in range(6)))
    assert center(s3).elems == by_hand == (0,)


def test_center_q8_order_two(q8):
    assert center(q8).order == 2


def test_centralizer_of_subgroup(s3):
    c3 = generated_subgroup(s3, [3])
    assert centralizer(s3, c3).elems == c3.elems


def test_normal_core_of_transposition_subgroup(s3):
    H = generated_subgroup(s3, [1])
    assert normal_core(s3, H).elems == (0,)


def test_normal_core_of_normal_subgroup_is_itself(s3):
    N = generated_subgroup(s3, [3])
    assert normal_core(s3, N).elems == N.elems


def test_normal_core_of_sylow2_in_s4(s4):
    # the core of any Sylow 2-subgroup of S4 is the Klein four group of
    # double transpositions; derive it by intersecting conjugates directly
    sylow = next(H for H in _sylow2s(s4))
    expected = set(sylow.elems)
    for g in range(24):
        conj = {s4.table[s4.table[g][x]][s4.inverse[g]] for x in sylow.elems}
        expected &= conj
    got = normal_core(s4, sylow)
    assert got.elems == tuple(sorted(expected))
    assert got.order == 4
    assert sorted(s4.element_order[x] for x in got.elems) == [1, 2, 2, 2]


def _sylow2s(s4):
    seen = set()
    for x in range(24):
        if s4.element_order[x] == 4:
            H = generated_subgroup(s4, [x])
            for y in range(24):
                if s4.element_order[y] == 2 and y not in H:
                    K = generated_subgroup(s4, [x, y])
                    if K.order == 8 and K.elems not in seen:
                        seen.add(K.elems)
                        yield K


def test_quotient_s3_by_rotations(s3):
    Q, hom = quotient(s3, generated_subgroup(s3, [3]))
    assert Q.order == 2
    assert hom.image[0] == 0
    assert {hom.image[x] for x in range(6)} == {0, 1}


def test_quotient_by_trivial_is_isomorphic(s3):
    Q, _ = quotient(s3, trivial_subgroup(s3))
    assert is_isomorphic(Q, s3)


def test_quotient_by_non_normal_raises(s3):
    with pytest.raises(NotNormal):
        quotient(s3, generated_subgroup(s3, [1]))


def test_quotient_order_law(catalog_groups):
    from formatio.structure import normal_subgroups

    for G in catalog_groups[:25]:
        for N in normal_subgroups(G):
            Q, _ = quotient(G, N)
            assert Q.order * N.order == G.order


def test_direct_product_orders():
    G = direct_product(cyclic(2), cyclic(3))
    assert G.order == 6
    assert is_isomorphic(G, cyclic(6))


def test_direct_product_commutes_up_to_isomorphism(s3):
    assert is_isomorphic(direct_product(s3, cyclic(4)),
                         direct_product(cyclic(4), s3))


def test_semidirect_with_trivial_action_is_direct():
    z5 = cyclic(5)
    z4 = cyclic(4)
    action = [tuple(range(5))] * 4
    assert is_isomorphic(semidirect_product(z5, z4, action),
                         direct_product(z5, z4))


def test_semidirect_inversion_gives_s3(s3):
    z3, z2 = cyclic(3), cyclic(2)
    sd = semidirect_product(z3, z2, [(0, 1, 2), (0, 2, 1)])
    assert is_isomorphic(sd, s3)


def test_semidirect_rejects_non_automorphism():
    z4, z2 = cyclic(4), cyclic(2)
    with pytest.raises(ActionNotAutomorphism):
        semidirect_product(z4, z2, [(0, 1, 2, 3), (0, 2, 1, 3)])


def test_semidirect_rejects_non_homomorphism():
    z5, z4 = cyclic(5), cyclic(4)
    # x -> 2x has order 4; assigning it to the generator of Z4 works, but
    # pairing it with the identity in the wrong slot breaks the action law
    double = (0, 2, 4, 1, 3)
    ident = tuple(range(5))
    with pytest.raises(ActionNotHomomorphism):
        semidirect_product(z5, z4, [ident, double, ident, double])


def _semidirect_error(N, H, action):
    try:
        semidirect_product(N, H, action)
    except (ActionNotAutomorphism, ActionNotHomomorphism) as exc:
        return type(exc), str(exc)
    return None


def test_action_checks_on_generators_name_the_first_failure_of_a_full_scan():
    # the checks read only generators' rows; every permutation of S3 and of
    # Z2xZ4 fixing 0 (as the action of the trivial group), and every map
    # from Z2xZ2 to Aut(Z2xZ2), must meet the verdict and first failing
    # pair of a scan over every element
    for N in (symmetric(3), direct_product(cyclic(2), cyclic(4))):
        t, n = N.table, N.order
        for rest in itertools.permutations(range(1, n)):
            perm = (0, *rest)
            bad = next(((a, b) for a in range(n) for b in range(n)
                        if perm[t[a][b]] != t[perm[a]][perm[b]]), None)
            expected = (None if perm == tuple(range(n)) else
                        (ActionNotHomomorphism, "action is not a homomorphism at pair (0, 0)"))
            if bad is not None:
                expected = (ActionNotAutomorphism,
                            f"action[0] breaks multiplication at ({bad[0]}, {bad[1]})")
            assert _semidirect_error(N, cyclic(1), [perm]) == expected, perm
    V = direct_product(cyclic(2), cyclic(2))
    autos = [(0, *rest) for rest in itertools.permutations(range(1, 4))]
    th = V.table
    for action in itertools.product(autos, repeat=4):
        bad = next(((h1, h2) for h1 in range(4) for h2 in range(4)
                    if tuple(action[h1][x] for x in action[h2]) != action[th[h1][h2]]), None)
        expected = None if bad is None else (
            ActionNotHomomorphism, f"action is not a homomorphism at pair ({bad[0]}, {bad[1]})")
        assert _semidirect_error(V, V, action) == expected, action


def test_isomorphism_finds_witness(z6):
    G = direct_product(cyclic(2), cyclic(3))
    hom = isomorphism(G, z6)
    assert hom is not None
    assert sorted(hom.image) == list(range(6))
    for a in range(6):
        for b in range(6):
            assert hom.image[G.table[a][b]] == z6.table[hom.image[a]][hom.image[b]]


def test_isomorphism_rejects_z4_v4():
    assert not is_isomorphic(cyclic(4), direct_product(cyclic(2), cyclic(2)))


def test_isomorphism_reflexive_symmetric(catalog_groups):
    for G in catalog_groups[:12]:
        assert is_isomorphic(G, G)
    assert is_isomorphic(dihedral(6), direct_product(cyclic(2), symmetric(3)))
    assert is_isomorphic(direct_product(cyclic(2), symmetric(3)), dihedral(6))


def test_d4_not_isomorphic_q8(d4, q8):
    assert not is_isomorphic(d4, q8)


def test_subgroup_factory_validates(s3):
    with pytest.raises(GroupConstructionError):
        subgroup(s3, [0, 1, 3])  # not closed
    with pytest.raises(GroupConstructionError):
        subgroup(s3, [1])  # no identity


def test_json_round_trip(s3):
    text = group_to_json(s3)
    back = group_from_json(text)
    assert back.table == s3.table
    assert back.name == s3.name


def test_json_loader_validates(s3):
    import json

    payload = json.loads(group_to_json(s3))
    payload["table"][2][3] = 0
    with pytest.raises((NotAssociative, NotInvertible, GroupConstructionError)):
        group_from_json(json.dumps(payload))


def test_materialized_subgroup_multiplication(s3):
    H = generated_subgroup(s3, [3])
    M = H.as_group()
    assert M.order == 3
    assert M.element_order == (1, 3, 3)


def test_normal_core_is_largest_normal_inside(s4):
    from formatio.groups import is_normal
    from formatio.structure import all_subgroups

    sylow = next(_sylow2s(s4))
    core = normal_core(s4, sylow)
    inside = [s for s in all_subgroups(s4).subgroups
              if set(s.elems) <= set(sylow.elems) and is_normal(s4, s)]
    assert max(s.order for s in inside) == core.order
    assert any(s.elems == core.elems for s in inside)


def test_isomorphism_transitive_spot():
    a = direct_product(cyclic(2), cyclic(3))
    b = direct_product(cyclic(3), cyclic(2))
    c = cyclic(6)
    assert is_isomorphic(a, b) and is_isomorphic(b, c) and is_isomorphic(a, c)


def test_memo_keys_hold_plain_values(s4):
    from formatio.classes import NILPOTENT, SUPERSOLUBLE, V_SUPERSOLUBLE, ClassSpec
    from formatio.regularity import isolated_set
    from formatio.structure import chief_series, hypercenter, normal_subgroups
    from formatio.subnormality import cyclic_primary_subgroups, k_subnormal_chain

    G = build_group(s4.table, "S4 copy")
    for N in normal_subgroups(G):
        quotient(G, N)
    chief_series(G)
    hypercenter(G, SUPERSOLUBLE)
    for P in cyclic_primary_subgroups(G):
        k_subnormal_chain(G, P, NILPOTENT)
    isolated_set(G, V_SUPERSOLUBLE)
    isomorphism(G, s4)

    def plain(v):
        if isinstance(v, tuple):
            return all(plain(x) for x in v)
        return isinstance(v, (str, int, ClassSpec))

    names = {key[0] for key in G._memo}
    assert {"cyclic_table", "_quotient", "_lattice", "_class_step",
            "_factor_is_central", "_iso_screen", "conjugations"} <= names
    assert all(plain(key) for key in G._memo)


def test_table_keys_are_exact(s3, subgroup_tables):
    from formatio.classes import NILPOTENT, is_member
    from formatio.groups import TableKey

    # equal tables, held in distinct tuples by distinct groups: equal keys
    twin = build_group([list(row) for row in s3.table], "twin")
    assert twin is not s3 and twin.table is not s3.table
    assert twin.fingerprint == s3.fingerprint
    assert hash(twin.fingerprint) == hash(s3.fingerprint)
    assert is_member(twin, NILPOTENT) is is_member(s3, NILPOTENT)
    # the distinct tables of the corpus: pairwise unequal keys
    keys = [K.fingerprint for K in subgroup_tables]
    assert len({K.table for K in subgroup_tables}) == len(keys) == len(set(keys))
    # a key compares tables, not only hashes
    a, b = TableKey(s3.table), TableKey(subgroup_tables[1].table)
    b._hash = a._hash
    assert a != b and a == TableKey(s3.table)


def multiplied_orders(table):
    """Each element's order, by multiplying until the identity."""
    orders = []
    for a in range(len(table)):
        x, k = a, 1
        while x != 0:
            x, k = table[x][a], k + 1
        orders.append(k)
    return tuple(orders)


def test_element_orders_match_repeated_multiplication(catalog_groups):
    for G in catalog_groups:
        assert G.element_order == multiplied_orders(G.table), G.name


def test_materialize_reads_inverses_and_orders_off_the_parent(catalog_groups):
    from formatio.groups import materialize
    from formatio.structure import all_subgroups

    for G in catalog_groups[::4]:
        for H in all_subgroups(G).subgroups[1:-1]:
            K = materialize(G, H.elems)
            assert K.origin == (G, H.elems)
            assert all(K.table[a][b] == 0 for a, b in enumerate(K.inverse)), (G.name, H.elems)
            assert K.element_order == multiplied_orders(K.table), (G.name, H.elems)
