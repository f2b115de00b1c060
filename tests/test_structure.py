"""Lattices, characteristic subgroups, chief series, hypercenters."""

from __future__ import annotations

import pytest

from formatio.classes import NILPOTENT, SOLUBLE, is_member
from formatio.constructions import cyclic, dihedral, symmetric
from formatio.errors import NotChiefFactor, TooLarge
from formatio.groups import (
    Subgroup,
    center,
    direct_product,
    generated_subgroup,
    is_isomorphic,
    quotient,
    trivial_subgroup,
)
from formatio.structure import (
    all_subgroups,
    chief_factor_group,
    chief_series,
    exponent,
    frattini,
    hypercenter,
    minimal_normal_subgroups,
    normal_subgroups,
    socle,
    soluble_radical,
)


def brute_force_subgroups(G):
    """Oracle: scan all subsets containing the identity for closure."""
    n = G.order
    found = set()
    for mask in range(1, 2 ** n, 2):  # odd masks contain index 0
        elems = [i for i in range(n) if mask >> i & 1]
        if n % len(elems):
            continue
        eset = set(elems)
        if all(G.table[a][b] in eset for a in elems for b in elems):
            found.add(tuple(elems))
    return found


def test_all_subgroups_s3_against_brute_force(s3):
    lattice = all_subgroups(s3)
    assert {s.elems for s in lattice.subgroups} == brute_force_subgroups(s3)
    assert len(lattice) == 6


def test_all_subgroups_q8_against_brute_force(q8):
    lattice = all_subgroups(q8)
    assert {s.elems for s in lattice.subgroups} == brute_force_subgroups(q8)
    assert len(lattice) == 6


def test_all_subgroups_zp():
    assert len(all_subgroups(cyclic(7))) == 2


def test_subgroup_budget_enforced(monkeypatch):
    from formatio import structure
    from formatio.groups import _trusted_group

    G = dihedral(6)
    fresh = _trusted_group(G.table, "D6-copy")
    monkeypatch.setattr(structure, "subgroup_budget", 3)
    with pytest.raises(TooLarge):
        all_subgroups(fresh)


def test_cached_lattice_respects_budget(s4, monkeypatch):
    from formatio import structure

    assert len(all_subgroups(s4)) == 30
    monkeypatch.setattr(structure, "subgroup_budget", 5)
    with pytest.raises(TooLarge):
        all_subgroups(s4)


def test_maximal_flags_s3(s3):
    lattice = all_subgroups(s3)
    maxes = {s.elems for s in lattice.maximal_subgroups()}
    assert maxes == {(0, 1), (0, 2), (0, 5), (0, 3, 4)}


def test_frattini_values(s3, q8):
    assert frattini(s3).order == 1
    assert frattini(cyclic(4)).elems == (0, 2)
    assert frattini(q8).elems == center(q8).elems


def test_frattini_quotient_has_trivial_frattini(catalog_groups):
    for G in catalog_groups[:20]:
        Q, _ = quotient(G, frattini(G))
        assert frattini(Q).order == 1


def test_socle_s3(s3):
    assert socle(s3).elems == generated_subgroup(s3, [3]).elems


def test_socle_trivial_group():
    assert socle(cyclic(1)).order == 1


def test_soluble_radical_a5(a5):
    assert soluble_radical(a5).order == 1


def test_soluble_radical_quotient_law(catalog_groups):
    for G in catalog_groups:
        if G.order > 30 and G.order != 60:
            continue
        R = soluble_radical(G)
        Q, _ = quotient(G, R)
        assert soluble_radical(Q).order == 1


def test_chief_series_z6():
    series = chief_series(cyclic(6))
    assert sorted(series.factor_orders) == [2, 3]
    assert series.chain[0].order == 1 and series.chain[-1].order == 6


def test_chief_series_trivial_group():
    series = chief_series(cyclic(1))
    assert series.factor_orders == ()
    assert len(series.chain) == 1


def test_chief_series_s4(s4):
    assert chief_series(s4).factor_orders == (4, 3, 2)


def test_chief_series_deterministic(s4):
    from formatio.groups import _trusted_group

    again = chief_series(_trusted_group(s4.table, "S4-copy"))
    assert [s.elems for s in again.chain] == [s.elems for s in chief_series(s4).chain]


def test_chief_factors_prime_power_when_soluble(catalog_groups):
    for G in catalog_groups:
        if not is_member(G, SOLUBLE):
            continue
        for o in chief_series(G).factor_orders:
            primes = {p for p in (2, 3, 5, 7, 11, 13) if o % p == 0}
            assert len(primes) == 1, (G.name, o)


def test_chief_factor_group_abelian_case(z6):
    series = chief_series(z6)
    H, K = series.chain[1], series.chain[0]
    F = chief_factor_group(z6, H, K)
    assert F.order == H.order  # centralizer is everything, complement trivial


def test_chief_factor_group_s3(s3):
    c3 = generated_subgroup(s3, [3])
    F = chief_factor_group(s3, c3, trivial_subgroup(s3))
    assert F.order == 6
    assert is_isomorphic(F, s3)


def test_chief_factor_group_a4(a4):
    v4 = socle(a4)
    F = chief_factor_group(a4, v4, trivial_subgroup(a4))
    assert F.order == 12
    assert is_isomorphic(F, a4)


def test_chief_factor_group_checks_the_cap_before_building(monkeypatch):
    # S5's chief factor A5/1 extends to A5 x| S5, 7,200 elements
    # the product's table builder refuses it; nothing is built
    from formatio import groups
    from formatio.classes import ALL_GROUPS
    from formatio.errors import SizeCapExceeded
    from formatio.groups import MAX_ORDER

    asked, built = [], []
    real = groups._pair_rows

    def spy(table_n, perms, table_h):
        asked.append(len(table_n) * len(table_h))
        rows = real(table_n, perms, table_h)
        built.append(len(rows))
        return rows

    monkeypatch.setattr(groups, "_pair_rows", spy)
    with pytest.raises(SizeCapExceeded, match=r"^group of order 7200 exceeds the cap 512$"):
        hypercenter(symmetric(5), ALL_GROUPS)
    assert asked == [7200] and built == []
    assert hypercenter(symmetric(4), ALL_GROUPS).order == 24
    assert built and max(built) <= MAX_ORDER


def test_chief_factor_group_rejects_non_factor(s4):
    full = Subgroup(s4, tuple(range(24)))
    with pytest.raises(NotChiefFactor):
        chief_factor_group(s4, full, trivial_subgroup(s4))


def ascending_central_series_limit(G):
    """Oracle: iterate centers of quotients, independent of chief series."""
    current = trivial_subgroup(G)
    while True:
        Q, hom = quotient(G, current)
        z = set(center(Q).elems)
        lifted = tuple(g for g in range(G.order) if hom.image[g] in z)
        if lifted == current.elems:
            return current
        current = Subgroup(G, lifted)


def test_hypercenter_matches_ascending_central_series(catalog_groups):
    for G in catalog_groups:
        if G.order > 36 and G.order not in (42, 48, 55, 60):
            continue
        assert hypercenter(G, NILPOTENT).elems == \
            ascending_central_series_limit(G).elems, G.name


def test_hypercenter_nilpotent_group_is_whole(q8, d4):
    assert hypercenter(q8, NILPOTENT).order == 8
    assert hypercenter(d4, NILPOTENT).order == 8


def test_hypercenter_s3_trivial(s3):
    assert hypercenter(s3, NILPOTENT).order == 1


def test_hypercenter_z2_x_s3(s3):
    G = direct_product(cyclic(2), s3)
    assert hypercenter(G, NILPOTENT).order == 2


def test_exponent_values(s3):
    assert exponent(cyclic(1)) == 1
    assert exponent(s3) == 6
    assert exponent(symmetric(4)) == 12


def test_minimal_normals_of_direct_product(s3):
    G = direct_product(s3, s3)
    mins = minimal_normal_subgroups(G)
    assert sorted(m.order for m in mins) == [3, 3]


def test_normal_subgroups_of_a4(a4):
    assert [N.order for N in normal_subgroups(a4)] == [1, 4, 12]


def all_chief_series_through(G, N):
    """Oracle: every chief series of G threading through the normal subgroup N."""
    from formatio.structure import normal_subgroups
    from formatio.groups import Subgroup

    norms = [M.elems for M in normal_subgroups(G)]

    def minimal_normals_over(base):
        above = [t for t in norms if set(base) < set(t)
                 and (set(t) <= set(N.elems) or set(N.elems) <= set(t))]
        return [t for t in above
                if not any(set(u) < set(t) for u in above if set(base) < set(u))]

    def extend(chain):
        top = chain[-1]
        if len(top) == G.order:
            yield chain
            return
        for nxt in minimal_normals_over(top):
            # stay inside N until N is reached, as a refinement through N must
            if not (set(nxt) <= set(N.elems) or set(N.elems) <= set(nxt)):
                continue
            yield from extend(chain + [nxt])

    yield from extend([(0,)])


def test_hypercenter_one_series_suffices(catalog_groups):
    # the one-series shortcut must agree with checking every chief series
    from formatio.classes import SUPERSOLUBLE
    from formatio.groups import Subgroup
    from formatio.structure import chief_factor_group, normal_subgroups

    for spec in (NILPOTENT, SUPERSOLUBLE):
        for G in catalog_groups:
            if G.order > 16:
                continue
            best = (0,)
            for N in normal_subgroups(G):
                fully_central_everywhere = True
                for series in all_chief_series_through(G, N):
                    below = [t for t in series if len(t) <= N.order]
                    for low, high in zip(below, below[1:]):
                        F = chief_factor_group(G, Subgroup(G, high), Subgroup(G, low))
                        if not is_member(F, spec):
                            fully_central_everywhere = False
                            break
                    if not fully_central_everywhere:
                        break
                if fully_central_everywhere and N.order > len(best):
                    best = N.elems
            assert hypercenter(G, spec).elems == best, (G.name, spec.text())


def test_normal_subgroup_budget_boundary(monkeypatch):
    from formatio import structure
    from formatio.constructions import elementary_abelian

    # (Z2)^4 has 67 subgroups, all of them normal
    G = elementary_abelian(2, 4)
    monkeypatch.setattr(structure, "subgroup_budget", 66)
    with pytest.raises(TooLarge, match=r"^E2\^4 has more than 66 normal subgroups; "
                                       r"raise the budget$"):
        normal_subgroups(G)
    monkeypatch.setattr(structure, "subgroup_budget", 67)
    assert len(normal_subgroups(G)) == 67
    monkeypatch.setattr(structure, "subgroup_budget", 66)
    with pytest.raises(TooLarge, match="more than 66 normal subgroups"):
        normal_subgroups(G)


def method_call_centralizer(G, H, K):
    """Oracle: conjugate every element of H by every g through method calls."""
    kset = K.elem_set
    out = []
    for g in range(G.order):
        if all(G.table[G.conjugate(h, g)][G.inverse[h]] in kset for h in H.elems):
            out.append(g)
    return Subgroup(G, tuple(out))


def test_centralizer_of_factor_matches_all_elements(catalog_groups):
    from formatio.groups import centralizer

    for G in catalog_groups:
        series = chief_series(G)
        for (H, K), cent in zip(series.factors(), series.centralizers):
            assert cent == method_call_centralizer(G, H, K), G.name
            assert centralizer(G, H, K) == cent
