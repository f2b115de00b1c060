"""Builders, field-action groups, and catalog determinism."""

from __future__ import annotations

import pytest

from formatio.arith import lcm_ints, multiplicative_order
from formatio.constructions import (
    FIELD_ACTION_PARAMS,
    CatalogConfig,
    alternating,
    build_catalog,
    cyclic,
    dihedral,
    elementary_abelian,
    field_action_group,
    lint_catalog,
    quaternion,
    read_catalog,
    symmetric,
    write_catalog,
)
from formatio.errors import NotCoprime, TooLarge, UnsupportedParameter
from formatio.groups import centralizer, is_isomorphic
from formatio.structure import exponent, minimal_normal_subgroups, socle


def test_cyclic_trivial():
    assert cyclic(1).order == 1


def test_cyclic_rejects_zero():
    with pytest.raises(UnsupportedParameter):
        cyclic(0)


def test_elementary_abelian_v4():
    G = elementary_abelian(2, 2)
    assert G.order == 4
    assert sorted(G.element_order) == [1, 2, 2, 2]


def test_elementary_abelian_27():
    G = elementary_abelian(3, 3)
    assert G.order == 27
    assert all(o in (1, 3) for o in G.element_order)


def test_dihedral_s3():
    assert is_isomorphic(dihedral(3), symmetric(3))


def test_dihedral_rejects_small():
    with pytest.raises(UnsupportedParameter):
        dihedral(2)


def test_symmetric_4_order_and_exponent():
    G = symmetric(4)
    assert G.order == 24
    assert exponent(G) == lcm_ints(G.element_order) == 12


def test_alternating_5_order():
    assert alternating(5).order == 60


def test_symmetric_range_check():
    with pytest.raises(UnsupportedParameter):
        symmetric(6)


def test_quaternion_element_orders():
    assert sorted(quaternion().element_order) == [1, 2, 4, 4, 4, 4, 4, 4]


def test_field_action_2_3_is_s3():
    assert is_isomorphic(field_action_group(2, 3), symmetric(3))


def test_field_action_3_2_is_a4():
    # multiplicative order of 2 mod 3 is 2, so the module is the field with 4
    assert multiplicative_order(2, 3) == 2
    assert is_isomorphic(field_action_group(3, 2), alternating(4))


def test_field_action_degenerate_is_cyclic_p():
    for p in (2, 3, 5, 7):
        assert is_isomorphic(field_action_group(1, p), cyclic(p))


def test_field_action_rejects_common_factor():
    with pytest.raises(NotCoprime):
        field_action_group(3, 3)


def test_field_action_size_guard():
    with pytest.raises(TooLarge):
        field_action_group(9, 2)  # 2^6 * 9 = 576
    # refused by p * n before is_prime(p) trial-divides or
    # multiplicative_order(p, n) searches
    for n, p in ((3, 10**30 + 57), (10**32 + 1, 2), (1, 10**30 + 57)):
        with pytest.raises(TooLarge):
            field_action_group(n, p)


def test_field_action_structure():
    # every catalog parameter pair, the pairs that give D_p and A4 (which the
    # catalog holds under those names), and fields of degree 3 and 4; the
    # module sits at the indices {k*n}, the acting cyclic at 0..n-1
    params = []
    extra = ((2, 3), (3, 2), (2, 5), (2, 7), (7, 2), (5, 2))
    for n, p in FIELD_ACTION_PARAMS + extra:
        try:
            params.append((n, p, field_action_group(n, p)))
        except TooLarge:
            pass
    assert {(7, 2), (5, 2), (6, 7), (8, 3)} <= {(n, p) for n, p, _ in params}
    for n, p, E in params:
        d = multiplicative_order(p, n)
        assert E.order == p ** d * n
        mins = minimal_normal_subgroups(E)
        assert [m.elems for m in mins] == [tuple(range(0, E.order, n))], E.name
        module = mins[0]
        assert socle(E).elems == module.elems
        # self-centralizing module, so the action is faithful
        assert centralizer(E, module).elems == module.elems
        assert [g for g in centralizer(E, module).elems if g < n] == [0], E.name


def test_catalog_contains_one_a4():
    entries = build_catalog(CatalogConfig(max_order=24))
    a4 = alternating(4)
    matches = [e for e in entries
               if e.group.order == 12 and is_isomorphic(e.group, a4)]
    assert len(matches) == 1


def test_catalog_max_one_is_trivial_only():
    entries = build_catalog(CatalogConfig(max_order=1))
    assert len(entries) == 1
    assert entries[0].group.order == 1


def test_catalog_a5_tagged_nonsoluble(catalog):
    a5_entries = [e for e in catalog if e.group.name == "A5"]
    assert len(a5_entries) == 1
    assert "nonsoluble" in a5_entries[0].tags


def test_catalog_has_enough_breadth(catalog):
    assert len(catalog) >= 40
    assert any("schmidt" in e.tags for e in catalog)


def test_catalog_lint_clean(catalog):
    assert lint_catalog(catalog) == []


def test_catalog_deterministic_bytes(tmp_path):
    config = CatalogConfig(max_order=16)
    first = tmp_path / "one"
    second = tmp_path / "two"
    write_catalog(build_catalog(config), first)
    write_catalog(build_catalog(config), second)
    assert (first / "manifest.json").read_bytes() == (second / "manifest.json").read_bytes()
    for path in sorted((first / "groups").iterdir()):
        other = second / "groups" / path.name
        assert path.read_bytes() == other.read_bytes()


def test_catalog_round_trip(tmp_path):
    entries = build_catalog(CatalogConfig(max_order=12))
    write_catalog(entries, tmp_path)
    loaded = read_catalog(tmp_path)
    assert [e.group.name for e in loaded] == [e.group.name for e in entries]
    assert all(a.group.table == b.group.table for a, b in zip(loaded, entries))


def test_elementary_abelian_size_guard():
    with pytest.raises(TooLarge):
        elementary_abelian(2, 10)
    with pytest.raises(TooLarge):
        elementary_abelian(10**30 + 57, 1)  # refused before is_prime
