"""Oracles for the catalog's build paths.

Products read their inverses and element orders off their factors, tables
are written without `json.dumps`, tags are settled by class inclusion, the
isomorphism screen is staged, and the catalog builds only the candidates
that fit its bound.  Each is checked here against the direct computation it
replaced.  The catalog's candidates are pairwise non-isomorphic at every
bound, which the build does not check.
"""

from __future__ import annotations

import json

from formatio import constructions
from formatio.classes import (
    ABELIAN,
    NILPOTENT,
    SOLUBLE,
    SUPERSOLUBLE,
    is_member,
    is_schmidt,
)
from formatio.constructions import (
    PRODUCT_PAIRS,
    CatalogConfig,
    _renamed,
    alternating,
    build_catalog,
    compute_tags,
    cyclic,
    dihedral,
    elementary_abelian,
    field_action_group,
    symmetric,
)
from formatio.groups import (
    MAX_ORDER,
    FiniteGroup,
    _compute_inverses,
    _element_orders,
    _iso_screen,
    direct_product,
    group_to_json,
    isomorphism,
)


def test_product_bookkeeping_matches_a_scan_of_the_table():
    groups = [e.group for e in build_catalog(CatalogConfig(MAX_ORDER))
              if e.provenance.startswith(("direct_product", "abelian", "cyclic"))]
    groups += [direct_product(symmetric(4), symmetric(3)),
               direct_product(alternating(5), cyclic(2)),
               direct_product(field_action_group(7, 2), cyclic(2)),
               cyclic(MAX_ORDER), elementary_abelian(2, 9)]
    assert len(groups) > 40
    for G in groups:
        assert G.inverse == _compute_inverses(G.table), G.name
        assert G.element_order == _element_orders(G.table), G.name


def _dumped(G: FiniteGroup) -> str:
    payload = {"name": G.name, "order": G.order, "table": [list(r) for r in G.table]}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def test_group_to_json_matches_json_dumps(catalog):
    groups = [e.group for e in catalog] + [cyclic(1)]
    groups += [_renamed(G, name) for G in (cyclic(1), symmetric(3))
               for name in ('say "S3"', "back\\slash", "Gruppe äß", "ℤ/2",
                            "\U0001d53e", "tab\tnew\nline")]
    for G in groups:
        assert group_to_json(G) == _dumped(G), G.name


def direct_tags(G: FiniteGroup) -> tuple[str, ...]:
    """Every predicate tested on its own."""
    tags = []
    if G.order == 1:
        tags.append("trivial")
    if any(o == G.order for o in G.element_order):
        tags.append("cyclic")
    if is_member(G, ABELIAN):
        tags.append("abelian")
    if is_member(G, NILPOTENT):
        tags.append("nilpotent")
    if is_member(G, SUPERSOLUBLE):
        tags.append("supersoluble")
    if is_member(G, SOLUBLE):
        tags.append("soluble")
    else:
        tags.append("nonsoluble")
    if is_schmidt(G):
        tags.append("schmidt")
    return tuple(sorted(tags))


def test_tags_by_inclusion_match_the_direct_predicates():
    entries = build_catalog(CatalogConfig(120))
    assert {"schmidt", "nonsoluble", "supersoluble"} <= {t for e in entries for t in e.tags}
    for e in entries:
        assert compute_tags(e.group) == direct_tags(e.group) == e.tags, e.group.name


def test_catalog_builds_nothing_above_its_bound(monkeypatch):
    orders = []
    init = FiniteGroup.__init__

    def recording(self, table, *args, **kwargs):
        orders.append(len(table))
        init(self, table, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", recording)
    entries = build_catalog(CatalogConfig(12))
    assert {e.group.order for e in entries} == set(range(1, 13))
    assert orders and max(orders) <= 12


def _key(entries):
    return [(e.group.name, e.group.table, e.tags, e.provenance) for e in entries]


def test_a_bound_above_the_cap_builds_the_capped_catalog():
    # no candidate is above the cap, so a larger bound adds nothing and must
    # not try to build a group the builders refuse
    assert _key(build_catalog(CatalogConfig(MAX_ORDER + 100))) == \
        _key(build_catalog(CatalogConfig(MAX_ORDER)))


def test_no_two_catalog_entries_are_isomorphic():
    # the build runs no isomorphism search, so its candidates must be
    # pairwise distinct by construction
    groups = [e.group for e in build_catalog(CatalogConfig(MAX_ORDER))]
    for i, A in enumerate(groups):
        for B in groups[i + 1:]:
            if A.order == B.order:
                assert isomorphism(A, B) is None, (A.name, B.name)


def test_every_bound_builds_the_capped_catalog_cut_at_that_bound():
    # with the test above, this makes every bound's catalog free of
    # isomorphic pairs; the largest candidate has order 72
    cap = build_catalog(CatalogConfig(MAX_ORDER))
    for bound in range(1, 151):
        assert _key(build_catalog(CatalogConfig(bound))) == \
            _key(e for e in cap if e.group.order <= bound), bound


def test_every_product_pair_is_built_when_it_fits(monkeypatch):
    built = set()

    def recording(A, B):
        built.add((A.name, B.name))
        return direct_product(A, B)

    monkeypatch.setattr(constructions, "direct_product", recording)
    build_catalog(CatalogConfig(MAX_ORDER))
    assert set(PRODUCT_PAIRS) <= built


def test_isomorphism_screens_element_orders_first():
    A, B = cyclic(4), elementary_abelian(2, 2)
    assert isomorphism(A, B) is None
    assert _iso_screen.peek(A) is None and _iso_screen.peek(B) is None
    C, D = symmetric(3), dihedral(3)
    assert isomorphism(C, D) is not None
    assert _iso_screen.peek(C) is not None and _iso_screen.peek(D) is not None
