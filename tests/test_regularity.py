"""Isolated sets, maximal intersections, pair graphs, and sweeps."""

from __future__ import annotations

import pytest

from formatio.classes import (
    ABELIAN,
    AllGroupsClass,
    NILPOTENT,
    SOLUBLE,
    SUPERSOLUBLE,
    TRIVIAL,
    V_SUPERSOLUBLE,
    cap,
    is_member,
    p_nilpotent,
    parse_spec,
    sylow_tower,
    vstar,
)
from formatio.constructions import (
    cyclic,
    dihedral,
    direct_product,
    field_action_group,
    symmetric,
)
from formatio.errors import EmptyClass
from formatio.groups import center
from formatio.regularity import (
    graph_to_dot,
    is_theorem_backed_regular,
    isolated_set,
    maximal_intersection,
    non_class_graph,
    SweepRow,
    regularity_row,
    regularity_sweep,
)
from formatio.structure import all_subgroups, hypercenter, soluble_radical


def brute_isolated(G, spec):
    """Oracle: test every ordered pair through a fresh closure."""
    from formatio.groups import generated_subgroup

    out = []
    for x in range(G.order):
        if all(is_member(generated_subgroup(G, [x, y]).as_group(), spec)
               for y in range(G.order)):
            out.append(x)
    return tuple(out)


def test_isolated_abelian_is_center(s3, q8, z6):
    for G in (s3, q8, z6):
        assert isolated_set(G, ABELIAN) == center(G).elems
        assert isolated_set(G, ABELIAN) == brute_isolated(G, ABELIAN)


def test_isolated_abelian_on_abelian_group(z6):
    assert isolated_set(z6, ABELIAN) == tuple(range(6))


def test_isolated_soluble_a5_is_trivial(a5):
    assert isolated_set(a5, SOLUBLE) == soluble_radical(a5).elems == (0,)


def test_maximal_intersection_s3_nilpotent(s3):
    assert maximal_intersection(s3, NILPOTENT) == (0,)


def test_maximal_intersection_of_member_is_whole(s3, q8):
    assert maximal_intersection(s3, SOLUBLE) == tuple(range(6))
    assert maximal_intersection(q8, NILPOTENT) == tuple(range(8))


def test_maximal_intersection_nilpotent_is_hypercenter(catalog_groups):
    for G in catalog_groups:
        if G.order > 30 and G.order != 60:
            continue
        assert maximal_intersection(G, NILPOTENT) == hypercenter(G, NILPOTENT).elems


def test_maximal_intersection_is_hypercenter_on_soluble_groups(soluble_catalog_groups,
                                                               e52_d8):
    # Int_F(G) = Z_F(G) for these classes on every soluble catalog group and
    # on E(5^2):D8, which is in vU but not in U
    for text in ("N", "U", "vU", "reg(default->1)", "reg(default->full)",
                 "cap(p_nilpotent:2,S)", "vstar(N)"):
        spec = parse_spec(text)
        for G in [*soluble_catalog_groups, e52_d8]:
            assert maximal_intersection(G, spec) == hypercenter(G, spec).elems, (
                G.name, text)


def test_maximal_intersection_exceeds_hypercenter_in_s4(s4):
    # for these classes S4's maximal members meet in V4, yet no chief factor
    # of S4 is central
    for text in ("sylow_tower:2>3>5", "reg(2->2^inf*3,3->3^inf,default->1)"):
        spec = parse_spec(text)
        assert hypercenter(s4, spec).order == 1, text
        assert len(maximal_intersection(s4, spec)) == 4, text


def test_maximal_intersection_empty_class(s3):
    from formatio.classes import TrivialClass

    class Nothing(TrivialClass):
        def text(self):
            return "nothing"

        def _member(self, G):
            return False

    with pytest.raises(EmptyClass):
        maximal_intersection(s3, Nothing())


def test_non_class_graph_s3_nilpotent(s3):
    graph = non_class_graph(s3, NILPOTENT)
    # oracle: S3's only non-nilpotent subgroup is S3 itself, so edges are the
    # pairs generating everything: 3 x 2 transposition-rotation pairs plus
    # the 3 transposition-transposition pairs
    brute_edges = 0
    from formatio.groups import generated_subgroup

    for x in range(6):
        for y in range(x + 1, 6):
            if generated_subgroup(s3, [x, y]).order == 6:
                brute_edges += 1
    assert brute_edges == 9
    assert graph.edge_count == 9
    assert graph.isolated == (0,)


def test_graph_of_member_group_has_no_edges(z6):
    assert non_class_graph(z6, NILPOTENT).edge_count == 0


def test_graph_isolated_equals_isolated_set(a4):
    for spec in (ABELIAN, NILPOTENT, SUPERSOLUBLE, V_SUPERSOLUBLE):
        graph = non_class_graph(a4, spec)
        assert graph.isolated == isolated_set(a4, spec)


def test_graph_self_loops_mark_non_member_cyclics(s3):
    # with the trivial class, every non-identity element has a self loop and
    # even the identity is joined to everything else, so nothing is isolated
    graph = non_class_graph(s3, TRIVIAL)
    assert graph.isolated == ()
    assert graph.adjacency[1][1]
    assert not graph.adjacency[0][0]
    assert graph.adjacency[0][1]


def test_dot_export(s3):
    dot = graph_to_dot(non_class_graph(s3, NILPOTENT))
    assert dot.startswith('graph "S3 vs nilpotent"')
    assert dot.count(" -- ") == 9
    assert "ord 3" in dot
    assert "fillcolor=lightgray" in dot  # the isolated identity vertex


def test_theorem_backed_detection():
    assert is_theorem_backed_regular(V_SUPERSOLUBLE)
    assert is_theorem_backed_regular(vstar(SUPERSOLUBLE))
    assert is_theorem_backed_regular(vstar(NILPOTENT))
    assert is_theorem_backed_regular(cap(p_nilpotent(2), SOLUBLE))
    assert is_theorem_backed_regular(sylow_tower(2, 3, 5))
    assert not is_theorem_backed_regular(ABELIAN)
    assert not is_theorem_backed_regular(SUPERSOLUBLE)
    assert not is_theorem_backed_regular(SOLUBLE)  # regular, but not via these shapes


def test_sweep_empty_catalog():
    report = regularity_sweep([], V_SUPERSOLUBLE)
    assert report.rows == ()
    assert report.violations == ()


def test_sweep_rows_sorted_and_witnessed(s3, a4):
    report = regularity_sweep([a4, s3, cyclic(2)], SUPERSOLUBLE)
    assert [r.group_name for r in report.rows] == ["Z2", "S3", "A4"]
    a4_row = report.rows[-1]
    # A4: the supersoluble-maximal subgroups are V4 and the Z3s, meeting
    # trivially, and the isolated set is trivial too
    assert a4_row.equal


def test_sweep_violation_is_reported():
    from formatio.classes import VSupersolubleClass

    class Lying(VSupersolubleClass):
        """Claims the theorem-backed shape but answers like the trivial class."""

        def text(self):
            return "lying-vU"

        def _member(self, G):
            return G.order == 1

    report = regularity_sweep([dihedral(4), cyclic(1)], Lying())
    assert report.theorem_backed
    assert [r.group_name for r in report.violations] == ["D4"]
    assert report.to_json()["violations"] == [report.rows[1].to_json("lying-vU")]


def test_sweep_json_shape(s3):
    report = regularity_sweep([s3], NILPOTENT)
    payload = report.to_json()
    row = payload["rows"][0]
    assert set(row) == {"group", "spec", "order", "soluble", "int", "iset",
                        "equal", "witness"}
    assert row["spec"] == "nilpotent"
    assert row["int"] == [0] and row["iset"] == [0] and row["equal"]


def test_informational_sweep_for_non_regular_specs(catalog_groups):
    # abelian and supersoluble are not claimed regular; record agreement
    # rates without pass/fail semantics, but the isolated set must sit
    # inside the maximal intersection for these hereditary classes
    for spec in (ABELIAN, SUPERSOLUBLE):
        report = regularity_sweep(
            [G for G in catalog_groups if G.order <= 24], spec)
        for row in report.rows:
            assert set(row.isolated) <= set(row.maximal_intersection), \
                (spec.text(), row.group_name)


def test_u_sweep_reports_e52_d8_unequal_without_a_violation(e52_d8):
    # U is not theorem-backed, so an unequal soluble row is informational:
    # E(5^2):D8 is in vU but not in U, and its U-maximal subgroups meet trivially
    report = regularity_sweep([e52_d8], SUPERSOLUBLE)
    assert not report.theorem_backed and report.violations == ()
    (row,) = report.rows
    assert row.soluble and not row.equal and row.witness == 4
    assert row.maximal_intersection == (0,) and len(row.isolated) == 50


ROW_SPECS = ("vU", "reg(default->1)", "cap(p_nilpotent:2,S)", "sylow_tower:2>3>5",
             "N", "vstar(N)", "prod(abelian,nilpotent)")


def full_row(G, spec):
    """The row from both sets in full: every subgroup is tested, the maximal
    members are found by an all-pairs subset scan, and no verdict on G
    itself is taken as a shortcut."""
    members = [s.elem_set for s in all_subgroups(G).subgroups
               if is_member(s.as_group(), spec)]
    maximal = [s for s in members if not any(s < t for t in members)]
    int_set = tuple(sorted(frozenset.intersection(*maximal)))
    iso = isolated_set(G, spec)
    difference = sorted(set(int_set).symmetric_difference(iso))
    return SweepRow(G.name, G.order, is_member(G, SOLUBLE), int_set, iso,
                    int_set == iso, difference[0] if difference else None)


class _UnflaggedOrderNotTwo(AllGroupsClass):
    """Neither hereditary nor flagged so: S3 is a member, its subgroups of
    order 2 are not."""

    formation = False
    hereditary = False

    def text(self):
        return "order-not-2-unflagged"

    def _member(self, G):
        return G.order != 2


def test_row_matches_the_row_of_both_full_sets(catalog_groups, e52_d8, e32_d8, s3):
    from test_lattice_oracle import relabelled

    specs = [parse_spec(text) for text in ROW_SPECS] + [_UnflaggedOrderNotTwo()]
    assert not any(spec.hereditary for spec in specs[-2:])
    # a member row of an unflagged spec is computed in full
    assert is_member(s3, specs[-1]) and not regularity_row(s3, specs[-1]).equal
    non_nilpotent = [G for G in catalog_groups if not is_member(G, NILPOTENT)]
    copies = [relabelled(G, seed)[0] for seed, G in enumerate(non_nilpotent[::2][:10])]
    assert len(copies) == 10
    groups = [*catalog_groups, symmetric(5),
              direct_product(field_action_group(7, 2), cyclic(2)), e52_d8, e32_d8,
              *copies]
    for G in groups:
        for spec in specs:
            assert regularity_row(G, spec) == full_row(G, spec), (G.name, spec.text())


def test_member_rows_enumerate_no_lattice(monkeypatch):
    from formatio import classes
    from formatio.regularity import saturation_rows
    from formatio.structure import memoized_lattice

    monkeypatch.setattr(classes, "_MEMBER_CACHE", {})  # decide every verdict afresh
    s3 = symmetric(3)
    G = direct_product(direct_product(s3, s3), dihedral(4))
    assert G.order == 288
    assert regularity_row(G, V_SUPERSOLUBLE).equal
    assert saturation_rows(G, vstar(SUPERSOLUBLE))[0]["member"]
    assert memoized_lattice(G) is None
