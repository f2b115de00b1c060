"""Every catalog sweep: the isolated-set vs maximal-intersection comparison
and the closure-law sweeps.

For a class spec F and a group G two element sets are computed:
  * the isolated set: elements x with <x, y> in F for every y (exactly the
    isolated vertices of the pair graph whose edges are the non-member pairs);
  * the maximal intersection: common elements of all subgroups that are
    maximal among the F-subgroups of G.

For the spec shapes the theory guarantees to be regular, the two sets must
agree on every soluble group; a sweep lists each soluble group where they do
not in its report's `violations`, and the CLI exits 2 on any.  The other
sweep modes (Frattini-quotient saturation, the formation and hereditary laws,
vstar idempotence) are row functions of one group, listed in `ROW_SWEEPS`.
Every mode calls its row function once per group, in one process.

A row does only the work its output reads.  A regularity row of a member of
a hereditary-flagged spec, and a saturation row of a member of a
formation-flagged spec, are read off that one verdict, and enumerate no
lattice and build no Frattini quotient; the rows trust the flags, which the
formation-laws sweep checks.  The subgroup cap applies in `structure`, to
each enumeration it makes, so a row that enumerates nothing is never stopped
by it.
"""

from __future__ import annotations

from .classes import (
    ClassSpec,
    ExponentFormationClass,
    IntersectionClass,
    PNilpotentClass,
    SOLUBLE,
    SolubleClass,
    SylowTowerClass,
    VStarClass,
    VSupersolubleClass,
    is_member,
)
from .errors import EmptyClass
from .groups import FiniteGroup, _closure, cyclic_table, materialize, quotient
from .records import record
from .structure import (
    SubgroupLattice,
    all_subgroups,
    frattini,
    memoized_lattice,
    minimal_normal_subgroups,
)
from .subnormality import vstar_member


def _class_member(lattice: SubgroupLattice, i: int, spec: ClassSpec) -> bool:
    """Whether lattice member i lies in the class, judged on the least member
    conjugate to it: conjugate subgroups are isomorphic, so they share every
    verdict, and each class is materialized once."""
    return is_member(lattice.subgroups[lattice.least_conjugate[i]].as_group(), spec)


def _pair_member(G: FiniteGroup, x: int, y: int, spec: ClassSpec) -> bool:
    """Whether <x, y> lies in the class: read off G's lattice when that is
    memoized, else closed and materialized."""
    lattice = memoized_lattice(G)
    if lattice is not None:
        return _class_member(lattice, lattice.join(x, y), spec)
    return is_member(materialize(G, _closure(G.table, (x, y))), spec)


def isolated_set(G: FiniteGroup, spec: ClassSpec) -> tuple[int, ...]:
    """Elements generating a member of the class together with every element
    (the pair x, x counts, via the cyclic subgroup <x>).

    <x, y> depends only on <x> and <y>, so the test runs over pairs of least
    generators of cyclic subgroups (`cyclic_table`), and x is isolated exactly
    when the least generator of <x> is.  Membership of <a, b> is symmetric,
    so a pair that fails rules out both of its generators.  When G's lattice
    is memoized, <a, b> is read off it and judged on its least conjugate
    (`_pair_member`).
    """
    leader, members = cyclic_table(G)
    leads = sorted(members)
    ruled_out: set[int] = set()
    for a in leads:
        if a in ruled_out:
            continue
        for b in leads:
            if not _pair_member(G, a, b, spec):
                ruled_out.update((a, b))
                break
    return tuple(x for x in range(G.order) if leader[x] not in ruled_out)


def maximal_intersection(G: FiniteGroup, spec: ClassSpec) -> tuple[int, ...]:
    """Common elements of the subgroups maximal among the class members.

    The lattice is walked in descending index order, so every subgroup above
    a subgroup comes before it, and a subgroup is tested only when no member
    found so far lies above it.  A skipped subgroup has a found member above
    it, so a subgroup is tested exactly when no member at all lies above it:
    each member found is maximal, for every class, hereditary or not.  A
    skipped subgroup is never judged, so an error its verdict would raise
    does not appear.  A tested subgroup is judged on its least conjugate
    (`_class_member`), which has the same verdict, or the same error.
    """
    lattice = all_subgroups(G)
    member_bits = 0
    common = set(range(G.order))
    for i in reversed(range(len(lattice))):
        if not lattice.above[i] & member_bits and _class_member(lattice, i, spec):
            member_bits |= 1 << i
            common &= lattice.subgroups[i].elem_set
    if not member_bits:
        raise EmptyClass(f"{G.name} has no subgroup in {spec.text()}")
    return tuple(sorted(common))


@record
class NonClassGraph:
    """Pair graph of a group: an edge joins x and y when <x, y> is not in the
    class; loops (x = x) follow the same rule through <x>."""

    group: FiniteGroup
    spec_text: str
    adjacency: tuple[tuple[bool, ...], ...]
    isolated: tuple[int, ...]

    @property
    def edge_count(self) -> int:
        """Unordered pairs x < y joined by an edge (loops not counted)."""
        n = len(self.adjacency)
        return sum(1 for x in range(n) for y in range(x + 1, n)
                   if self.adjacency[x][y])


def non_class_graph(G: FiniteGroup, spec: ClassSpec) -> NonClassGraph:
    """The pair graph, tested once per unordered pair of cyclic subgroups:
    elements with the same cyclic subgroup share one adjacency row."""
    leader, members = cyclic_table(G)
    leads = sorted(members)
    joined: dict[int, set[int]] = {a: set() for a in leads}
    for i, a in enumerate(leads):
        for b in leads[i:]:
            if not _pair_member(G, a, b, spec):
                joined[a].add(b)
                joined[b].add(a)
    n = G.order
    rows = {a: tuple(leader[y] in joined[a] for y in range(n)) for a in leads}
    adjacency = tuple(rows[leader[x]] for x in range(n))
    isolated = tuple(x for x in range(n) if not joined[leader[x]])
    return NonClassGraph(G, spec.text(), adjacency, isolated)


def graph_to_dot(graph: NonClassGraph) -> str:
    G = graph.group
    lines = [f'graph "{G.name} vs {graph.spec_text}" {{']
    lines.append("  node [shape=circle];")
    isolated = set(graph.isolated)
    for x in range(G.order):
        style = ' style=filled fillcolor=lightgray' if x in isolated else ""
        lines.append(f'  {x} [label="{x} (ord {G.element_order[x]})"{style}];')
    for x in range(G.order):
        for y in range(x + 1, G.order):
            if graph.adjacency[x][y]:
                lines.append(f"  {x} -- {y};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Sweeps


def is_theorem_backed_regular(spec: ClassSpec) -> bool:
    """Spec shapes the theory proves regular on soluble groups: the
    prime-chain class, class-subnormal closures of hereditary soluble classes,
    soluble p-nilpotent intersections, normal-Hall-tower classes, and classes
    defined by an exponent function."""
    if isinstance(spec, (VSupersolubleClass, SylowTowerClass, ExponentFormationClass)):
        return True
    if isinstance(spec, VStarClass):
        return spec.inner.hereditary and spec.inner.soluble_only
    if isinstance(spec, IntersectionClass):
        kinds = {type(s) for s in spec.parts}
        if kinds == {PNilpotentClass, SolubleClass}:
            return True
    return False


@record
class SweepRow:
    group_name: str
    order: int
    soluble: bool
    maximal_intersection: tuple[int, ...]
    isolated: tuple[int, ...]
    equal: bool
    witness: int | None

    def to_json(self, spec_text: str | None = None) -> dict:
        return {
            "group": self.group_name,
            "spec": spec_text,
            "order": self.order,
            "soluble": self.soluble,
            "int": list(self.maximal_intersection),
            "iset": list(self.isolated),
            "equal": self.equal,
            "witness": self.witness,
        }


@record
class RegularityReport:
    spec_text: str
    theorem_backed: bool
    rows: tuple[SweepRow, ...]

    @property
    def violations(self) -> tuple[SweepRow, ...]:
        """Soluble groups where a theorem-backed spec failed the equality."""
        if not self.theorem_backed:
            return ()
        return tuple(r for r in self.rows if r.soluble and not r.equal)

    def to_json(self) -> dict:
        return {
            "spec": self.spec_text,
            "theorem_backed": self.theorem_backed,
            "groups": len(self.rows),
            "equal": sum(1 for r in self.rows if r.equal),
            "violations": [r.to_json(self.spec_text) for r in self.violations],
            "rows": [r.to_json(self.spec_text) for r in self.rows],
        }


def regularity_row(G: FiniteGroup, spec: ClassSpec) -> SweepRow:
    """The two element sets of G under the spec, and whether they agree.

    A member of a hereditary spec is decided by that one verdict: every
    <x, y> lies in G, so in the class, and G is the one maximal member, so
    both sets are G.  The row trusts the hereditary flag: a member of a
    wrongly flagged spec reads equal here, and the formation-laws sweep is
    what checks the flag.  Errors that judging a subgroup or closing a pair
    would raise (SizeCapExceeded, UnsupportedParameter) cannot come from a
    member row, which does neither.

    Only a row that is not decided by membership enumerates the lattice, for
    the two sets; the verdict itself may enumerate it, as a vstar or vU
    search does.
    """
    soluble = is_member(G, SOLUBLE)
    if spec.hereditary and is_member(G, spec):
        whole = tuple(range(G.order))
        return SweepRow(G.name, G.order, soluble, whole, whole, True, None)
    int_set = maximal_intersection(G, spec)
    iso = isolated_set(G, spec)
    equal = int_set == iso
    witness = None
    if not equal:
        difference = sorted(set(int_set).symmetric_difference(iso))
        witness = difference[0]
    return SweepRow(G.name, G.order, soluble, int_set, iso, equal, witness)


def regularity_sweep(groups, spec: ClassSpec) -> RegularityReport:
    """Compare the two element sets on every group, rows sorted by (order,
    name).  A disagreement on a soluble group under a theorem-backed spec is
    listed in the report's `violations`."""
    rows = [regularity_row(G, spec) for G in groups]
    rows = tuple(sorted(rows, key=lambda r: (r.order, r.group_name)))
    return RegularityReport(spec.text(), is_theorem_backed_regular(spec), rows)


def saturation_rows(G: FiniteGroup, spec: ClassSpec) -> list[dict]:
    """G/Phi(G) in the class forces G in it, for a saturated class.

    For a formation-flagged spec G is judged first: a member's quotient
    G/Phi(G) is a member too, so its row is read off that verdict, and
    neither Phi(G) (which needs G's lattice) nor the quotient is built, so
    such a row enumerates only what the verdict does.  The row trusts the
    formation flag, as `regularity_row` trusts the hereditary one; the
    formation-laws sweep is what checks it.  Any other row builds the
    quotient and judges it before G.
    """
    if spec.formation and is_member(G, spec):
        quotient_member = member = True
    else:
        Q, _ = quotient(G, frattini(G))
        quotient_member = is_member(Q, spec)
        member = is_member(G, spec)
    return [{"group": G.name, "order": G.order,
             "frattini_quotient_member": quotient_member,
             "member": member,
             "ok": member or not quotient_member}]


def formation_law_rows(G: FiniteGroup, spec: ClassSpec) -> list[dict]:
    """The subdirect law over pairs of minimal normal subgroups, for a
    formation, and the subgroup law, for a hereditary class."""
    rows = []
    mins = minimal_normal_subgroups(G)
    for i, N1 in enumerate(mins):
        if not spec.formation:
            break
        for N2 in mins[:i]:
            Q1, _ = quotient(G, N1)
            Q2, _ = quotient(G, N2)
            if not (is_member(Q1, spec) and is_member(Q2, spec)):
                continue
            # distinct minimal normals intersect trivially
            ok = is_member(G, spec)
            rows.append({"group": G.name, "law": "subdirect",
                         "n1": N1.order, "n2": N2.order, "ok": ok})
    if spec.hereditary and is_member(G, spec):
        ok = all(is_member(H.as_group(), spec)
                 for H in all_subgroups(G).subgroups)
        rows.append({"group": G.name, "law": "hereditary", "ok": ok})
    return rows


def vstar_idempotence_rows(G: FiniteGroup, spec: ClassSpec) -> list[dict]:
    """vstar(vstar(F)) and vstar(F) agree on G.

    Both verdicts come from the chain search (`vstar_member`), not from
    `is_member`, whose first test for vstar(F) is membership in F: that test
    is the inclusion vstar(F) <= vstar(vstar(F)) this sweep checks."""
    once = VStarClass(spec)
    a = vstar_member(G, spec)
    b = vstar_member(G, once)
    return [{"group": G.name, "vstar": a, "vstar_vstar": b, "ok": a == b}]


# mode -> (row function, whether a failing row violates a theorem for the spec)
ROW_SWEEPS = {
    "saturation": (saturation_rows, lambda spec: spec.saturated),
    "formation-laws": (formation_law_rows, lambda spec: True),
    "vstar-idempotence": (vstar_idempotence_rows, lambda spec: True),
}


def report_to_text(report: RegularityReport) -> str:
    lines = [f"spec {report.spec_text} "
             f"({'theorem-backed' if report.theorem_backed else 'informational'})"]
    for r in report.rows:
        status = "equal" if r.equal else f"DIFFER at {r.witness}"
        lines.append(f"  {r.group_name:<16} order {r.order:<4} {status}")
    lines.append(f"{sum(1 for r in report.rows if r.equal)}/{len(report.rows)} equal")
    return "\n".join(lines) + "\n"
