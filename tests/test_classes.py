"""Class predicates, residuals, local membership, criticality, the parser."""

from __future__ import annotations

import pytest

from formatio.classes import (
    ABELIAN,
    ALL_GROUPS,
    NILPOTENT,
    SOLUBLE,
    SUPERSOLUBLE,
    TRIVIAL,
    V_SUPERSOLUBLE,
    AbelianClass,
    ClassSpec,
    ExponentBoundedClass,
    IntersectionClass,
    LocalClass,
    PrimeOrdering,
    ProductClass,
    _residual_by_quotients,
    cap,
    exponent_formation_member,
    is_member,
    is_minimal_non,
    is_schmidt,
    is_strongly_critical,
    local_member,
    p_groups,
    p_nilpotent,
    parse_spec,
    product_member,
    regular_formation,
    residual,
    sigma,
    soluble_pi,
    sylow_tower,
    vstar,
)
from formatio.constructions import cyclic, symmetric
from formatio.errors import EmptyClass, SpecSyntaxError, UnsupportedParameter
from formatio.groups import FiniteGroup, build_group, generated_subgroup, quotient
from formatio.records import record
from formatio.structure import all_subgroups, normal_subgroups
from formatio.supernatural import (
    FULL,
    INF,
    ONE,
    from_int,
    make_exponent_function,
    make_supernatural,
)


def test_named_memberships(s3, s4, a4, a5, q8):
    assert is_member(s3, SOLUBLE)
    assert is_member(s4, SOLUBLE)
    assert not is_member(a5, SOLUBLE)
    assert is_member(q8, NILPOTENT)
    assert not is_member(s3, NILPOTENT)
    assert is_member(s3, SUPERSOLUBLE)
    assert not is_member(a4, SUPERSOLUBLE)
    assert is_member(cyclic(1), TRIVIAL)
    assert not is_member(cyclic(2), TRIVIAL)
    assert is_member(a5, ALL_GROUPS)
    assert is_member(q8, p_groups(2))
    assert not is_member(q8, p_groups(3))


def test_nilpotency_against_lattice_oracle(catalog_groups):
    # oracle: for every prime there is a normal subgroup of full p-power order
    from formatio.arith import p_part, prime_divisors

    for G in catalog_groups:
        if G.order > 48:
            continue
        norm_orders = {N.order for N in normal_subgroups(G)}
        oracle = all(p_part(G.order, p) in norm_orders
                     and _has_normal_sylow(G, p)
                     for p in prime_divisors(G.order))
        assert is_member(G, NILPOTENT) == oracle, G.name


def _has_normal_sylow(G, p):
    from formatio.arith import p_part
    from formatio.groups import is_normal

    target = p_part(G.order, p)
    lattice = all_subgroups(G)
    return any(s.order == target and is_normal(G, s)
               and all(G.element_order[x] == p_part(G.element_order[x], p)
                       for x in s.elems)
               for s in lattice.subgroups)


def test_p_nilpotent(s3, a4):
    # S3 has a normal 2-complement (the rotations); A4 has none for p = 2
    assert is_member(s3, p_nilpotent(2))
    assert not is_member(s3, p_nilpotent(3))
    assert not is_member(a4, p_nilpotent(2))
    assert is_member(a4, p_nilpotent(3))


def test_soluble_pi(s3, a5):
    assert is_member(s3, soluble_pi([2, 3]))
    assert not is_member(s3, soluble_pi([2]))
    assert is_member(s3, soluble_pi([5], complement=True))
    assert not is_member(a5, soluble_pi([2, 3, 5]))  # not soluble


def test_sylow_tower_examples(a4, s4):
    assert is_member(a4, sylow_tower(2, 3))
    assert not is_member(a4, sylow_tower(3, 2))
    assert not is_member(s4, sylow_tower(2, 3))
    assert not is_member(s4, sylow_tower(3, 2))
    assert is_member(s3_local(), sylow_tower(3, 2))
    assert not is_member(s3_local(), sylow_tower(2, 3))


def s3_local():
    return symmetric(3)


def brute_force_sylow_tower(G, ordering):
    """Oracle: normal Hall subgroups for every prefix of the ordering."""
    from formatio.arith import p_part, prime_divisors
    from formatio.groups import is_normal

    primes = sorted(prime_divisors(G.order), key=ordering.sort_key)
    lattice = all_subgroups(G)
    for t in range(1, len(primes) + 1):
        prefix = set(primes[:t])
        target = 1
        for p in prefix:
            target *= p_part(G.order, p)
        ok = any(
            s.order == target and is_normal(G, s)
            and all(set(prime_divisors(G.element_order[x])) <= prefix
                    for x in s.elems)
            for s in lattice.subgroups)
        if not ok:
            return False
    return True


def test_sylow_tower_against_hall_chain_oracle(catalog_groups):
    orderings = [PrimeOrdering((2, 3, 5)), PrimeOrdering((5, 3, 2))]
    for G in catalog_groups:
        if G.order > 36:
            continue
        for ordering in orderings:
            from formatio.classes import SylowTowerClass

            assert is_member(G, SylowTowerClass(ordering)) == \
                brute_force_sylow_tower(G, ordering), (G.name, ordering.text())


def test_exponent_bounded(s3):
    assert is_member(s3, sigma(from_int(6)))
    assert is_member(s3, sigma(from_int(12)))
    assert not is_member(s3, sigma(from_int(4)))
    assert is_member(s3, sigma(make_supernatural({2: INF, 3: INF})))


def test_residual_s3_abelian(s3):
    assert residual(s3, ABELIAN).elems == generated_subgroup(s3, [3]).elems


def test_residual_of_member_is_trivial(s3, q8):
    assert residual(s3, SOLUBLE).order == 1
    assert residual(q8, NILPOTENT).order == 1


def test_residual_a4_nilpotent(a4):
    assert residual(a4, NILPOTENT).order == 4


def test_residual_exponent_one_is_whole_group(s3):
    # the only member is the trivial group, so the residual is all of S3
    assert residual(s3, sigma(ONE)).order == 6


def test_closed_form_residuals_match_the_quotient_route(catalog_groups):
    # soluble, abelian and exponent-bounded residuals are closed from
    # generators; the reference intersects every normal subgroup with a
    # member quotient.  Subgroups with equal tables are checked once.
    specs = [parse_spec(t) for t in ("S", "A", "S(1)", "S(2^inf*3)", "S(2*3^inf)",
                                     "bounded(A;2^inf*3)")]
    seen = set()
    for G in catalog_groups + [symmetric(5)]:
        for H in all_subgroups(G).subgroups:
            K = H.as_group()
            if K.fingerprint in seen:
                continue
            seen.add(K.fingerprint)
            for spec in specs:
                assert residual(K, spec) == _residual_by_quotients(K, spec), \
                    (G.name, H.elems, spec.text())


def _memo_keys(G):
    """The memo key names of G and of every group found in its memo."""
    names, stack, seen = set(), [G], set()
    while stack:
        H = stack.pop()
        if id(H) in seen:
            continue
        seen.add(id(H))
        for key, value in H._memo.items():
            names.add(key[0])
            stack += [x for x in (value if isinstance(value, tuple) else (value,))
                      if isinstance(x, FiniteGroup)]
    return names


def test_reg_membership_lists_no_normal_subgroups_or_quotients(monkeypatch, catalog_groups):
    from formatio import classes

    monkeypatch.setattr(classes, "_MEMBER_CACHE", {})  # decide every verdict afresh
    spec = parse_spec("reg(default->1)")
    for G in catalog_groups:
        fresh = build_group(G.table, G.name)
        assert is_member(fresh, spec) == is_member(G, NILPOTENT)
        keys = _memo_keys(fresh)
        assert not keys & {"_normal_subgroups", "_quotient"}, (G.name, keys)


def test_residual_empty_class(s3):
    from formatio.classes import TrivialClass

    class Nothing(TrivialClass):
        def text(self):
            return "nothing"

        def _member(self, G):
            return False

    with pytest.raises(EmptyClass):
        residual(s3, Nothing())


def test_product_membership_s3(s3):
    # the soluble-of-exponent-2 residual of S3 is the rotation subgroup,
    # an odd-order group
    assert product_member(s3, soluble_pi([2], complement=True), sigma(from_int(2)))


def test_product_membership_trivial_residual(s3):
    assert product_member(s3, TRIVIAL, SOLUBLE)


def test_product_membership_a4_derived_value(a4):
    # A4 normals are 1, V4, A4; only V4 and A4 give quotients of exponent
    # dividing 3, so the residual is V4, which is a 3'-group
    assert product_member(a4, soluble_pi([3], complement=True), sigma(from_int(3)))


def test_local_member_trivial_definition_is_nilpotency(catalog_groups):
    h = lambda p: TRIVIAL
    for G in catalog_groups:
        if G.order > 30:
            continue
        assert local_member(G, h) == is_member(G, NILPOTENT), G.name


def test_local_member_trivial_group():
    assert local_member(cyclic(1), lambda p: TRIVIAL)


def test_local_member_s3_mixed(s3):
    h = lambda p: SOLUBLE if p == 2 else TRIVIAL
    assert not local_member(s3, h)


@pytest.mark.parametrize("text, h", [
    ("local(2->N,default->A)", lambda p: NILPOTENT if p == 2 else ABELIAN),
    ("local(default->trivial)", lambda p: TRIVIAL),
    ("local(3->S,default->U)", lambda p: SOLUBLE if p == 3 else SUPERSOLUBLE),
])
def test_local_spec_membership_matches_local_member(catalog_groups, text, h):
    spec = parse_spec(text)
    verdicts = set()
    for G in catalog_groups:
        got = is_member(G, spec)
        assert got == local_member(G, h), (text, G.name)
        verdicts.add(got)
    assert verdicts == {True, False}


@record
class _Unflagged(ClassSpec):
    """A spec with every flag False, so a composite cannot inherit one."""

    def text(self):
        return "unflagged"

    def _member(self, G):
        return True


@pytest.mark.parametrize("spec, flags", [
    # (formation, hereditary, saturated, soluble_only)
    ("bounded(A;6)", (True, True, False, True)),
    ("S(6)", (True, True, False, True)),
    ("bounded(p_nilpotent:2;2^inf*3)", (True, True, False, False)),
    (ExponentBoundedClass(_Unflagged(), from_int(6)), (False, False, False, False)),
    ("prod(N,A)", (True, False, False, True)),
    ("prod(p_nilpotent:2,N)", (True, False, False, False)),
    (ProductClass(NILPOTENT, _Unflagged()), (False, False, False, False)),
    ("cap(A,p_nilpotent:2)", (True, True, False, True)),
    ("cap(p_nilpotent:2,p_nilpotent:3)", (True, True, True, False)),
    ("cap(N,prod(N,A))", (True, False, False, True)),
    (IntersectionClass((NILPOTENT, _Unflagged())), (False, False, False, True)),
    ("local(2->N,default->A)", (True, True, True, False)),
    ("local(2->prod(N,A),default->A)", (True, False, True, False)),
    (LocalClass(((2, NILPOTENT),), _Unflagged()), (True, False, True, False)),
    ("vstar(N)", (True, True, True, True)),
    ("vstar(A)", (True, True, True, True)),
    ("vstar(p_nilpotent:2)", (True, True, False, False)),
])
def test_composite_flags(spec, flags):
    if isinstance(spec, str):
        spec = parse_spec(spec)
    assert (spec.formation, spec.hereditary, spec.saturated, spec.soluble_only) == flags


@pytest.mark.parametrize("text", ["bounded(p_nilpotent:2;2^inf*3)", "prod(N,A)",
                                  "cap(A,p_nilpotent:2)", "local(2->N,default->A)",
                                  "vstar(p_nilpotent:2)"])
def test_composite_flags_hold_on_small_catalog_groups(catalog_groups, text):
    # the formation-laws and saturation sweeps find no counterexample to a flag
    from formatio.regularity import formation_law_rows, saturation_rows

    spec = parse_spec(text)
    small = [G for G in catalog_groups if G.order <= 24]
    rows = [row for G in small for row in formation_law_rows(G, spec)]
    assert all(r["ok"] for r in rows) and rows
    if spec.saturated:
        assert all(r["ok"] for G in small for r in saturation_rows(G, spec))


def test_exponent_formation_default_is_nilpotency(catalog_groups):
    fn = make_exponent_function({}, default=ONE)
    for G in catalog_groups:
        if G.order > 36:
            continue
        if not is_member(G, SOLUBLE):
            assert not exponent_formation_member(G, fn)
            continue
        assert exponent_formation_member(G, fn) == is_member(G, NILPOTENT), G.name


def test_exponent_formation_trivial_group():
    assert exponent_formation_member(cyclic(1), make_exponent_function({}))


def test_exponent_formation_s3_three_part(s3):
    # enumeration oracle: the only quotient of S3 that is a soluble 3-group
    # is the trivial one, so the sigma(3^inf) residual is all of S3, which is
    # not a 3'-group; the p = 3 factor therefore fails
    fn = make_exponent_function({3: make_supernatural({3: INF})}, default=FULL)
    assert residual(s3, sigma(fn.at(3))).order == 6
    assert not exponent_formation_member(s3, fn)
    # Z6 passes the same factor: its sigma(3^inf) residual is the order-2 part
    z6 = cyclic(6)
    assert residual(z6, sigma(fn.at(3))).order == 2
    assert exponent_formation_member(z6, fn)


def test_minimal_non_and_schmidt(s3, a4, q8):
    assert is_schmidt(s3)
    assert is_schmidt(a4)
    assert not is_schmidt(q8)
    assert not is_schmidt(cyclic(12))
    assert is_minimal_non(a4, SUPERSOLUBLE)
    assert not is_minimal_non(symmetric(4), SUPERSOLUBLE)


def test_strongly_critical(a4):
    assert is_strongly_critical(a4, SUPERSOLUBLE)


def test_formation_law_spot_check(catalog_groups):
    from formatio.structure import minimal_normal_subgroups

    specs = [NILPOTENT, SOLUBLE, SUPERSOLUBLE, p_nilpotent(2), sylow_tower(2, 3, 5)]
    for G in catalog_groups:
        if G.order > 36:
            continue
        mins = minimal_normal_subgroups(G)
        for spec in specs:
            for i, N1 in enumerate(mins):
                for N2 in mins[:i]:
                    Q1, _ = quotient(G, N1)
                    Q2, _ = quotient(G, N2)
                    if is_member(Q1, spec) and is_member(Q2, spec):
                        # distinct minimal normals intersect trivially
                        assert is_member(G, spec), (G.name, spec.text())


def test_hereditary_spot_check(catalog_groups):
    specs = [NILPOTENT, SUPERSOLUBLE, SOLUBLE, V_SUPERSOLUBLE]
    for G in catalog_groups:
        if G.order > 24:
            continue
        for spec in specs:
            if not is_member(G, spec):
                continue
            for H in all_subgroups(G).subgroups:
                assert is_member(H.as_group(), spec), (G.name, spec.text())


def test_saturation_spot_check_for_exponent_formations(catalog_groups):
    from formatio.structure import frattini

    fns = [make_exponent_function({}, default=ONE),
           make_exponent_function({2: make_supernatural({2: INF, 3: INF})},
                                  default=ONE)]
    for fn in fns:
        spec = regular_formation(fn)
        for G in catalog_groups:
            Q, _ = quotient(G, frattini(G))
            if is_member(Q, spec):
                assert is_member(G, spec), (G.name, spec.text())


def test_parser_round_trips():
    texts = [
        "trivial", "abelian", "nilpotent", "soluble", "supersoluble", "all",
        "vU", "p_groups:3", "p_nilpotent:2", "S_pi:{2,3}", "S_pi':{2}",
        "sylow_tower:2>3>5", "S(2^inf*3)", "bounded(abelian;4)",
        "bounded(abelian;2^3;default=inf)",
        "prod(S_pi':{2},S(2^inf))", "cap(p_nilpotent:2,soluble)",
        "vstar(supersoluble)", "vstar(vstar(nilpotent))",
        "reg(2->2^inf*3,3->3^inf,default->full)",
        "local(2->nilpotent,3->trivial,default->soluble)",
    ]
    for text in texts:
        spec = parse_spec(text)
        assert parse_spec(spec.text()) == spec, text


def test_parser_aliases():
    assert parse_spec("N") == NILPOTENT
    assert parse_spec("U") == SUPERSOLUBLE
    assert parse_spec("A") == ABELIAN
    assert parse_spec("S") == SOLUBLE
    assert parse_spec("S_pi':2") == soluble_pi([2], complement=True)
    assert parse_spec("vstar(U)") == vstar(SUPERSOLUBLE)


def test_parser_rejects_garbage():
    for bad in ["", "wibble", "S_pi:{}", "prod(nilpotent)", "p_groups:4",
                "sylow_tower:2>4", "cap(nilpotent)", "local(2->N,2->U,default->S)",
                "local(3->A,2->N,3->A,default->S)"]:
        with pytest.raises(SpecSyntaxError):
            parse_spec(bad)


def test_parser_rejects_empty_list_items():
    for bad in ["sylow_tower:", "sylow_tower:2>>3", "S_pi:{2,,3}", "S_pi':{2,}",
                "cap(A,,N)", "cap(A,N,)", "prod(,N)", "local(2->N,,default->S)",
                "reg(2->2^inf,,default->1)", "reg(default->1,)"]:
        with pytest.raises(SpecSyntaxError):
            parse_spec(bad)
    with pytest.raises(UnsupportedParameter):
        PrimeOrdering(())


def test_equal_tables_share_one_verdict_per_spec(s3):
    calls = []

    @record
    class Counting(ClassSpec):
        def text(self):
            return "counting"

        def _member(self, G):
            calls.append(G)
            return True

    twin = build_group(s3.table, "twin")
    assert twin is not s3 and twin.fingerprint == s3.fingerprint
    assert is_member(s3, Counting()) and is_member(twin, Counting())
    assert calls == [s3]


def test_specs_with_equal_text_keep_their_own_verdicts(s3):
    @record
    class NonAbelian(AbelianClass):
        def _member(self, G):
            return not super()._member(G)

    assert NonAbelian().text() == ABELIAN.text()
    assert not is_member(s3, ABELIAN)
    assert is_member(s3, NonAbelian())


def test_spec_flags():
    assert NILPOTENT.formation and NILPOTENT.hereditary and NILPOTENT.saturated
    assert not ABELIAN.saturated
    assert vstar(SUPERSOLUBLE).saturated  # inner class is soluble-only
    assert not sigma(from_int(4)).saturated
    assert cap(p_nilpotent(2), SOLUBLE).formation
    fn = make_exponent_function({}, default=ONE)
    assert regular_formation(fn).saturated
    assert regular_formation(fn).hereditary


def test_fake_formation_detected(s3):
    from formatio.classes import TrivialClass
    from formatio.errors import NotAFormationWitness
    from formatio.constructions import elementary_abelian

    class CyclicOnly(TrivialClass):
        """Deliberately mis-flagged: cyclic groups are not subdirect-closed."""

        def text(self):
            return "cyclic-only"

        def _member(self, G):
            return any(o == G.order for o in G.element_order)

    v4 = elementary_abelian(2, 2)
    with pytest.raises(NotAFormationWitness):
        residual(v4, CyclicOnly())


def test_size_cap_enforced():
    from formatio.constructions import cyclic, symmetric
    from formatio.errors import SizeCapExceeded
    from formatio.groups import direct_product

    # direct_product builds its table unchecked, so it can exceed the cap
    G = direct_product(symmetric(5), cyclic(5))
    assert G.order == 600
    with pytest.raises(SizeCapExceeded, match=r"^group of order 600 exceeds the cap 512$"):
        is_member(G, NILPOTENT)
