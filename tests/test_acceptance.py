"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything asserts exact equality; there are no tolerances anywhere
because every quantity is an element set, a boolean, or an integer.
"""

from __future__ import annotations

import random

from formatio.arith import prime_divisors
from formatio.classes import (
    ABELIAN,
    NILPOTENT,
    SOLUBLE,
    SUPERSOLUBLE,
    V_SUPERSOLUBLE,
    _residual_by_quotients,
    cap,
    exponent_formation_member,
    is_member,
    is_minimal_non,
    is_schmidt,
    local_member,
    p_nilpotent,
    regular_formation,
    sigma,
    sylow_tower,
    vstar,
)
from formatio.constructions import alternating, cyclic, field_action_group, symmetric
from formatio.groups import center, centralizer, is_isomorphic, quotient
from formatio.regularity import (
    isolated_set,
    maximal_intersection,
    non_class_graph,
    regularity_sweep,
)
from formatio.structure import (
    frattini,
    hypercenter,
    minimal_normal_subgroups,
    socle,
    soluble_radical,
)
from formatio.subnormality import vstar_member, vu_member
from formatio.supernatural import (
    FULL,
    INF,
    ONE,
    complement,
    decode_supernatural,
    ef_join,
    ef_meet,
    encode_function,
    gcd,
    is_complete,
    lcm,
    make_exponent_function,
    make_supernatural,
    parse_exponent_function,
)

PASS = "ACCEPTANCE {num:>2} PASS  {what}"


def announce(num, what):
    print(PASS.format(num=num, what=what))


# three exponent functions shared by criteria 2, 5 and 7
FN_NILPOTENT_LIKE = make_exponent_function({}, default=ONE)
FN_MIXED = make_exponent_function(
    {2: make_supernatural({2: INF, 3: INF}),
     3: make_supernatural({2: INF, 3: INF})},
    default=ONE)
FN_ALL_SOLUBLE = make_exponent_function({}, default=FULL)


def test_criterion_1_classical_identities(catalog_groups):
    assert any(G.name == "A5" for G in catalog_groups)
    for G in catalog_groups:
        assert isolated_set(G, ABELIAN) == center(G).elems, G.name
        hz = hypercenter(G, NILPOTENT).elems
        assert isolated_set(G, NILPOTENT) == hz, G.name
        assert maximal_intersection(G, NILPOTENT) == hz, G.name
        assert isolated_set(G, SOLUBLE) == soluble_radical(G).elems, G.name
    announce(1, "isolated/maximal-intersection identities for abelian, "
                "nilpotent, soluble classes on the whole catalog (incl. A5)")


def test_criterion_2_theorem_backed_regularity(catalog_groups):
    specs = [
        V_SUPERSOLUBLE,
        cap(p_nilpotent(2), SOLUBLE),
        cap(p_nilpotent(3), SOLUBLE),
        sylow_tower(2, 3, 5),
        sylow_tower(5, 3, 2),
        regular_formation(FN_NILPOTENT_LIKE),
        regular_formation(FN_MIXED),
    ]
    for spec in specs:
        report = regularity_sweep(catalog_groups, spec)  # raises on mismatch
        soluble_rows = [r for r in report.rows if r.soluble]
        assert soluble_rows and all(r.equal for r in soluble_rows), spec.text()
    announce(2, f"equality of both element sets on every soluble group for "
                f"{len(specs)} theorem-backed regular specs")


def test_criterion_3_v_equivalence(catalog_groups):
    for G in catalog_groups:
        assert vu_member(G) == vstar_member(G, SUPERSOLUBLE), G.name
    announce(3, "prime-index closure agrees with class-subnormal closure of "
                "the supersoluble class on the full catalog")


def test_criterion_4_vstar_idempotence_and_saturation(catalog_groups):
    once = vstar(NILPOTENT)
    twice = vstar(once)
    for G in catalog_groups:
        assert is_member(G, once) == is_member(G, twice), G.name
    for inner in (NILPOTENT, SUPERSOLUBLE):
        spec = vstar(inner)
        for G in catalog_groups:
            Q, _ = quotient(G, frattini(G))
            if is_member(Q, spec):
                assert is_member(G, spec), (G.name, inner.text())
    announce(4, "vstar(vstar(N)) = vstar(N) membership, and Frattini-quotient "
                "saturation of vstar(N) and vstar(U), on the catalog")


def test_criterion_5_two_algorithm_equivalence(catalog_groups):
    fns = [FN_NILPOTENT_LIKE, FN_MIXED, FN_ALL_SOLUBLE]
    for fn in fns:
        for G in catalog_groups:
            direct = exponent_formation_member(G, fn)
            via_local = (is_member(G, SOLUBLE)
                         and local_member(G, lambda p: sigma(fn.at(p))))
            via_quotients = is_member(G, SOLUBLE) and all(
                _residual_by_quotients(G, sigma(fn.at(p))).order % p
                for p in prime_divisors(G.order))
            assert direct == via_local == via_quotients, (G.name, str(fn))
    announce(5, "residual-product membership (closed-form residuals) equals "
                "soluble + local-definition membership and the residuals "
                "found by intersecting normal subgroups, for 3 exponent "
                "functions x full catalog")


def _random_supernatural(rng):
    values = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        roll = rng.random()
        if roll < 0.55:
            continue
        values[p] = INF if roll < 0.75 else rng.randrange(1, 8)
    default = INF if rng.random() < 0.3 else 0
    return make_supernatural({p: e for p, e in values.items() if e != default},
                             default=default)


def test_criterion_6_steinitz_lattice_laws():
    rng = random.Random(61)
    for _ in range(200):
        a, b, c = (_random_supernatural(rng) for _ in range(3))
        assert lcm(a, b) == lcm(b, a) and gcd(a, b) == gcd(b, a)
        assert lcm(a, lcm(b, c)) == lcm(lcm(a, b), c)
        assert gcd(a, gcd(b, c)) == gcd(gcd(a, b), c)
        assert lcm(a, gcd(a, b)) == a and gcd(a, lcm(a, b)) == a
        assert lcm(a, gcd(b, c)) == gcd(lcm(a, b), lcm(a, c))
    for _ in range(50):
        values = {p: INF for p in (2, 3, 5, 7, 11, 13) if rng.random() < 0.4}
        default = INF if rng.random() < 0.5 else 0
        omega = make_supernatural(
            {p: e for p, e in values.items() if e != default}, default=default)
        assert is_complete(omega)
        assert lcm(omega, complement(omega)) == FULL
        assert gcd(omega, complement(omega)) == ONE
    announce(6, "lattice laws on 200 random triples and complementation of "
                "50 random complete numbers")


def test_criterion_7_isomorphism_laws(catalog_groups):
    rng = random.Random(71)
    for _ in range(20):
        omega = _random_supernatural(rng)
        assert encode_function(decode_supernatural(omega)) == omega
    for _ in range(20):
        f1 = decode_supernatural(_random_supernatural(rng))
        f2 = decode_supernatural(_random_supernatural(rng))
        assert encode_function(ef_join(f1, f2)) == lcm(encode_function(f1),
                                                       encode_function(f2))
        assert encode_function(ef_meet(f1, f2)) == gcd(encode_function(f1),
                                                       encode_function(f2))
    pairs = [(FN_NILPOTENT_LIKE, FN_MIXED), (FN_MIXED, FN_ALL_SOLUBLE),
             (FN_NILPOTENT_LIKE, FN_ALL_SOLUBLE)]
    for fa, fb in pairs:
        fm = ef_meet(fa, fb)
        for G in catalog_groups:
            assert exponent_formation_member(G, fm) == (
                exponent_formation_member(G, fa)
                and exponent_formation_member(G, fb)), G.name
    announce(7, "encode/decode round trip, lattice-morphism laws, and the "
                "semantic meet law on the catalog")


def test_criterion_8_field_action_constructions():
    assert is_isomorphic(field_action_group(2, 3), symmetric(3))
    assert is_isomorphic(field_action_group(3, 2), alternating(4))
    for p in (2, 3, 5, 7):
        assert is_isomorphic(field_action_group(1, p), cyclic(p))
    for n, p in ((2, 3), (3, 2), (2, 5), (4, 3), (4, 5), (2, 7), (3, 7),
                 (6, 7), (5, 11)):
        E = field_action_group(n, p)
        mins = minimal_normal_subgroups(E)
        assert len(mins) == 1, E.name
        module = mins[0]
        # faithful: nothing in the acting cyclic group centralizes the module
        cent = centralizer(E, module)
        assert [g for g in cent.elems if g < n] == [0], E.name
        assert E.order % n == 0 and E.order // module.order == n, E.name
    announce(8, "field-action groups: the S3 and A4 instances, the degenerate "
                "cyclic case, unique minimal normal subgroup, faithful action")


def test_criterion_9_graph_consistency(catalog_groups, s3):
    graph = non_class_graph(s3, NILPOTENT)
    # independent brute force: count generating pairs through fresh closures
    from formatio.groups import generated_subgroup

    brute = sum(1 for x in range(6) for y in range(x + 1, 6)
                if generated_subgroup(s3, [x, y]).order == 6)
    assert brute == 9
    assert graph.edge_count == 9
    for spec in (ABELIAN, NILPOTENT, SUPERSOLUBLE, V_SUPERSOLUBLE):
        for G in catalog_groups:
            g = non_class_graph(G, spec)
            assert g.isolated == isolated_set(G, spec), (G.name, spec.text())
    announce(9, "isolated vertices equal the isolated set for 4 specs x full "
                "catalog; the S3 non-nilpotent graph has exactly 9 edges")


def test_criterion_10_criticality(catalog_groups, s3, a4):
    assert is_schmidt(s3)
    assert is_schmidt(a4)
    assert is_minimal_non(a4, SUPERSOLUBLE)
    witnesses = []
    for G in catalog_groups:
        if not is_member(G, SOLUBLE) or vu_member(G):
            continue
        if frattini(G).order != 1 or not is_minimal_non(G, V_SUPERSOLUBLE):
            continue
        Q, _ = quotient(G, socle(G))
        assert any(o == Q.order for o in Q.element_order), \
            f"{G.name}: socle quotient is not cyclic"
        witnesses.append(G.name)
    assert witnesses, "sweep found no frattini-free minimal non-members"
    announce(10, f"Schmidt and minimal-non checks; socle quotients cyclic for "
                 f"frattini-free minimal non-members: {', '.join(witnesses)}")


def test_plane_by_d8_separates_vu_from_u(e52_d8, e32_d8):
    specs = (SUPERSOLUBLE, V_SUPERSOLUBLE, vstar(SUPERSOLUBLE))
    assert [is_member(e52_d8, s) for s in specs] == [False, True, True]
    assert [is_member(e32_d8, s) for s in specs] == [False, False, False]


def _random_exponent_function(rng):
    """An exponent function over the primes 2, 3, 5, 7: some primes p get
    p^inf times a random part at the others, and the default is random."""
    def part(skip):
        return make_supernatural({q: rng.choice((1, 2, INF)) for q in (2, 3, 5, 7)
                                  if q != skip and rng.random() < 0.5})

    values = {p: lcm(part(p), make_supernatural({p: INF}))
              for p in (2, 3, 5, 7) if rng.random() < 0.5}
    return make_exponent_function(values, default=part(0))


def test_theorem_1_reg_is_the_soluble_part_of_its_vstar(catalog_groups, e52_d8, e32_d8):
    # Theorem 1: a hereditary saturated formation F of soluble groups is
    # regular exactly when it holds every soluble group whose cyclic primary
    # subgroups are K-F-subnormal; for reg(f), reg(f) = vstar(reg(f)) & S
    rng = random.Random(1)
    fns = [parse_exponent_function("5->2^inf*5^inf")]
    fns += [_random_exponent_function(rng) for _ in range(7)]
    assert is_member(e52_d8, regular_formation(fns[0]))
    groups = catalog_groups + [e52_d8, e32_d8]
    for fn in fns:
        reg = regular_formation(fn)
        soluble_vstar = cap(vstar(reg), SOLUBLE)
        for G in groups:
            assert is_member(G, reg) == is_member(G, soluble_vstar), (G.name, str(fn))
    announce("T1", f"reg(f) = cap(vstar(reg(f)),S) for {len(fns)} exponent "
                   f"functions x full catalog, E(5^2):D8 and E(3^2):D8")
