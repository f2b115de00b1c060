"""Chain witnesses, prime-index chains, and the closure classes."""

from __future__ import annotations

import json

import pytest

from formatio.classes import (
    NILPOTENT,
    SOLUBLE,
    SUPERSOLUBLE,
    TRIVIAL,
    is_member,
    vstar,
)
from formatio.constructions import cyclic, dihedral, elementary_abelian, quaternion
from formatio.groups import Subgroup, generated_subgroup
from formatio.subnormality import (
    cyclic_primary_subgroups,
    is_k_subnormal,
    is_prime_index_subnormal,
    k_subnormal_chain,
    prime_index_chain,
    vstar_member,
    vstar_obstruction,
    vu_member,
    vu_obstruction,
)


def test_whole_group_chain_is_empty(s3):
    w = k_subnormal_chain(s3, Subgroup(s3, tuple(range(6))), NILPOTENT)
    assert w is not None
    assert len(w.chain) == 1
    assert w.step_kinds == ()
    assert w.verify(NILPOTENT)


def test_transposition_not_k_nilpotent_subnormal(s3):
    H = generated_subgroup(s3, [1])
    assert not is_k_subnormal(s3, H, NILPOTENT)


def test_transposition_k_soluble_subnormal_one_step(s3):
    H = generated_subgroup(s3, [1])
    w = k_subnormal_chain(s3, H, SOLUBLE)
    assert w is not None
    assert len(w.chain) == 2
    assert w.step_kinds == ("class-quotient",)
    assert w.verify(SOLUBLE)


def test_three_cycle_prime_index_chain(s3):
    H = generated_subgroup(s3, [3])
    w = prime_index_chain(s3, H)
    assert w is not None
    assert len(w.chain) == 2
    assert w.verify()


def test_three_cycle_not_prime_index_in_a4(a4):
    x = next(g for g in range(12) if a4.element_order[g] == 3)
    H = generated_subgroup(a4, [x])
    assert not is_prime_index_subnormal(a4, H)


def test_whole_group_always_prime_index_subnormal(a4):
    assert is_prime_index_subnormal(a4, Subgroup(a4, tuple(range(12))))


def test_chain_search_rejects_a_non_subgroup(s3):
    # {0, 1, 2} is not closed in S3; the search must not start from a neighbour
    with pytest.raises(ValueError, match="is not a subgroup of S3"):
        prime_index_chain(s3, Subgroup(s3, (0, 1, 2)))


def test_chain_witness_serializable(s3):
    H = generated_subgroup(s3, [1])
    w = k_subnormal_chain(s3, H, SOLUBLE)
    payload = json.dumps(w.to_json())
    back = json.loads(payload)
    assert back["steps"] == ["class-quotient"]
    assert back["chain"][0] == [0, 1]


def test_chain_composition_still_verifies(s3):
    # glue the witness for <t> <= S3 onto the trivial chain of S3 in itself
    H = generated_subgroup(s3, [1])
    w = k_subnormal_chain(s3, H, SOLUBLE)
    from formatio.subnormality import ChainWitness

    composite = ChainWitness(s3, w.chain + (Subgroup(s3, tuple(range(6))),),
                             w.step_kinds + ("normal",), w.spec_text)
    assert composite.verify(SOLUBLE)


def _witness(G, chain, kinds):
    from formatio.subnormality import ChainWitness

    return ChainWitness(G, tuple(Subgroup(G, elems) for elems in chain), kinds)


@pytest.mark.parametrize("chain, kinds, spec", [
    # wrong length: one step kind too few, one too many
    (((0, 1), tuple(range(6))), (), SOLUBLE),
    (((0, 1), tuple(range(6))), ("class-quotient", "normal"), SOLUBLE),
    # the top is not G
    (((0,), (0, 1)), ("normal",), SOLUBLE),
    # a step that is not a containment
    (((0, 1), (0, 3, 4), tuple(range(6))), ("normal", "normal"), SOLUBLE),
    # <t> is not normal in S3
    (((0, 1), tuple(range(6))), ("normal",), SOLUBLE),
    # 1 has index 6 in S3
    (((0,), tuple(range(6))), ("prime-index",), None),
    # S3 modulo the core of <t>, which is trivial, is not nilpotent
    (((0, 1), tuple(range(6))), ("class-quotient",), NILPOTENT),
    # a class step needs a spec
    (((0, 1), tuple(range(6))), ("class-quotient",), None),
    (((0, 1), tuple(range(6))), ("sideways",), SOLUBLE),
    # a member that is not closed, though its index 2 is prime
    (((0, 1, 2), tuple(range(6))), ("prime-index",), None),
])
def test_malformed_chain_witness_fails_verify(s3, chain, kinds, spec):
    assert not _witness(s3, chain, kinds).verify(spec)


@pytest.mark.parametrize("chain, kinds, spec", [
    (((0, 1), tuple(range(6))), ("class-quotient",), SOLUBLE),
    (((0, 1), tuple(range(6))), ("prime-index",), None),
    (((0,), (0, 3, 4), tuple(range(6))), ("prime-index", "normal"), None),
])
def test_well_formed_chain_witness_verifies(s3, chain, kinds, spec):
    assert _witness(s3, chain, kinds).verify(spec)


def test_cyclic_primary_subgroups_s3(s3):
    subs = cyclic_primary_subgroups(s3)
    assert [s.elems for s in subs] == [(0, 1), (0, 2), (0, 5), (0, 3, 4)]


def test_cyclic_primary_subgroups_z6(z6):
    subs = cyclic_primary_subgroups(z6)
    assert sorted(s.order for s in subs) == [2, 3]


def test_p_groups_all_subnormal():
    for G in (quaternion(), dihedral(4), cyclic(8), elementary_abelian(2, 3)):
        assert vstar_member(G, TRIVIAL), G.name


def test_vstar_s3_values(s3):
    assert not vstar_member(s3, NILPOTENT)
    stuck = vstar_obstruction(s3, NILPOTENT)
    assert stuck.order == 2  # a transposition subgroup is stuck
    assert vstar_member(s3, SUPERSOLUBLE)


def test_vstar_requires_hereditary_flag():
    from formatio.classes import ProductClass, SOLUBLE as S

    with pytest.raises(ValueError):
        vstar_member(cyclic(2), ProductClass(S, S))


def test_vu_values(s3, a4):
    assert vu_member(s3)
    assert not vu_member(a4)
    assert vu_obstruction(a4).order == 3
    assert vu_member(cyclic(1))


def test_supersoluble_groups_lie_in_vu(catalog_groups):
    for G in catalog_groups:
        if is_member(G, SUPERSOLUBLE):
            assert vu_member(G), G.name


def test_vu_equals_vstar_u(catalog_groups):
    for G in catalog_groups:
        assert vu_member(G) == vstar_member(G, SUPERSOLUBLE), G.name


def test_vstar_idempotent_on_catalog(catalog_groups):
    for inner in (NILPOTENT, SUPERSOLUBLE):
        once = vstar(inner)
        for G in catalog_groups:
            assert vstar_member(G, inner) == vstar_member(G, once), \
                (G.name, inner.text())


def test_vstar_monotone(catalog_groups):
    for G in catalog_groups:
        if G.order > 30:
            continue
        if vstar_member(G, NILPOTENT):
            assert vstar_member(G, SUPERSOLUBLE), G.name
        if vstar_member(G, SUPERSOLUBLE):
            assert vstar_member(G, SOLUBLE), G.name


def test_vstar_saturation(catalog_groups):
    from formatio.groups import quotient
    from formatio.structure import frattini

    for inner in (NILPOTENT, SUPERSOLUBLE):
        spec = vstar(inner)
        for G in catalog_groups:
            Q, _ = quotient(G, frattini(G))
            if is_member(Q, spec):
                assert is_member(G, spec), (G.name, inner.text())


def test_shortest_witness_is_returned(q8):
    # in Q8 every subgroup is subnormal; <i> is already normal, chain length 1
    H = generated_subgroup(q8, [2])
    w = k_subnormal_chain(q8, H, TRIVIAL)
    assert len(w.chain) == 2
    assert w.step_kinds == ("normal",)
