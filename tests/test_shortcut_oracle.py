"""Oracles for what the member rows of a sweep trust.

* vstar(F) by inclusion: for F flagged hereditary and formation, `is_member`
  decides a member of F without the chain search, as F lies inside vstar(F).
  The search (`vstar_member`) must give the same verdict on the oracle corpus
  and on relabelled copies.
* the flags: for specs drawn from the spec grammar, a member's quotients by
  minimal normal subgroups must be members when the spec is flagged
  formation, and its maximal subgroups when it is flagged hereditary; and
  when it is flagged saturated, a group whose Frattini quotient G/Phi(G) is
  a member must be one too.  The plain base specs are checked with the
  drawn ones, as the draw mostly nests them.
"""

from __future__ import annotations

import pytest
from hypothesis import Phase, given, settings

from conftest import relabelled
from test_fuzz import SPEC_TEXTS
from formatio.classes import VStarClass, is_member, parse_spec
from formatio.errors import FormatioError
from formatio.groups import quotient
from formatio.structure import frattini, maximal_subgroups, minimal_normal_subgroups
from formatio.subnormality import vstar_member

INCLUSION_INNERS = ("N", "U", "A", "S", "p_nilpotent:2", "sylow_tower:2>3",
                    "reg(default->1)", "S_pi:{2,3}", "local(2->N,default->A)",
                    "vstar(N)", "vU")
BASE_SPECS = ("trivial", "A", "N", "U", "S", "all", "vU", "p_groups:2", "p_groups:3",
              "p_nilpotent:2", "p_nilpotent:3", "S_pi:{2,3}", "S_pi':{2}",
              "sylow_tower:2>3", "S(2^inf*3)", "bounded(N;2^3*3)", "reg(default->1)")


def drawn_specs(n):
    """The specs of the first n texts of a derandomized draw from the spec
    grammar, without repeats."""
    texts = []

    @settings(derandomize=True, max_examples=n, database=None, phases=[Phase.generate])
    @given(SPEC_TEXTS)
    def collect(text):
        texts.append(text)

    collect()
    return [parse_spec(text) for text in dict.fromkeys(texts)]


def outcome(fn, *args):
    """fn's result, or the type and text of the FormatioError it raised."""
    try:
        return fn(*args)
    except FormatioError as exc:
        return type(exc).__name__, str(exc)


@pytest.fixture(scope="module")
def drawn():
    """The drawn specs, then the base specs the draw did not give."""
    specs = drawn_specs(100)
    return specs + [F for F in dict.fromkeys(map(parse_spec, BASE_SPECS)) if F not in specs]


@pytest.fixture(scope="module")
def small_and_copies(catalog_groups):
    small = [G for G in catalog_groups if G.order <= 24]
    return small + [relabelled(G, 1000 + i) for i, G in enumerate(small)]


@pytest.fixture(scope="module")
def corpus_and_copies(subgroup_tables):
    return subgroup_tables + [relabelled(K, i) for i, K in enumerate(subgroup_tables)]


@pytest.mark.parametrize("text", INCLUSION_INNERS)
def test_vstar_by_inclusion_matches_the_search(corpus_and_copies, text):
    F = parse_spec(text)
    assert F.hereditary and F.formation
    assert any(is_member(K, F) for K in corpus_and_copies)
    for K in corpus_and_copies:
        assert is_member(K, VStarClass(F)) == vstar_member(K, F), (text, K.name)


def test_vstar_by_inclusion_matches_the_search_on_drawn_specs(drawn, corpus_and_copies):
    inners = [F for F in drawn if F.hereditary and F.formation][:12]
    assert len(inners) == 12
    for F in inners:
        for K in corpus_and_copies:
            assert outcome(is_member, K, VStarClass(F)) == outcome(vstar_member, K, F), \
                (F.text(), K.name)


def test_drawn_flags_hold_on_small_catalog_groups(drawn, small_and_copies):
    checked = 0
    for spec in drawn:
        if not (spec.formation or spec.hereditary):
            continue
        for G in small_and_copies:
            # a group whose verdict is an error (vstar of a spec that is not
            # flagged hereditary, inside a local spec) is no member
            if outcome(is_member, G, spec) is not True:
                continue
            if spec.formation:
                for M in minimal_normal_subgroups(G):
                    assert is_member(quotient(G, M)[0], spec), (spec.text(), G.name, M.order)
                    checked += 1
            if spec.hereditary:
                for H in maximal_subgroups(G):
                    assert is_member(H.as_group(), spec), (spec.text(), G.name, H.elems)
                    checked += 1
    assert checked


def test_drawn_saturated_flags_hold_on_small_catalog_groups(drawn, small_and_copies):
    checked = 0
    for spec in drawn:
        if not spec.saturated:
            continue
        for G in small_and_copies:
            # as above, a quotient whose verdict is an error is no member
            if outcome(is_member, quotient(G, frattini(G))[0], spec) is not True:
                continue
            assert outcome(is_member, G, spec) is True, (spec.text(), G.name)
            checked += 1
    assert checked

