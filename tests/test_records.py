"""The `record` value classes against their model, the stdlib dataclass.

Every record class in formatio gets a frozen `dataclasses.make_dataclass`
twin with the same fields and class body; instances built from a corpus that
reaches every record class must behave the same in both.
"""

from __future__ import annotations

import dataclasses
import pickle
import sys

import pytest

import formatio.cli  # noqa: F401  (imports every formatio module)
from formatio import records
from formatio.classes import (
    ABELIAN,
    ALL_GROUPS,
    NILPOTENT,
    SOLUBLE,
    SUPERSOLUBLE,
    TRIVIAL,
    PrimeOrdering,
    is_member,
    parse_spec,
)
from formatio.constructions import CatalogConfig, alternating, build_catalog, symmetric
from formatio.groups import FiniteGroup, quotient
from formatio.regularity import non_class_graph, regularity_row, regularity_sweep
from formatio.structure import all_subgroups, chief_series
from formatio.subnormality import k_subnormal_chain, prime_index_chain
from formatio.supernatural import (
    INF,
    ONE,
    ExponentFunction,
    Supernatural,
    parse_exponent_function,
    parse_supernatural,
)

RECORD_CLASSES = {
    obj for name, module in sorted(sys.modules.items()) if name.startswith("formatio.")
    for obj in vars(module).values()
    if isinstance(obj, type) and "__record_fields__" in obj.__dict__
}

# one spec per ClassSpec record class, nested specs included
SPEC_TEXTS = (
    "trivial", "A", "N", "p_groups:2", "S", "U", "p_nilpotent:3", "S_pi:{2,3}",
    "S_pi':5", "sylow_tower:3>2", "all", "vU", "S(6)", "bounded(N;2^inf*3)",
    "prod(N,A)", "cap(N,S_pi:2)", "local(2->N,default->S)", "vstar(U)",
    "reg(2->2^inf*3,default->1)",
)


def fields(cls_or_obj) -> tuple[str, ...]:
    return tuple(cls_or_obj.__record_fields__)


def asdict(x) -> dict:
    return {name: getattr(x, name) for name in fields(x)}


def _is_frozen(cls) -> bool:
    return getattr(cls.__dict__.get("__setattr__"), "__module__", None) == records.__name__


def _twin(cls):
    """The frozen stdlib dataclass with cls's fields and class body."""
    names = fields(cls)
    specs = [(n, cls.__annotations__[n]) if n not in cls.__dict__
             else (n, cls.__annotations__[n], cls.__dict__[n]) for n in names]
    body = {k: v for k, v in cls.__dict__.items()
            if k not in names
            and k not in ("__dict__", "__weakref__", "__annotations__", "__record_fields__")
            and getattr(v, "__module__", None) != records.__name__}
    return dataclasses.make_dataclass(cls.__name__, specs, bases=cls.__bases__,
                                      namespace=body, frozen=True)


TWINS = {cls: _twin(cls) for cls in RECORD_CLASSES}


def twin_of(x):
    return TWINS[type(x)](*(getattr(x, n) for n in fields(x)))


def copy_of(x):
    return type(x)(*(getattr(x, n) for n in fields(x)))


@pytest.fixture(scope="module")
def corpus():
    specs = [parse_spec(t) for t in SPEC_TEXTS]
    S3, S4 = symmetric(3), symmetric(4)
    lattice = all_subgroups(S3)
    A4 = alternating(4)
    out = specs + [s.ordering for s in specs if hasattr(s, "ordering")]
    out += [parse_supernatural(t) for t in ("1", "full", "12", "2^3*5^inf", "7^2;default=inf")]
    out += [parse_exponent_function(t) for t in ("default->1", "2->2^inf*3,3->3^inf,default->full")]
    out += [CatalogConfig(), CatalogConfig(12)]
    out += [lattice, chief_series(S4), quotient(S3, lattice.subgroups[-2])[1]]
    out += list(lattice.subgroups)
    out += [k_subnormal_chain(S4, all_subgroups(S4).subgroups[1], parse_spec("S")),
            prime_index_chain(S3, lattice.subgroups[1])]
    out += [regularity_row(S3, parse_spec("vU")), regularity_row(A4, parse_spec("N")),
            regularity_sweep([S3], parse_spec("N")), non_class_graph(S3, parse_spec("A"))]
    out += build_catalog(CatalogConfig(max_order=4))
    return out


def test_corpus_reaches_every_record_class(corpus):
    assert len(RECORD_CLASSES) == 25
    assert {type(x) for x in corpus} == RECORD_CLASSES


# The one-word specs were record classes of their own before they became rows
# of NamedClass; each row keeps its former class's case, and the flags that
# class declared (formation, hereditary, saturated, soluble_only).
NAMED_ROWS = {
    "TrivialClass": (TRIVIAL, (True, True, True, True)),
    "AbelianClass": (ABELIAN, (True, True, False, True)),
    "NilpotentClass": (NILPOTENT, (True, True, True, True)),
    "SolubleClass": (SOLUBLE, (True, True, True, True)),
    "SupersolubleClass": (SUPERSOLUBLE, (True, True, True, True)),
    "AllGroupsClass": (ALL_GROUPS, (True, True, True, False)),
}
FLAGS = ("formation", "hereditary", "saturated", "soluble_only")


def _row_matches_its_twin(row, flags):
    twin = twin_of(row)
    assert asdict(row) == {f.name: getattr(twin, f.name) for f in dataclasses.fields(twin)}
    assert tuple(getattr(row, f) for f in FLAGS) == tuple(getattr(twin, f) for f in FLAGS) == flags
    assert hash(row) == hash(twin)
    for name in fields(row):
        with pytest.raises(records.FrozenInstanceError):
            setattr(row, name, getattr(row, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(twin, name, getattr(twin, name))


@pytest.mark.parametrize(
    "cls", sorted(RECORD_CLASSES, key=lambda c: c.__qualname__) + sorted(NAMED_ROWS),
    ids=lambda c: c if isinstance(c, str) else c.__qualname__)
def test_fields_defaults_and_flags_match_the_dataclass(cls):
    if cls in NAMED_ROWS:
        _row_matches_its_twin(*NAMED_ROWS[cls])
        return
    twin = TWINS[cls]
    assert fields(cls) == tuple(f.name for f in dataclasses.fields(twin))
    assert ({n: cls.__dict__[n] for n in fields(cls) if n in cls.__dict__}
            == {f.name: f.default for f in dataclasses.fields(twin)
                if f.default is not dataclasses.MISSING})
    assert (cls.__hash__ is None) == (twin.__hash__ is None)
    assert _is_frozen(cls)
    if any(n not in cls.__dict__ for n in fields(cls)):
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            twin()


def test_repr_hash_and_equality_match_the_dataclass(corpus):
    twins = [twin_of(x) for x in corpus]
    for x, tx in zip(corpus, twins):
        assert repr(x) == repr(tx)
        assert set(vars(x)) >= set(fields(x))  # cached_property needs __dict__
        assert hash(x) == hash(tx) == hash(copy_of(x))
        y = copy_of(x)
        assert y is not x and x == y and not x != y
    for x, tx in zip(corpus, twins):
        for y, ty in zip(corpus, twins):
            assert ((x == y), (x != y)) == ((tx == ty), (tx != ty))
            if type(x) is not type(y):
                assert x != y and not x == y
    # named specs share one class and compare by their fields
    assert parse_spec("N") == copy_of(parse_spec("N")) != parse_spec("A")


def test_frozen_fields_reject_assignment_and_deletion(corpus):
    for x in corpus:
        before = asdict(x)
        for name in fields(x) + ("not_a_field",):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(records.FrozenInstanceError):
                delattr(x, name)
        assert asdict(x) == before


@pytest.mark.parametrize("cls, args", [
    (Supernatural, (((4, 1),), 0)),
    (Supernatural, (((3, 1), (2, 1)), 0)),
    (Supernatural, ((), 5)),
    (Supernatural, (((3, 0),), 0)),
    (Supernatural, (((2, -1),), 0)),
    (ExponentFunction, (((4, ONE),),)),
    (ExponentFunction, (((3, ONE),),)),
    (ExponentFunction, (((3, parse_supernatural("3^inf")), (2, parse_supernatural("2^inf"))),)),
    (PrimeOrdering, ((2, 3, 2),)),
    (PrimeOrdering, ((2, 9),)),
])
def test_post_init_errors_are_unchanged(cls, args):
    with pytest.raises(Exception) as ours:
        cls(*args)
    with pytest.raises(Exception) as theirs:
        TWINS[cls](*args)
    assert (type(ours.value), str(ours.value)) == (type(theirs.value), str(theirs.value))


def test_pickle_round_trip(corpus):
    for x in corpus:
        y = pickle.loads(pickle.dumps(x))
        assert type(y) is type(x) and repr(y) == repr(x)
        # a group compares by identity, so only group-free records compare equal
        if not any(isinstance(v, FiniteGroup) for v in asdict(x).values()):
            assert y == x
        with pytest.raises(AttributeError):
            setattr(y, fields(y)[0] if fields(y) else "x", None)
    spec = pickle.loads(pickle.dumps(parse_spec("reg(2->2^inf*3,default->1)")))
    assert spec.text() == "reg(2->2^inf*3,default->1)"
    assert is_member(symmetric(3), spec) == is_member(symmetric(3), parse_spec(spec.text()))
    assert pickle.loads(pickle.dumps(parse_supernatural("2^inf"))).v(2) == INF
