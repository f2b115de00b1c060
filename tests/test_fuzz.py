"""Property tests on generated input: the spec grammar and the `sn` calculator.

Spec texts follow the grammar comment above `classes._NAMED`; every one must
parse, and its canonical text must parse back to the same spec.  `sn`
expressions nest every operation over valid and malformed literals; each must
end in a result or in exactly one `error:` line, never in a traceback.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from formatio.classes import parse_spec
from formatio.cli import main

PRIMES = st.sampled_from((2, 3, 5, 7, 11, 13))
EXPONENTS = st.one_of(st.integers(0, 4), st.just("inf"))
SUFFIXES = st.sampled_from(("", "", ";default=inf", ";default=0"))
NAMED = ("trivial", "abelian", "A", "nilpotent", "N", "soluble", "S",
         "supersoluble", "U", "all", "vU")
# A decimal up to 10^12 has at most one prime factor above 10^6, as the
# literal rules require.  Few drawn integers have one, so some decimals are
# multiples of a prime above 10^6: `decode` sieves up to the first three and
# refuses the other two.
LARGE_PRIMES = (1000003, 1299709, 9999991, 15485863, 2147483647)
DECIMALS = st.one_of(
    st.integers(1, 10**12),
    st.sampled_from(LARGE_PRIMES).flatmap(
        lambda q: st.integers(1, 10**12 // q).map(lambda a: a * q)))
MALFORMED = ("0", "x", "", "2^", "4^2", "2*2", "2^-1", "2;default=1", "2^1234567890123",
             "2->3", "2->2^inf,default->1,default->1", "f:", "(", "lcm(2)")


def _power(p, e) -> str:
    return str(p) if e == 1 else f"{p}^{e}"


@st.composite
def supernatural_texts(draw) -> str:
    kind = draw(st.sampled_from(("full", "decimal", "product")))
    if kind == "full":
        return "full"
    if kind == "decimal":
        body = str(draw(DECIMALS))
    else:
        primes = draw(st.lists(PRIMES, min_size=1, max_size=3, unique=True))
        body = "*".join(_power(p, draw(EXPONENTS)) for p in primes)
    return body + draw(SUFFIXES)


@st.composite
def exponent_function_texts(draw) -> str:
    entries = []
    for p in draw(st.lists(PRIMES, max_size=3, unique=True)):
        others = draw(st.lists(PRIMES.filter(lambda q: q != p), max_size=2, unique=True))
        value = "*".join([f"{p}^inf"] + [_power(q, draw(EXPONENTS)) for q in others])
        entries.append(f"{p}->{value}{draw(SUFFIXES)}")
    if draw(st.booleans()) or not entries:
        entries.append(f"default->{draw(supernatural_texts())}")
    return draw(st.sampled_from(("", "f:"))) + ",".join(draw(st.permutations(entries)))


def _pi_text(head, primes, braces) -> str:
    inner = ",".join(map(str, primes))
    return f"{head}:{{{inner}}}" if braces or len(primes) > 1 else f"{head}:{inner}"


SPEC_LEAVES = st.one_of(
    st.sampled_from(NAMED),
    PRIMES.map("p_groups:{}".format),
    PRIMES.map("p_nilpotent:{}".format),
    st.builds(_pi_text, st.sampled_from(("S_pi", "S_pi'")),
              st.lists(PRIMES, min_size=1, max_size=3), st.booleans()),
    st.lists(PRIMES, min_size=1, max_size=4, unique=True).map(
        lambda ps: "sylow_tower:" + ">".join(map(str, ps))),
    supernatural_texts().map("S({})".format),
    exponent_function_texts().map("reg({})".format),
)


@st.composite
def _local_texts(draw, children) -> str:
    entries = [f"{p}->{draw(children)}"
               for p in draw(st.lists(PRIMES, max_size=3, unique=True))]
    entries.append(f"default->{draw(children)}")
    return f"local({','.join(draw(st.permutations(entries)))})"


def _compound_specs(children):
    return st.one_of(
        st.builds("bounded({};{})".format, children, supernatural_texts()),
        st.builds("prod({},{})".format, children, children),
        st.lists(children, min_size=2, max_size=3).map(lambda xs: f"cap({','.join(xs)})"),
        children.map("vstar({})".format),
        _local_texts(children),
    )


SPEC_TEXTS = st.recursive(SPEC_LEAVES, _compound_specs, max_leaves=6)


@settings(derandomize=True, deadline=1000, max_examples=300)
@given(SPEC_TEXTS)
def test_spec_text_round_trips(text):
    spec = parse_spec(text)
    assert parse_spec(spec.text()) == spec


def _sn_calls(children):
    binary = st.sampled_from(("lcm", "gcd", "divides"))
    return st.one_of(
        st.builds("{}({},{})".format, binary, children, children),
        st.builds("{}({})".format, st.sampled_from(("decode", "complement")), children),
        exponent_function_texts().map("encode({})".format),
        # wrong arities, and encode of an expression
        st.builds("{}({})".format, binary | st.just("encode"),
                  st.lists(children, max_size=3).map(",".join)),
    )


# one leaf in three is malformed
SN_EXPRESSIONS = st.recursive(
    st.one_of(supernatural_texts(), supernatural_texts(), st.sampled_from(MALFORMED)),
    _sn_calls, max_leaves=5)


@settings(derandomize=True, deadline=1000, max_examples=300)
@given(SN_EXPRESSIONS)
def test_sn_prints_a_result_or_one_error_line(expr):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["sn", expr])
    if code == 0:
        assert err.getvalue() == "" and out.getvalue().count("\n") == 1
    else:
        assert code == 1 and out.getvalue() == ""
        (line,) = err.getvalue().splitlines()
        assert line.startswith("error: ")
