"""Property tests on generated input: the spec grammar and the `sn` calculator.

Spec texts follow the grammar comment above `classes._NAMED`; every one must
parse, and its canonical text must parse back to the same spec.  `sn`
expressions nest every operation over valid and malformed literals, and
`local(...)` and `reg(...)` entry lists carry malformed entries; each must end
in a result or in exactly one `error:` line, never in a traceback.  A number in
a valid spec, `sn` text or builder token that gains a sign, a `_` or a digit
outside ASCII must end in one `error:` line, although Python's `int()` would
read it.  Group files (relabelled tables with one fault put in) and catalogs
(those files under a manifest with one fault put in) must likewise end in a
`check` or `sweep` result or in one error line.
"""

from __future__ import annotations

import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import assume, example, given, settings, strategies as st

from formatio.classes import parse_spec
from formatio.cli import main
from formatio.constructions import cyclic, dihedral, elementary_abelian, quaternion
from formatio.groups import group_to_json

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


# Keys that are not primes of at most 12 digits
BAD_KEYS = ("1", "4", "0", "-3", "x", "", "2 3", "1234567890123")
FAULTS = ("missing '->'", "repeated prime", "repeated default", "bad key", "empty item")


@st.composite
def _entry_lists(draw, head, value, default_value):
    """`head(P->value,...,default->value)`, and whether one fault was put in
    its list: a missing '->', a repeated prime or default, a key that is not
    a prime of at most 12 digits, or an empty item."""
    primes = draw(st.lists(PRIMES, min_size=1, max_size=3, unique=True))
    entries = [f"{p}->{draw(value(p))}" for p in primes]
    entries.append(f"default->{draw(default_value)}")
    fault = draw(st.sampled_from(FAULTS + (None,)))
    i = draw(st.integers(0, len(entries) - 1))
    if fault == "missing '->'":
        entries[i] = entries[i].replace("->", draw(st.sampled_from(("", "-", ">", "=>"))))
    elif fault == "repeated prime":
        entries.append(entries[0])
    elif fault == "repeated default":
        entries.append(entries[-1])
    elif fault == "bad key":
        entries[i] = draw(st.sampled_from(BAD_KEYS)) + entries[i][entries[i].index("->"):]
    elif fault == "empty item":
        entries.insert(i, "")
    return f"{head}({','.join(draw(st.permutations(entries)))})", fault is not None


ENTRY_LIST_SPECS = st.one_of(
    _entry_lists("local", lambda p: st.sampled_from(NAMED), st.sampled_from(NAMED)),
    _entry_lists("reg", lambda p: SUFFIXES.map(lambda suffix: f"{p}^inf{suffix}"),
                 st.sampled_from(("1", "full", "2^3", "5;default=inf"))),
)


@settings(derandomize=True, deadline=1000, max_examples=100)
@given(ENTRY_LIST_SPECS)
def test_check_rejects_a_faulty_entry_list_in_one_error_line(case):
    text, faulty = case
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["check", "Z1", text])
    if not faulty:
        assert code == 0 and err.getvalue() == ""
    else:
        assert code == 1 and out.getvalue() == ""
        (line,) = err.getvalue().splitlines()
        assert line.startswith("error: ")


# 0-9 in Arabic-Indic, fullwidth and superscript digits
OTHER_DIGITS = ("٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９", "⁰¹²³⁴⁵⁶⁷⁸⁹")
BUILDER_TOKENS = ("Z1", "Z12", "D3", "D6", "E(4|3)", "E(3|7)")


@st.composite
def _near_miss(draw, texts):
    """A text from `texts` with one of its numbers written as a near miss: a
    sign before it, a `_` between its digits (after a leading 0 when it has
    one digit), or one digit from another script."""
    text = draw(texts)
    runs = list(re.finditer("[0-9]+", text))
    assume(runs)
    run = draw(st.sampled_from(runs))
    digits = run.group()
    kind = draw(st.sampled_from(("sign", "underscore", "digit")))
    if kind == "sign":
        digits = draw(st.sampled_from("+-")) + digits
    elif kind == "underscore":
        digits = digits if len(digits) > 1 else "0" + digits
        i = draw(st.integers(1, len(digits) - 1))
        digits = f"{digits[:i]}_{digits[i:]}"
    else:
        i = draw(st.integers(0, len(digits) - 1))
        digits = digits[:i] + draw(st.sampled_from(OTHER_DIGITS))[int(digits[i])] + digits[i + 1:]
    return text[:run.start()] + digits + text[run.end():]


SN_TEXTS = st.recursive(
    supernatural_texts(),
    lambda children: st.one_of(
        st.builds("{}({},{})".format, st.sampled_from(("lcm", "gcd", "divides")),
                  children, children),
        exponent_function_texts().map("encode({})".format)),
    max_leaves=3)
NEAR_MISS_ARGV = st.one_of(
    _near_miss(SPEC_TEXTS).map(lambda spec: ["check", "Z1", spec]),
    _near_miss(SN_TEXTS).map(lambda expr: ["sn", "--", expr]),
    _near_miss(st.sampled_from(BUILDER_TOKENS)).map(lambda group: ["check", group, "N"]),
)


@settings(derandomize=True, deadline=1000, max_examples=200)
@given(NEAR_MISS_ARGV)
def test_near_miss_number_is_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == 1 and out.getvalue() == ""
    (line,) = err.getvalue().splitlines()
    assert line.startswith("error: ")


# ---------------------------------------------------------------------------
# Group files and catalog manifests

BASE_GROUPS = (cyclic(1), cyclic(4), dihedral(3), quaternion(), elementary_abelian(2, 2))
# entries of the wrong type or far out of range
ODD_VALUES = (True, False, 1.0, 10**30, -10**30, "1", None, [0], {"a": 0})
TABLE_FAULTS = ("entry", "ragged", "range", "type", "order", "missing", "name",
                "non-object", "raw")
RAW_FAULTS = (b"{not json", b"\xff\xfe{}", b"[" * 100_000, b"", b'{"name": "x", "order": 1,')


@st.composite
def group_files(draw) -> bytes:
    """The bytes of a group file: a small group's table relabelled (with the
    identity kept at 0 or not), and at most one fault put in."""
    G = draw(st.sampled_from(BASE_GROUPS))
    n = G.order
    sigma = draw(st.one_of(st.permutations(range(n)),
                           st.permutations(range(1, n)).map(lambda rest: [0, *rest])))
    table = [[0] * n for _ in range(n)]
    for a, row in enumerate(G.table):
        for b, ab in enumerate(row):
            table[sigma[a]][sigma[b]] = sigma[ab]
    payload = {"name": G.name, "order": n, "table": table}
    fault = draw(st.sampled_from(TABLE_FAULTS + (None,)))
    a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if fault == "entry":
        table[a][b] = (table[a][b] + draw(st.integers(1, max(1, n - 1)))) % n
    elif fault == "ragged":
        table[a] = table[a][:-1] if draw(st.booleans()) else table[a] + [0]
    elif fault == "range":
        table[a][b] = draw(st.sampled_from((n, -1)))
    elif fault == "type":
        table[a][b] = draw(st.sampled_from(ODD_VALUES))
    elif fault == "order":
        payload["order"] = draw(st.sampled_from((n + 1, 0, True, float(n), str(n), None)))
    elif fault == "missing":
        del payload[draw(st.sampled_from(("name", "order", "table")))]
    elif fault == "name":
        payload["name"] = draw(st.sampled_from(ODD_VALUES))
    elif fault == "non-object":
        payload = draw(st.sampled_from((table, n, G.name, None)))
    elif fault == "raw":
        return draw(st.sampled_from(RAW_FAULTS))
    return json.dumps(payload).encode()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_result_or_one_error_line(code, out, err):
    if code == 0:
        assert out and err == ""
    else:
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        assert line.startswith(("error: ", "i/o error: "))


@settings(derandomize=True, deadline=2000, max_examples=200)
@given(group_files())
@example(b"\xff\xfe{}")
@example(b"[" * 100_000)
def test_check_of_a_group_file_prints_a_result_or_one_error_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.json"
        path.write_bytes(data)
        _assert_result_or_one_error_line(*_run(["check", str(path), "N"]))


ROW_KEYS = ("file", "name", "order", "tags", "provenance")
MANIFEST_FAULTS = ("missing key", "wrong type", "missing file", "order", "row",
                   "non-list", "raw")


@st.composite
def catalogs(draw) -> dict:
    """A catalog as {relative path: bytes}: group files, some of them faulty,
    and a manifest over them with at most one fault put in."""
    files, rows = {}, []
    for k in range(draw(st.integers(0, 3))):
        G = draw(st.sampled_from(BASE_GROUPS))
        name = f"groups/g{k}.json"
        files[name] = draw(st.one_of(st.just(group_to_json(G).encode()), group_files()))
        rows.append({"file": name, "name": G.name, "order": G.order, "tags": [],
                     "provenance": "fuzz"})
    manifest = rows
    fault = draw(st.sampled_from(MANIFEST_FAULTS + (None,)))
    if fault in ("missing key", "wrong type", "missing file", "order") and rows:
        row = draw(st.sampled_from(rows))
        if fault == "missing key":
            del row[draw(st.sampled_from(ROW_KEYS))]
        elif fault == "wrong type":
            row[draw(st.sampled_from(ROW_KEYS))] = draw(st.sampled_from(ODD_VALUES))
        elif fault == "missing file":
            row["file"] = draw(st.sampled_from(("groups/none.json", "groups", "\0")))
        else:
            row["order"] += draw(st.sampled_from((-1, 1)))
    elif fault == "row":
        manifest = rows + [draw(st.sampled_from(ODD_VALUES))]
    elif fault == "non-list":
        manifest = draw(st.sampled_from(({"file": "groups/g0.json"}, 3, "x", None)))
    elif fault == "raw":
        files["manifest.json"] = draw(st.sampled_from(RAW_FAULTS))
        return files
    files["manifest.json"] = json.dumps(manifest).encode()
    return files


Z1_FILE = group_to_json(cyclic(1)).encode()
Z1_ROW = {"file": "groups/g0.json", "name": "Z1", "order": 1, "tags": [], "provenance": "x"}


@settings(derandomize=True, deadline=2000, max_examples=150)
@given(catalogs())
@example({"manifest.json": b"{not json"})
@example({"manifest.json": json.dumps([{**Z1_ROW, "file": None}]).encode(),
          "groups/g0.json": Z1_FILE})
@example({"manifest.json": json.dumps({"a": Z1_ROW}).encode(), "groups/g0.json": Z1_FILE})
@example({"manifest.json": json.dumps([Z1_ROW]).encode(), "groups/g0.json": b"\xff"})
@example({"manifest.json": json.dumps([Z1_ROW]).encode(), "groups/g0.json": b"[" * 100_000})
def test_sweep_of_a_catalog_prints_a_result_or_one_error_line(files):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "groups").mkdir()
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data)
        argv = ["sweep", "--catalog", tmp, "--spec", "N", "--mode", "saturation"]
        _assert_result_or_one_error_line(*_run(argv))
