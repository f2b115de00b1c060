"""End-to-end command-line behavior and exit-code contract."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time

import pytest

from formatio.classes import ABELIAN, NamedClass, VSupersolubleClass
from formatio.cli import main
from formatio.groups import MAX_ORDER


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sn_lcm(capsys):
    code, out, _ = run_cli(capsys, "sn", "lcm(12,18)")
    assert code == 0
    assert out.strip() == "36"


def test_sn_gcd_and_divides(capsys):
    code, out, _ = run_cli(capsys, "sn", "gcd(2^inf*3,2*3^inf)")
    assert (code, out.strip()) == (0, "6")
    code, out, _ = run_cli(capsys, "sn", "divides(12,2^inf*3^inf)")
    assert (code, out.strip()) == (0, "true")


def test_sn_encode_decode(capsys):
    code, out, _ = run_cli(capsys, "sn", "decode(1)")
    assert (code, out.strip()) == (0, "default->1")
    code, out, _ = run_cli(capsys, "sn", "encode(2->2^inf,default->full)")
    assert code == 0
    assert "default=inf" in out


def test_sn_error_exit(capsys):
    code, _, err = run_cli(capsys, "sn", "lcm(wibble)")
    assert code == 1
    assert "error" in err


def test_check_a4_supersoluble(capsys):
    code, out, _ = run_cli(capsys, "check", "A4", "supersoluble")
    assert code == 0
    assert "is NOT" in out
    assert "4" in out  # the violating chief factor order


@pytest.mark.parametrize("group, spec", [("A4", "U"), ("S4", "supersoluble")])
def test_check_supersoluble_failure_names_chief_factor_orders(capsys, group, spec):
    # the verdict comes from the prime-index climb, the detail from the chief series
    code, out, _ = run_cli(capsys, "check", group, spec, "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "detail": {"violating_chief_factor_orders": [4]},
        "group": group,
        "member": False,
        "order": {"A4": 12, "S4": 24}[group],
        "spec": "supersoluble",
    }


def test_check_trivial_group_member(capsys):
    code, out, _ = run_cli(capsys, "check", "Z1", "nilpotent")
    assert code == 0
    assert "IS" in out


def test_check_vstar_reports_stuck_subgroup(capsys):
    code, out, _ = run_cli(capsys, "check", "S3", "vstar(N)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is False
    assert payload["detail"]["stuck_cyclic_subgroup"] == [0, 1]


def test_check_unknown_group_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "check", "NoSuchGroup", "nilpotent")
    assert code == 1
    assert "cannot resolve" in err


def test_graph_s3_nilpotent(capsys, tmp_path):
    out_file = tmp_path / "s3.dot"
    code, _, _ = run_cli(capsys, "graph", "S3", "nilpotent",
                         "--out", str(out_file))
    assert code == 0
    dot = out_file.read_text(encoding="utf-8")
    assert dot.count(" -- ") == 9
    assert dot.count("[label=") == 6


def test_catalog_build_and_reuse(capsys, tmp_path):
    cat = tmp_path / "cat"
    code, out, _ = run_cli(capsys, "catalog-build", "--out", str(cat),
                           "--max-order", "12")
    assert code == 0
    manifest = json.loads((cat / "manifest.json").read_text())
    assert len(manifest) >= 10
    # idempotent rebuild
    code, _, _ = run_cli(capsys, "catalog-build", "--out", str(cat),
                         "--max-order", "12")
    assert code == 0


def test_catalog_build_with_a_bound_above_the_cap(capsys, tmp_path):
    cat = tmp_path / "cat"
    code, _, err = run_cli(capsys, "catalog-build", "--out", str(cat),
                           "--max-order", "1000")
    assert code == 0, err
    manifest = json.loads((cat / "manifest.json").read_text())
    assert max(row["order"] for row in manifest) <= MAX_ORDER


def test_catalog_build_refuses_corrupt_without_force(capsys, tmp_path):
    cat = tmp_path / "cat"
    run_cli(capsys, "catalog-build", "--out", str(cat), "--max-order", "8")
    (cat / "manifest.json").write_text("not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "catalog-build", "--out", str(cat),
                           "--max-order", "8")
    assert code == 1
    assert "force" in err
    code, _, _ = run_cli(capsys, "catalog-build", "--out", str(cat),
                         "--max-order", "8", "--force")
    assert code == 0


def test_default_catalog_size(capsys, tmp_path):
    cat = tmp_path / "cat"
    code, out, _ = run_cli(capsys, "catalog-build", "--out", str(cat))
    assert code == 0
    manifest = json.loads((cat / "manifest.json").read_text())
    assert len(manifest) >= 40


def test_sweep_regularity_vu(capsys, tmp_path):
    cat = tmp_path / "cat"
    run_cli(capsys, "catalog-build", "--out", str(cat), "--max-order", "16")
    code, out, _ = run_cli(capsys, "sweep", "--spec", "vU",
                           "--mode", "regularity", "--catalog", str(cat),
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == []
    assert payload["equal"] == payload["groups"]


def test_sweep_saturation_exponent_formation(capsys, tmp_path):
    cat = tmp_path / "cat"
    run_cli(capsys, "catalog-build", "--out", str(cat), "--max-order", "16")
    code, out, _ = run_cli(capsys, "sweep",
                           "--spec", "reg(default->1)",
                           "--mode", "saturation", "--catalog", str(cat),
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == []


def test_sweep_vstar_idempotence(capsys, tmp_path):
    cat = tmp_path / "cat"
    run_cli(capsys, "catalog-build", "--out", str(cat), "--max-order", "12")
    code, out, _ = run_cli(capsys, "sweep", "--spec", "nilpotent",
                           "--mode", "vstar-idempotence",
                           "--catalog", str(cat), "--format", "json")
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_sweep_formation_laws(capsys, tmp_path):
    cat = tmp_path / "cat"
    run_cli(capsys, "catalog-build", "--out", str(cat), "--max-order", "12")
    code, out, _ = run_cli(capsys, "sweep", "--spec", "nilpotent",
                           "--mode", "formation-laws",
                           "--catalog", str(cat), "--format", "json")
    assert code == 0
    assert json.loads(out)["failures"] == []


@pytest.mark.parametrize("mode, spec", [
    ("regularity", "vU"), ("saturation", "reg(default->1)"),
    ("formation-laws", "U"), ("vstar-idempotence", "N"),
])
def test_sweep_parallel_workers_match_serial(capsys, tmp_path, monkeypatch,
                                            mode, spec):
    # --workers is accepted and checked, and every sweep still runs in one
    # process: starting any child process, a pool worker included, fails
    import multiprocessing.process

    def no_process(*args, **kwargs):
        raise AssertionError("a child process was started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    cat = tmp_path / "cat"
    run_cli(capsys, "catalog-build", "--out", str(cat), "--max-order", "12")
    argv = ("sweep", "--spec", spec, "--mode", mode, "--catalog", str(cat),
            "--format", "json")
    serial = run_cli(capsys, *argv)
    assert serial[0] == 0
    assert run_cli(capsys, *argv, "--workers", "2") == serial


def _order_not_two(G):
    return G.order != 2


# wrongly flagged saturated: Q8/Phi(Q8) is abelian, Q8 is not
_SATURATED_ABELIAN = NamedClass("abelian", ABELIAN.member)
# wrongly flagged hereditary: S3 (catalog name D3) is a member, its subgroups
# of order 2 are not
_ORDER_NOT_TWO = NamedClass("order-not-2", _order_not_two, formation=False,
                            soluble_only=False)


@pytest.mark.parametrize("mode, spec, code, culprit", [
    ("saturation", ABELIAN, 0, "Q8"),  # not flagged saturated: informational
    ("saturation", _SATURATED_ABELIAN, 2, "Q8"),
    ("formation-laws", _ORDER_NOT_TWO, 2, "D3"),
])
def test_sweep_exit_code_follows_the_flagged_law(capsys, tmp_path, monkeypatch,
                                                 mode, spec, code, culprit):
    cat = tmp_path / "cat"
    run_cli(capsys, "catalog-build", "--out", str(cat), "--max-order", "8")
    monkeypatch.setattr("formatio.cli.parse_spec", lambda text: spec)
    got, out, _ = run_cli(capsys, "sweep", "--spec", spec.text(), "--mode", mode,
                          "--catalog", str(cat), "--format", "json")
    assert got == code
    assert culprit in {r["group"] for r in json.loads(out)["failures"]}


def test_member_rows_trust_the_flag_that_formation_laws_checks(capsys, tmp_path,
                                                              monkeypatch):
    # D3 is a member, so its regularity row is decided by that one verdict
    # and reads equal; the formation-laws sweep is what finds the false flag
    cat = tmp_path / "cat"
    run_cli(capsys, "catalog-build", "--out", str(cat), "--max-order", "8")
    spec = _ORDER_NOT_TWO
    monkeypatch.setattr("formatio.cli.parse_spec", lambda text: spec)
    argv = ("sweep", "--spec", spec.text(), "--catalog", str(cat), "--format", "json")
    code, out, _ = run_cli(capsys, *argv, "--mode", "regularity")
    assert code == 0
    row = next(r for r in json.loads(out)["rows"] if r["group"] == "D3")
    assert row["equal"] and row["int"] == row["iset"] == list(range(6))
    code, out, _ = run_cli(capsys, *argv, "--mode", "formation-laws")
    assert code == 2
    failures = json.loads(out)["failures"]
    assert {"group": "D3", "law": "hereditary", "ok": False} in failures


@pytest.mark.parametrize("command", ["check", "sweep"])
def test_missing_catalog_directory_is_an_io_error(capsys, tmp_path, monkeypatch, command):
    missing = str(tmp_path / "no" / "such" / "dir")
    argv = (("check", "Z2xZ2", "N") if command == "check"
            else ("sweep", "--spec", "N"))
    code, out, err = run_cli(capsys, *argv, "--catalog", missing)
    assert (code, out) == (1, "")
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    monkeypatch.setenv("FORMATIO_CATALOG", missing)
    assert run_cli(capsys, *argv) == (code, out, err)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "formatio.cli", "sn", "lcm(4,6)"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "12"


def test_env_var_catalog(capsys, tmp_path, monkeypatch):
    cat = tmp_path / "cat"
    run_cli(capsys, "catalog-build", "--out", str(cat), "--max-order", "8")
    monkeypatch.setenv("FORMATIO_CATALOG", str(cat))
    # Z2xZ2 is not a builder token, so this must go through the catalog
    code, out, _ = run_cli(capsys, "check", "Z2xZ2", "nilpotent")
    assert code == 0
    assert "IS" in out
    monkeypatch.delenv("FORMATIO_CATALOG")
    code, _, err = run_cli(capsys, "check", "Z2xZ2", "nilpotent")
    assert code == 1


@pytest.mark.parametrize("mode", ["regularity", "saturation", "formation-laws",
                                  "vstar-idempotence"])
def test_serial_sweep_keeps_budget(capsys, tmp_path, monkeypatch, mode):
    from formatio import classes

    cat = tmp_path / "cat"
    run_cli(capsys, "catalog-build", "--out", str(cat), "--max-order", "8")
    argv = ("sweep", "--spec", "vU", "--mode", mode, "--catalog", str(cat))
    if mode not in ("regularity", "saturation"):
        code, out, err = run_cli(capsys, "--budget-subgroups", "3", *argv)
        assert (code, out) == (1, "")
        assert "more than 3 subgroups" in err
        return
    # every group of order at most 8 is in vU, and a member row enumerates
    # only what its verdict does, so even the least budget does not stop it
    monkeypatch.setattr(classes, "_MEMBER_CACHE", {})
    assert run_cli(capsys, "--budget-subgroups", "1", *argv) == run_cli(capsys, *argv)
    # a smaller budget stops a sweep on a group with more subgroups than the
    # budget, never on a later group than a larger budget did
    from formatio.constructions import read_catalog
    from formatio.structure import all_subgroups

    run_cli(capsys, "catalog-build", "--out", str(cat), "--max-order", "12", "--force")
    counts = {e.group.name: len(all_subgroups(e.group)) for e in read_catalog(cat)}
    names = list(counts)
    for spec in ("vstar(U)", "vstar(N)"):
        argv = ("sweep", "--spec", spec, "--mode", mode, "--catalog", str(cat))
        unbounded = run_cli(capsys, *argv)
        named = len(names)  # the position of the group the last error named
        for budget in range(max(counts.values()) + 1, 0, -1):
            monkeypatch.setattr(classes, "_MEMBER_CACHE", {})  # as in a fresh process
            got = run_cli(capsys, "--budget-subgroups", str(budget), *argv)
            if got == unbounded:
                assert named == len(names), (spec, budget)
                continue
            code, out, err = got
            error = re.fullmatch(rf"error: (.+) has more than {budget} subgroups; "
                                 r"raise the budget\n", err)
            assert (code, out) == (1, "") and error, (spec, budget, err)
            assert counts[error[1]] > budget and names.index(error[1]) <= named, \
                (spec, budget, err)
            named = names.index(error[1])
        assert named < len(names), spec  # the least budget stops the sweep


def test_limit_overrides_last_one_command(capsys):
    from formatio.constructions import symmetric
    from formatio.groups import _trusted_group
    from formatio.structure import all_subgroups

    code, out, _ = run_cli(capsys, "--budget-subgroups", "7", "sn", "1")
    assert (code, out.strip()) == (0, "1")
    fresh = _trusted_group(symmetric(4).table, "S4-copy")
    assert len(all_subgroups(fresh)) == 30


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    return info.value.code, capsys.readouterr().err


def test_limit_flags_below_one_are_usage_errors(capsys):
    for value in ("0", "-5"):
        for argv in ((f"--budget-subgroups={value}", "sn", "1"),
                     (f"--horizon-primes={value}", "sn", "1"),
                     ("sweep", "--spec", "N", f"--workers={value}"),
                     ("sweep", "--spec", "N", f"--max-order={value}"),
                     ("catalog-build", f"--max-order={value}")):
            code, err = usage_error(capsys, *argv)
            assert code == 1, argv
            assert ">= 1" in err


@pytest.mark.parametrize("value", ["٣", "３", "³", "+3", "1_0"])
def test_limit_flags_take_ascii_digits_only(capsys, value):
    for flag, argv in (("--budget-subgroups", ("--budget-subgroups", value, "sn", "1")),
                       ("--max-order", ("sweep", "--spec", "N", "--max-order", value))):
        code, err = usage_error(capsys, *argv)
        assert code == 1, argv
        assert err.endswith(f"error: argument {flag}: expected an integer >= 1, got {value!r}\n")


@pytest.mark.parametrize("argv, err", [
    (("check", "Z1", "p_groups:1_1"), "expected a prime in 'p_groups:1_1'"),
    (("check", "Z1", "p_groups:+3"), "expected a prime in 'p_groups:+3'"),
    (("check", "Z1", "p_groups:٣"), "expected a prime in 'p_groups:٣'"),
    (("check", "Z1", "S(２^inf)"), "expected a prime in '２^inf'"),
    (("check", "Z1", "S(1_000)"), "bad supernatural literal '1_000'"),
    (("check", "Z1", "reg(+3->3^inf)"), "expected a prime in '+3->3^inf'"),
    (("sn", "2^1_0"), "bad exponent '1_0' in '2^1_0'"),
    (("sn", "+3"), "bad supernatural literal '+3'"),
    (("check", "E(٤|٣)", "N"), "cannot resolve group 'E(٤|٣)'; give a builder name "
     "(S3, A4, Z12, D6, Q8, E(4|3), ...), a .json file, or a catalog name with --catalog"),
    (("check", "Z٣", "N"), "cannot resolve group 'Z٣'; give a builder name "
     "(S3, A4, Z12, D6, Q8, E(4|3), ...), a .json file, or a catalog name with --catalog"),
])
def test_numeric_literals_take_ascii_digits_only(capsys, monkeypatch, argv, err):
    monkeypatch.delenv("FORMATIO_CATALOG", raising=False)
    assert run_cli(capsys, *argv) == (1, "", f"error: {err}\n")


def test_argparse_usage_error_exits_1(capsys):
    code, err = usage_error(capsys, "check", "S3")
    assert code == 1
    assert "usage" in err


def test_deeply_nested_spec_is_a_syntax_error(capsys):
    spec = "vstar(" * 2000 + "N" + ")" * 2000
    code, _, err = run_cli(capsys, "check", "S3", spec)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nested deeper than" in err


def test_oversized_builder_groups_are_refused_before_their_table(capsys):
    import time

    for token, order in (("Z100000", 100000), ("D300", 600), ("E(1|601)", 601)):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "check", token, "abelian")
        assert time.perf_counter() - start < 0.5, token
        assert (code, err) == (1, f"error: order {order} exceeds cap 512\n"), token
    # past Python's int-string limit, or too large for is_prime's trial
    # division and multiplicative_order's search
    for token in ("Z" + "7" * 5000, "D" + "7" * 5000,
                  "E(3|1000000000000000000000000000057)",
                  "E(100000000000000000000000000000001|2)"):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "check", token, "U")
        assert time.perf_counter() - start < 0.5, token[:40]
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, token[:40]


def test_unbalanced_sn_expression_names_the_parenthesis(capsys):
    code, _, err = run_cli(capsys, "sn", "lcm(2^inf,3")
    assert code == 1
    assert err == "error: unbalanced parenthesis in 'lcm(2^inf,3'\n"


def _fresh_process_env():
    """Environment for a child interpreter that imports this checkout's formatio."""
    import os
    from pathlib import Path

    import formatio

    src = str(Path(formatio.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=src)


def test_cli_import_leaves_numpy_out():
    # numpy, dataclasses with the inspect/ast machinery it imports, and
    # hashlib, which loads OpenSSL, cost every formatio process more
    # start-up time than a typical check takes
    heavy = ("numpy", "dataclasses", "inspect", "ast", "hashlib", "_hashlib")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, formatio.cli; print([m for m in {heavy!r} if m in sys.modules])"],
        capture_output=True, text=True, env=_fresh_process_env())
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr


def test_check_leaves_openssl_out(tmp_path):
    from formatio.constructions import symmetric
    from formatio.groups import group_to_json

    table = tmp_path / "t.json"
    table.write_text(group_to_json(symmetric(4)), encoding="utf-8")
    code = ("import sys\nfrom formatio.cli import main\n"
            f"code = main(['check', {str(table)!r}, 'vU'])\n"
            "print(code, [m for m in ('hashlib', '_hashlib') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_fresh_process_env())
    assert proc.stdout.splitlines()[-1] == "0 []", proc.stderr


def test_catalog_name_reads_only_its_own_table(capsys, tmp_path):
    cat = tmp_path / "cat"
    run_cli(capsys, "catalog-build", "--out", str(cat), "--max-order", "8")
    manifest_path = cat / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    files = {row["name"]: cat / row["file"] for row in manifest}

    def corrupt(name):
        payload = json.loads(files[name].read_text(encoding="utf-8"))
        payload["table"][1][1] = 1
        files[name].write_text(json.dumps(payload), encoding="utf-8")

    corrupt("Q8")
    code, out, _ = run_cli(capsys, "check", "Z2xZ2", "nilpotent", "--catalog", str(cat))
    assert (code, "IS" in out) == (0, True)
    code, _, _ = run_cli(capsys, "graph", "Z2xZ2", "A", "--catalog", str(cat),
                         "--format", "json")
    assert code == 0
    # a sweep still validates every table, and names the one that fails
    code, _, err = run_cli(capsys, "sweep", "--spec", "vU", "--catalog", str(cat))
    assert (code, err) == (1, "error: catalog group Q8 (groups/0008_Q8.json): "
                              "element 1 has no two-sided inverse\n")
    # the named table is validated, and so is its manifest order
    corrupt("Z4xZ2")
    code, _, err = run_cli(capsys, "check", "Z4xZ2", "abelian", "--catalog", str(cat))
    assert (code, err) == (1, "error: catalog group Z4xZ2 (groups/0008_Z4xZ2.json): "
                              "element 1 has no two-sided inverse\n")
    for row in manifest:
        if row["name"] == "Z2xZ2":
            row["order"] = 8
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    code, _, err = run_cli(capsys, "check", "Z2xZ2", "abelian", "--catalog", str(cat))
    assert (code, err) == (1, "error: manifest order mismatch for Z2xZ2\n")


def check_bad_group_file(capsys, tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(bad), "abelian")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_group_file_that_is_not_json(capsys, tmp_path):
    assert "not JSON" in check_bad_group_file(capsys, tmp_path, "not json")


def test_group_file_without_a_table(capsys, tmp_path):
    err = check_bad_group_file(capsys, tmp_path, '{"name": "x", "order": 1}')
    assert err == "error: group file lacks table\n"


def test_group_file_holding_a_list(capsys, tmp_path):
    err = check_bad_group_file(capsys, tmp_path, "[1, 2]")
    assert err == "error: group file must hold a JSON object\n"


@pytest.mark.parametrize("data, message", [
    (b"\xff\xfe{}", "group file is not UTF-8 text"),
    (b"[" * 100_000, "group file nests JSON too deeply"),
    (b'{"name": "x", "order": true, "table": [[0]]}', "group order must be an integer"),
    (b'{"name": ["x"], "order": 1, "table": [[0]]}', "group name must be a string"),
])
def test_malformed_group_file_is_one_error_line(capsys, tmp_path, data, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    code, out, err = run_cli(capsys, "check", str(bad), "N")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def _broken_catalog(tmp_path, manifest=None, group=None):
    """A catalog of Z1 and Z2 with its manifest text or Z1's file replaced."""
    cat = tmp_path / "cat"
    assert main(["catalog-build", "--out", str(cat), "--max-order", "2"]) == 0
    if manifest is not None:
        (cat / "manifest.json").write_bytes(manifest)
    if group is not None:
        (cat / "groups" / "0001_Z1.json").write_bytes(group)
    return cat


@pytest.mark.parametrize("manifest, group, message", [
    (b"{not json", None, "manifest is not JSON: Expecting property name enclosed "
                         "in double quotes: line 1 column 2 (char 1)"),
    (b'[{"name": "Z1", "order": 1, "tags": [], "provenance": "x"}]', None,
     "manifest row 0 needs a file path, a string name and provenance, an integer "
     "order and a list of string tags"),
    (b'{"file": "groups/0001_Z1.json"}', None, "manifest must hold a JSON list"),
    (None, b"\xff", "group file is not UTF-8 text"),
    (None, b"[" * 100_000, "group file nests JSON too deeply"),
])
def test_malformed_catalog_is_one_error_line(capsys, tmp_path, manifest, group, message):
    cat = _broken_catalog(tmp_path, manifest, group)
    capsys.readouterr()
    # read through the catalog, a bad group file is named by its manifest row
    named = message if group is None else f"catalog group Z1 (groups/0001_Z1.json): {message}"
    for argv, expected in (
            (["sweep", "--catalog", str(cat), "--spec", "N", "--mode", "saturation"], named),
            (["check", "nosuch", "N", "--catalog", str(cat)] if group is None else
             ["check", str(cat / "groups" / "0001_Z1.json"), "N"], message)):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {expected}\n"), argv
    # catalog-build refuses to overwrite it, with the same reason
    code, out, err = run_cli(capsys, "catalog-build", "--out", str(cat), "--max-order", "2")
    assert (code, out, err) == (
        1, "", f"error: existing catalog at {cat} is unreadable ({named}); use --force\n")


@pytest.mark.parametrize("argv, err", [
    (["sn", "1 0"], "bad supernatural literal '1 0'"),
    (["sn", "2 ^ 1 0"], "bad exponent '1 0' in '2 ^ 1 0'"),
    (["sn", "2^in f"], "bad exponent 'in f' in '2^in f'"),
    (["sn", "f ull"], "bad supernatural literal 'f ull'"),
    (["sn", "2;def ault=inf"], "bad supernatural suffix 'def ault=inf'"),
    (["check", "Z1", "S(2 3)"], "bad supernatural literal '2 3'"),
    (["check", "Z1", "reg(2 3->2^inf)"], "expected a prime in '2 3->2^inf'"),
])
def test_space_inside_a_number_or_word_is_a_syntax_error(capsys, argv, err):
    assert run_cli(capsys, *argv) == (1, "", f"error: {err}\n")


@pytest.mark.parametrize("expr, value", [
    ("2 ^ 3 * 3", "24"), (" 2^inf * 3 ; default = 0 ", "2^inf*3"),
    ("lcm( 2 ^ 2 , 3 )", "12"),
])
def test_space_around_an_operator_is_allowed(capsys, expr, value):
    assert run_cli(capsys, "sn", expr) == (0, f"{value}\n", "")


@pytest.mark.parametrize("spec", ["reg(2->2^inf,default->1)", "reg(default->1)"])
def test_reg_entry_equal_to_the_unlisted_value_is_dropped(capsys, spec):
    code, out, _ = run_cli(capsys, "check", "Z1", spec)
    assert (code, out) == (0, "Z1 (order 1) IS in reg(default->1)\n")


@pytest.mark.parametrize("table", ["5", '[["a"]]', "[5]", "[[0, 1], [1, 0.5]]"])
def test_group_file_with_a_malformed_table(capsys, tmp_path, table):
    text = f'{{"name": "x", "order": 2, "table": {table}}}'
    err = check_bad_group_file(capsys, tmp_path, text)
    assert err == "error: group table must be a list of rows of integers\n"


@pytest.mark.parametrize("argv", [
    ("check", "S4", "bounded(S;0)"),
    ("check", "S4", "S(0)"),
    ("sn", "decode(0)"),
])
def test_supernatural_zero_is_a_syntax_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err == "error: supernatural literal '0' is below 1\n"


def test_local_with_a_repeated_prime_is_a_syntax_error(capsys):
    code, _, err = run_cli(capsys, "check", "S4", "local(2->N,2->U,default->S)")
    assert code == 1
    assert err == "error: prime 2 repeated in 'local(2->N,2->U,default->S)'\n"


@pytest.mark.parametrize("argv, err", [
    (("check", "S4", "local(default->N,default->S)"),
     "error: default repeated in 'local(default->N,default->S)'\n"),
    (("check", "S4", "reg(default->1,default->full)"),
     "error: default repeated in exponent function\n"),
    (("sn", "encode(2->2^inf,default->1,default->full)"),
     "error: default repeated in exponent function\n"),
])
def test_repeated_default_is_a_syntax_error(capsys, argv, err):
    assert run_cli(capsys, *argv) == (1, "", err)


@pytest.mark.parametrize("argv, err", [
    # factoring this literal by trial division would run for hours
    (("check", "S4", "S(99999999999999999999999)"),
     "error: integer literal '99999999999999999999999' is not a product of primes "
     "below 10^6 and at most one prime below 10^12\n"),
    # computing these numbers to print them would not finish
    (("sn", "99999999977^99999999999"),
     "error: natural number with more than 4300 decimal digits\n"),
    (("sn", "2^99999999999"),
     "error: natural number with more than 4300 decimal digits\n"),
    # these are past CPython's limit on converting an int to a string
    (("sn", "2^999999"),
     "error: natural number with more than 4300 decimal digits\n"),
    (("check", "S4", "bounded(S;2^999999)"),
     "error: natural number with more than 4300 decimal digits\n"),
])
def test_oversized_numeric_literal_exits_1_promptly(argv, err):
    # a child process, so that a hang fails the test instead of stalling the suite
    proc = subprocess.run([sys.executable, "-m", "formatio.cli", *argv],
                          capture_output=True, text=True, timeout=10,
                          env=_fresh_process_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", err)


def test_decode_of_the_ten_thousandth_prime_finishes_promptly():
    # 104729 is the 10,000th prime, and pair_components(10000) == (60, 83):
    # the 60th and 83rd primes are 281 and 431
    proc = subprocess.run([sys.executable, "-m", "formatio.cli", "sn", "decode(104729)"],
                          capture_output=True, text=True, timeout=10,
                          env=_fresh_process_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "281->281^inf*431,default->1\n", "")


@pytest.mark.parametrize("expr, code, out, err", [
    # 1299709 is the 100,000th prime: finding its position sieves up to it
    ("decode(1299709)", 0, "503->503^inf*2381,default->1\n", ""),
    ("decode(15485863)", 1, "",
     "error: decode lists the prime 15485863, above the bound 10000000\n"),
    ("decode(999999999989)", 1, "",
     "error: decode lists the prime 999999999989, above the bound 10000000\n"),
])
def test_decode_of_a_large_prime_ends_within_a_second(expr, code, out, err):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "formatio.cli", "sn", expr],
                          capture_output=True, text=True, timeout=10,
                          env=_fresh_process_env())
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_complement_of_an_incomplete_number_is_an_error(capsys):
    assert run_cli(capsys, "sn", "complement(2)") == (1, "", "error: 2 is not complete\n")


@pytest.mark.parametrize("expr, head, operand", [
    ("lcm(decode(6),2)", "lcm", "decode(6)"),
    ("divides(decode(6),decode(6))", "divides", "decode(6)"),
    ("decode(decode(6))", "decode", "decode(6)"),
    ("complement(decode(full))", "complement", "decode(full)"),
    ("decode(divides(2,6))", "decode", "divides(2,6)"),
    ("lcm(divides(2,6),2)", "lcm", "divides(2,6)"),
    ("complement(divides(2,6))", "complement", "divides(2,6)"),
])
def test_sn_operand_that_is_not_a_supernatural_number(capsys, expr, head, operand):
    assert run_cli(capsys, "sn", expr) == (
        1, "", f"error: {head} takes supernatural numbers, got {operand!r}\n")


@pytest.mark.parametrize("argv, value", [
    ((), "7"),
    (("--horizon-primes", "3"), "1"),
    (("--horizon-primes", "4"), "7"),
])
def test_horizon_primes_reaches_encode(capsys, argv, value):
    # the 2-adic value of f(5), 1, sits at position 4 of the pairing: the prime 7
    assert run_cli(capsys, *argv, "sn", "encode(5->5^inf*2,default->1)") == (0, f"{value}\n", "")


@pytest.mark.parametrize("command", ["check", "graph", "sweep"])
def test_vstar_of_a_non_hereditary_spec_is_an_error(capsys, tmp_path, command):
    spec = "vstar(prod(A,N))"
    if command == "sweep":
        cat = tmp_path / "cat"
        run_cli(capsys, "catalog-build", "--out", str(cat), "--max-order", "4")
        argv = ("sweep", "--spec", spec, "--catalog", str(cat))
    else:
        argv = (command, "S4", spec)
    assert run_cli(capsys, *argv) == (
        1, "", "error: vstar needs a hereditary-flagged spec, got prod(abelian,nilpotent)\n")


@pytest.mark.parametrize("group", ["S4", "S3"])
def test_vstar_refuses_a_non_hereditary_formation_before_judging_it(capsys, group):
    # prod(N,A) is flagged formation and S3 lies in it, so the refusal must
    # come before the vstar(F) >= F shortcut
    assert run_cli(capsys, "check", group, "vstar(prod(N,A))") == (
        1, "", "error: vstar needs a hereditary-flagged spec, got prod(nilpotent,abelian)\n")


@pytest.mark.parametrize("argv, err", [
    (("check", "S4", "sylow_tower:"), "expected a prime in 'sylow_tower:'"),
    (("check", "S4", "S_pi:{2,,3}"), "expected a prime in 'S_pi:{2,,3}'"),
    (("check", "S4", "cap(A,,N)"), "empty item in the list 'A,,N'"),
    (("check", "S4", "reg(2->2^inf,,default->1)"),
     "empty entry in exponent function '2->2^inf,,default->1'"),
    (("sn", "gcd(2,3,)"), "empty item in the list '2,3,'"),
])
def test_empty_list_item_is_a_syntax_error(capsys, argv, err):
    assert run_cli(capsys, *argv) == (1, "", f"error: {err}\n")


class _LyingVU(VSupersolubleClass):
    """Claims the theorem-backed vU shape but answers like the trivial class,
    so every non-trivial soluble group has unequal sets."""

    def text(self):
        return "lying-vU"

    def _member(self, G):
        return G.order == 1


def test_sweep_regularity_violation_exits_2(capsys, monkeypatch):
    monkeypatch.delenv("FORMATIO_CATALOG", raising=False)
    monkeypatch.setattr("formatio.cli.parse_spec", lambda text: _LyingVU())
    argv = ("sweep", "--spec", "lying-vU", "--mode", "regularity", "--max-order", "8")
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 2
    payload = json.loads(out)
    bad = [r["group"] for r in payload["violations"]]
    assert bad and payload["theorem_backed"]
    assert err == ("THEOREM VIOLATION: regular spec lying-vU has unequal sets on: "
                   + ", ".join(bad) + "\n")
    # the text report goes to stdout with the same one stderr line
    code, text, text_err = run_cli(capsys, *argv)
    assert (code, text_err) == (2, err)
    lines = text.splitlines()
    assert lines[0] == "spec lying-vU (theorem-backed)"
    assert len(lines) == payload["groups"] + 2
    assert lines[-1] == f"{payload['equal']}/{payload['groups']} equal"
    for row in payload["rows"]:
        status = "equal" if row["equal"] else f"DIFFER at {row['witness']}"
        assert f"  {row['group']:<16} order {row['order']:<4} {status}" in lines


def test_check_json_details_for_vu_prod_and_reg(capsys):
    from formatio.constructions import alternating, symmetric
    from formatio.groups import derived_subgroup
    from formatio.subnormality import vu_obstruction

    def detail(group, spec):
        code, out, _ = run_cli(capsys, "check", group, spec, "--format", "json")
        payload = json.loads(out)
        assert (code, payload["member"]) == (0, False)
        return payload["detail"]

    stuck = detail("A4", "vU")["stuck_cyclic_subgroup"]
    assert stuck == list(vu_obstruction(alternating(4)).elems) and len(stuck) == 3
    # the abelian residual of S4 is its derived subgroup A4
    S4 = symmetric(4)
    residual = detail("S4", "prod(N,A)")["residual"]
    assert residual == list(derived_subgroup(S4, tuple(range(24)))) and len(residual) == 12
    assert detail("A5", "reg(2->2^inf,default->full)") == {"reason": "not soluble"}


def test_default_catalog_under_max_order_matches_a_written_catalog(capsys, tmp_path,
                                                                  monkeypatch):
    monkeypatch.delenv("FORMATIO_CATALOG", raising=False)
    cat = tmp_path / "cat"
    run_cli(capsys, "catalog-build", "--out", str(cat), "--max-order", "12")
    for mode, spec in [("regularity", "vU"), ("saturation", "N")]:
        argv = ("sweep", "--spec", spec, "--mode", mode, "--format", "json")
        in_memory = run_cli(capsys, *argv, "--max-order", "12")
        assert in_memory[0] == 0 and json.loads(in_memory[1])
        assert run_cli(capsys, *argv, "--catalog", str(cat)) == in_memory


@pytest.mark.parametrize("argv", [
    ("check", "S3", "N"),
    ("check", "S3", "N", "--format", "json"),
    ("sweep", "--spec", "N", "--max-order", "6"),
    ("sweep", "--spec", "N", "--mode", "saturation", "--max-order", "6"),
    ("graph", "S3", "N"),
    ("graph", "S3", "N", "--format", "json"),
])
def test_out_file_holds_what_stdout_would(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.delenv("FORMATIO_CATALOG", raising=False)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out
    path = tmp_path / "out.txt"
    assert run_cli(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert path.read_text(encoding="utf-8") == out

