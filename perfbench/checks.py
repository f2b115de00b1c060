"""Output checks against golden outputs recorded on the identity relabelling.

A command passes when its exit code matches the golden one and its output is
right:

* catalog-build reads no input, so its stdout and every byte it writes must
  equal the golden bytes on every seed;
* on the identity seed, and for commands that read no relabelled table,
  stdout must be byte-identical to the golden stdout;
* on other seeds the label-invariant content must match: verdicts, row counts
  and row order, element sets mapped back through the permutation, and
  formation-law rows as a multiset per group;
* label-dependent witnesses (a stuck cyclic subgroup, the first element where
  two sets differ, the order of chief-factor orders) are checked for validity
  instead of compared.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digest(root: Path) -> str:
    """Digest of every file under root, by relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(sha256(path.read_bytes()).encode())
    return h.hexdigest()


def canonical(args: tuple[str, ...], stdout: str, back) -> tuple[object, list]:
    """Label-invariant content of one command's output, plus the
    label-dependent witnesses it carries as (kind, group, value) triples.

    `back(group, elems)` maps element indices of the named group back to the
    identity labelling and sorts them.
    """
    head = args[0]
    if head in ("sn", "catalog-build"):
        return stdout, []
    payload = json.loads(stdout)
    witnesses = []
    if head == "graph":
        g = payload["group"]
        return {"group": g, "spec": payload["spec"], "edges": payload["edges"],
                "isolated": back(g, payload["isolated"])}, []
    if head == "check":
        g = payload["group"]
        detail = dict(payload.get("detail", {}))
        if "violating_chief_factor_orders" in detail:
            detail["violating_chief_factor_orders"] = sorted(
                detail["violating_chief_factor_orders"])
        if "residual" in detail:
            detail["residual"] = back(g, detail["residual"])
        if "stuck_cyclic_subgroup" in detail:
            witnesses.append(("stuck", g, back(g, detail["stuck_cyclic_subgroup"])))
            detail["stuck_cyclic_subgroup"] = True
        content = {k: payload[k] for k in ("group", "order", "spec", "member")}
        content["detail"] = detail
        return content, witnesses
    if "theorem_backed" in payload:          # regularity sweep
        rows = []
        for r in payload["rows"]:
            g = r["group"]
            rows.append([g, r["order"], r["soluble"], back(g, r["int"]),
                         back(g, r["iset"]), r["equal"]])
            if r["witness"] is not None:
                witnesses.append(("witness", g, back(g, [r["witness"]])[0]))
        return {"spec": payload["spec"], "theorem_backed": payload["theorem_backed"],
                "groups": payload["groups"], "equal": payload["equal"],
                "violations": [r["group"] for r in payload["violations"]],
                "rows": rows}, witnesses
    if payload["mode"] == "formation-laws":
        rows = sorted([r["group"], r["law"],
                       sorted([r["n1"], r["n2"]]) if "n1" in r else None, r["ok"]]
                      for r in payload["rows"])
        return {"spec": payload["spec"], "mode": payload["mode"], "rows": rows,
                "failures": len(payload["failures"])}, []
    return payload, []


def _valid_witness(kind: str, group: str, value, golden: dict) -> bool:
    if kind == "stuck":
        return value in golden.get("stuck", {}).get(group, [])
    for row in golden["content"]["rows"]:
        if row[0] == group:
            return value in set(row[3]).symmetric_difference(row[4])
    return False


def verify(command, exit_code: int, stdout: bytes, inverses: dict,
           identity: bool, golden: dict,
           built_digest: str | None = None) -> str | None:
    """None when the output is right, else a one-line reason.

    `inverses` maps a group name to its inverse relabelling: old label by
    new label.
    """
    if exit_code != golden["exit"]:
        return f"exit code {exit_code}, expected {golden['exit']}"
    if built_digest is not None and built_digest != golden["built"]:
        return "catalog-build wrote different bytes"
    if sha256(stdout) == golden["sha256"]:
        return None
    if identity or not command.relabelled:
        return "stdout differs from the golden bytes"

    def back(group: str, elems) -> list[int]:
        old_of = inverses[group]
        return sorted(old_of[e] for e in elems)

    try:
        content, witnesses = canonical(command.args, stdout.decode(), back)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    content = json.loads(json.dumps(content))
    if content != golden["content"]:
        return "label-invariant content differs from golden"
    for kind, group, value in witnesses:
        if not _valid_witness(kind, group, value, golden):
            return f"invalid {kind} witness {value} on {group}"
    return None
