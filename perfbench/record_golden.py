"""Record perfbench/golden.json: the reference outputs of every workload.

    python3 perfbench/record_golden.py

Runs each workload's commands once on the identity relabelling (seed 0) and
stores, per command, the exit code, the SHA-256 of its stdout and its
label-invariant content (see checks.py).  For catalog-build it also stores the
digest of the written catalog; for a `check` that reports a stuck cyclic
subgroup it stores every stuck cyclic primary subgroup, so that a relabelled
run may report any of them.  It also stores a digest of every input table, so
a run refuses to start when a builder no longer yields the recorded table.

Record only at a commit whose outputs are known to be right: later runs are
judged against this file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import ROOT, SRC, WORK, COMMAND_TIMEOUT_S


def stuck_subgroups(group_token: str, spec_text: str, catalog: str | None):
    from formatio.classes import VStarClass, VSupersolubleClass, parse_spec
    from formatio.cli import _resolve_group
    from formatio.subnormality import (cyclic_primary_subgroups,
                                       k_subnormal_chain, prime_index_chain)

    G = _resolve_group(group_token, catalog)
    spec = parse_spec(spec_text)
    stuck = []
    for P in cyclic_primary_subgroups(G):
        if isinstance(spec, VStarClass):
            chain = k_subnormal_chain(G, P, spec.inner)
        elif isinstance(spec, VSupersolubleClass):
            chain = prime_index_chain(G, P)
        else:
            raise ValueError(f"no stuck subgroups for {spec_text}")
        if chain is None:
            stuck.append(list(P.elems))
    return G.name, stuck


def record_workload(workload, tables: dict) -> dict:
    import checks
    import inputs
    from spawner import Spawner

    work = WORK / f"golden-{workload.name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    groups, _ = inputs.base_groups(workload)
    for name, (G, _, _) in groups.items():
        tables[name] = inputs.table_digest(G.table)
    inverses, commands = inputs.generate(workload, 0, work, tables)
    os.chdir(work)
    spawner = Spawner(SRC, work, COMMAND_TIMEOUT_S)
    out = {}
    for command in commands:
        if command.key in out:
            continue
        o = spawner.run(command.args)
        text = o.stdout.decode()
        entry = {"exit": o.exit_code, "sha256": checks.sha256(o.stdout)}
        if o.exit_code != 0:
            sys.stderr.write(f"note: {command.key} exited {o.exit_code}: "
                             f"{o.stderr.decode()[-300:]}\n")
        content, witnesses = checks.canonical(
            command.args, text, lambda g, elems: sorted(elems))
        entry["content"] = json.loads(json.dumps(content))
        if command.kind == inputs.BUILD:
            entry["built"] = checks.tree_digest(work / "built")
        if any(kind == "stuck" for kind, _, _ in witnesses):
            catalog = (command.args[command.args.index("--catalog") + 1]
                       if "--catalog" in command.args else None)
            name, stuck = stuck_subgroups(command.args[1], command.args[2], catalog)
            entry["stuck"] = {name: stuck}
        out[command.key] = entry
        print(f"{o.seconds:7.2f}s exit {o.exit_code} {command.key}", flush=True)
    os.chdir(ROOT)
    shutil.rmtree(work)
    return out


def dump(golden: dict) -> str:
    """golden.json text: one line per command, so diffs stay readable."""
    lines = ["{", f' "tables": {json.dumps(golden["tables"], sort_keys=True)},',
             ' "commands": {']
    workloads = sorted(golden["commands"])
    for i, name in enumerate(workloads):
        entries = golden["commands"][name]
        lines.append(f"  {json.dumps(name)}: {{")
        keys = sorted(entries)
        for j, key in enumerate(keys):
            lines.append(f"   {json.dumps(key)}: "
                         f"{json.dumps(entries[key], sort_keys=True)}"
                         + ("," if j < len(keys) - 1 else ""))
        lines.append("  }" + ("," if i < len(workloads) - 1 else ""))
    lines += [" }", "}"]
    return "\n".join(lines) + "\n"


def main() -> int:
    sys.path.insert(0, str(SRC))
    import inputs

    tables: dict = {}
    commands = {name: record_workload(w, tables)
                for name, w in inputs.WORKLOADS.items()}
    golden = {"tables": tables, "commands": commands}
    path = ROOT / "perfbench" / "golden.json"
    path.write_text(dump(golden))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
