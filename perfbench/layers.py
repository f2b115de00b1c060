"""Traced run: per-layer times and counts from staged calls into formatio.

The benchmark's own code calls formatio's public functions bottom-up on the
workload's generated groups, so that layers memoised on a group are warm when
a higher stage runs and each span approximates its layer's self time:

  1. read_catalog / group_from_json               (constructions, groups)
  2. generated_subgroup, normal_closure, isomorphism
  3. all_subgroups, frattini, normal_subgroups, chief_series, quotient
  4. parse_spec, is_member for each spec kind, residual
  5. cyclic_primary_subgroups, k_subnormal_chain, prime_index_chain
  6. isolated_set, maximal_intersection, non_class_graph
  7. the supernatural calls
  8. build_catalog, write_catalog

A span that still calls into a lower layer that was not warmed is marked
inclusive.  Spans (name, start, end, parent, run id) stay in memory and are
written out at the end.  Counts are recorded at the same call sites.

The stages run twice, each in a fresh process: once untraced (counts only)
and once traced.  The counts must agree exactly; the difference of the two
stage times is `trace.overhead_s`.  `cli.import_s` and `cli.pool_speedup` come
from fresh `formatio` processes.

Run as a script, this file is the staged process:

    python3 perfbench/layers.py --workload W --seed N --traced 0|1 --out F
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

MEMBER_KINDS = {
    "abelian": "abelian", "nilpotent": "nilpotent", "soluble": "soluble",
    "supersoluble": "supersoluble", "p_nilpotent": "p_nilpotent:2",
    "sylow_tower": "sylow_tower:2>3>5", "bounded": "bounded(N;2^inf*3)",
    "prod": "prod(N,A)", "cap": "cap(p_nilpotent:2,S)",
    "local": "local(2->N,default->A)", "reg": "reg(default->1)",
    "vstar": "vstar(N)", "vU": "vU",
}
SUPERNATURALS = ("1", "full", "360", "2^inf*3", "2^5*5;default=inf",
                 "3^2*7^inf", "2^inf;default=0", "5*11*13^4")
EXPONENT_FUNCTIONS = ("default->1", "2->2^inf,default->full",
                      "3->3^inf*2,default->1", "2->2^inf*3,5->5^inf,default->7")
PARSE_REPEATS = 20
STAGED_TIMEOUT_S = 150


class Tracer:
    """Spans and counts for one staged process; spans only when enabled."""

    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[list] = []     # name, start, end, parent, inclusive
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    @contextmanager
    def span(self, name: str, inclusive: bool = False):
        if not self.enabled:
            yield
            return
        record = [name, time.perf_counter(), None,
                  self.stack[-1] if self.stack else None, inclusive]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def call(self, name: str, fn, *args, inclusive: bool = False):
        if not self.enabled:
            return fn(*args)
        with self.span(name, inclusive):
            return fn(*args)

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
        return out

    def write_spans(self, path: Path) -> None:
        with path.open("w") as f:
            for i, (name, start, end, parent, inclusive) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "run": self.run_id,
                                    "inclusive": inclusive}) + "\n")


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def stages(tr: Tracer, ck: Checker, workload, seed: int, golden: dict) -> None:
    from formatio import (CatalogConfig, all_subgroups, build_catalog,
                          build_group, chief_series, cyclic_primary_subgroups,
                          decode_supernatural, encode_function, frattini, gcd,
                          generated_subgroup, group_from_json, is_member,
                          isolated_set, isomorphism, k_subnormal_chain, lcm,
                          maximal_intersection, non_class_graph, normal_closure,
                          normal_subgroups, parse_exponent_function,
                          parse_spec, parse_supernatural, prime_index_chain,
                          quotient, read_catalog, residual, write_catalog)
    from formatio.classes import NILPOTENT, SOLUBLE
    import checks
    import inputs

    paths = [p for cat in workload.catalogs for p in sorted(Path(cat).glob("groups/*.json"))]
    paths += sorted(Path("t").glob("*.json"))
    tables = [p.read_text(encoding="utf-8") for p in paths]

    with tr.span("stage.1.load"):
        groups = {}
        for cat in workload.catalogs:
            entries = tr.call("constructions.catalog_read", read_catalog, cat,
                              inclusive=True)
            for e in entries:
                groups.setdefault(e.group.name, e.group)
        for text in tables:
            tr.call("groups.validate", group_from_json, text)
            tr.count("groups.validate_calls")
    order = sorted(groups.values(), key=lambda G: (G.order, G.name))
    # untimed: a second relabelling of every group, for the isomorphism calls
    twins = {}
    for G in order:
        perm = inputs.permutation(seed + 7919, G.name, G.order)
        twins[G.name] = build_group(inputs.relabel(G.table, perm), G.name)

    with tr.span("stage.2.groups"):
        for G in order:
            n = G.order
            step = max(1, n // 4)
            for x in range(n):
                H = tr.call("groups.closure", generated_subgroup, G, (x,))
                tr.count("groups.closure_calls")
                tr.count("groups.closure_elems", H.order)
                for y in range(0, n, step):
                    H = tr.call("groups.closure", generated_subgroup, G, (x, y))
                    tr.count("groups.closure_calls")
                    tr.count("groups.closure_elems", H.order)
                tr.call("groups.normal_closure", normal_closure, G, (x,))
                tr.count("groups.normal_closure_calls")
            iso = tr.call("groups.iso", isomorphism, G, twins[G.name])
            tr.count("groups.iso_calls")
            ck.expect(iso is not None, f"no isomorphism found for {G.name}")

    with tr.span("stage.3.structure"):
        for G in order:
            lattice = tr.call("structure.lattice", all_subgroups, G)
            tr.count("structure.lattice_subgroups", len(lattice))
            tr.call("structure.frattini", frattini, G)
            normals = tr.call("structure.normals", normal_subgroups, G)
            tr.count("structure.normals_count", len(normals))
            series = tr.call("structure.chief", chief_series, G)
            tr.count("structure.chief_length", len(series.factor_orders))
            ck.expect(all(N.elems in {M.elems for M in normals}
                          for N in series.chain), f"chief series of {G.name}")
            for N in normals:
                tr.call("groups.quotient", quotient, G, N)
                tr.count("groups.quotient_calls")

    with tr.span("stage.4.classes"):
        texts = list(MEMBER_KINDS.values()) + sorted(
            {c.args[c.args.index("--spec") + 1] if c.args[0] == "sweep" else c.args[2]
             for c in workload.commands if c.args[0] in ("sweep", "check", "graph")})
        for _ in range(PARSE_REPEATS):
            for text in texts:
                tr.call("classes.parse", parse_spec, text)
        specs = {kind: parse_spec(text) for kind, text in MEMBER_KINDS.items()}
        for kind, spec in specs.items():
            for G in order:
                tr.call(f"classes.member.{kind}", is_member, G, spec, inclusive=True)
                tr.count(f"classes.member_calls.{kind}")
        for G in order:
            tr.call("classes.residual", residual, G, specs["reg"])

    with tr.span("stage.5.subnormality"):
        for G in order:
            primaries = tr.call("subnormality.cyclic_primary",
                                cyclic_primary_subgroups, G)
            tr.count("subnormality.cyclic_primary_count", len(primaries))
            for P in primaries:
                chain = tr.call("subnormality.chain", k_subnormal_chain, G, P,
                                NILPOTENT)
                tr.count("subnormality.chain_attempts")
                if chain is not None:
                    tr.count("subnormality.chain_found")
                    ck.expect(chain.verify(NILPOTENT), f"chain witness on {G.name}")
                chain = tr.call("subnormality.prime_chain", prime_index_chain, G, P)
                tr.count("subnormality.prime_chain_attempts")
                if chain is not None:
                    tr.count("subnormality.prime_chain_found")
                    ck.expect(chain.verify(), f"prime chain witness on {G.name}")

    with tr.span("stage.6.regularity"):
        vu = specs["vU"]
        for G in order:
            iso_set = tr.call("regularity.isolated", isolated_set, G, vu,
                              inclusive=True)
            int_set = tr.call("regularity.maxint", maximal_intersection, G, vu,
                              inclusive=True)
            graph = tr.call("regularity.graph", non_class_graph, G, vu,
                            inclusive=True)
            tr.count("regularity.rows")
            tr.count("regularity.equal_rows", int(iso_set == int_set))
            ck.expect(graph.isolated == iso_set, f"graph isolated set on {G.name}")
            if is_member(G, SOLUBLE):
                ck.expect(iso_set == int_set, f"vU regularity on {G.name}")

    with tr.span("stage.7.supernatural"):
        for _ in range(PARSE_REPEATS):
            values = [tr.call("supernatural.parse", parse_supernatural, s)
                      for s in SUPERNATURALS]
            fns = [tr.call("supernatural.parse", parse_exponent_function, s)
                   for s in EXPONENT_FUNCTIONS]
            for a in values:
                for b in values:
                    joined = tr.call("supernatural.lattice", lcm, a, b)
                    met = tr.call("supernatural.lattice", gcd, a, b)
                    ck.expect(gcd(joined, a) == a and lcm(met, a) == a,
                              "supernatural absorption law")
            for f in fns:
                code = tr.call("supernatural.encode", encode_function, f)
                tr.call("supernatural.decode", decode_supernatural, code)

    with tr.span("stage.8.constructions"):
        entries = tr.call("constructions.catalog_build", build_catalog,
                          CatalogConfig(max_order=workload.build_max_order),
                          inclusive=True)
        out = Path("trace-built")
        tr.call("constructions.catalog_write", write_catalog, entries, out)
        build_key = workload.commands[0].key
        ck.expect(checks.tree_digest(out) ==
                  golden["commands"][workload.name][build_key]["built"],
                  "write_catalog bytes differ from the golden catalog")


def staged_main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    import inputs

    golden = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())
    workload = inputs.WORKLOADS[args.workload]
    tr = Tracer(bool(args.traced), f"{workload.name}-seed{args.seed}")
    ck = Checker()
    start = time.perf_counter()
    try:
        stages(tr, ck, workload, args.seed, golden)
    except Exception as exc:  # a broken program: report it, keep what was measured
        ck.failures.append(f"staged calls raised {exc!r}")
    total = time.perf_counter() - start
    if tr.enabled:
        tr.write_spans(Path(args.out).with_suffix(".spans.jsonl"))
    Path(args.out).write_text(json.dumps({
        "total_s": total, "self_s": tr.self_times(), "counts": tr.counts,
        "attempted": ck.attempted, "failures": ck.failures}))
    return 0


# ---------------------------------------------------------------------------
# Run side, called from run.py


def _import_seconds(env: dict, samples: int = 5) -> float:
    code = ("import time\nt = time.perf_counter()\nimport formatio.cli\n"
            "print(time.perf_counter() - t)\n")
    times = []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout))
    return statistics.median(times)


def _staged(workload, seed: int, traced: int, env: dict) -> dict:
    out = Path(f"stage-{traced}.json")
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--workload", workload.name, "--seed", str(seed),
                           "--traced", str(traced), "--out", str(out)],
                          env=env, timeout=STAGED_TIMEOUT_S)
    if done.returncode != 0:
        return {"total_s": 0.0, "self_s": {}, "counts": {}, "attempted": 1,
                "failures": [f"staged process exited {done.returncode}"]}
    return json.loads(out.read_text())


def traced_run(workload, seed: int, commands, spawner):
    """Per-layer values, attempted, failures and details for one workload."""
    from inputs import POOL

    failures = []
    pool = next(c for c in commands if c.kind == POOL)
    serial_args = pool.args[:pool.args.index("--workers")] + pool.args[
        pool.args.index("--workers") + 2:]
    spawner.run(("sn", "1"))
    serial = spawner.run(serial_args)
    pooled = spawner.run(pool.args)
    if serial.stdout != pooled.stdout or serial.exit_code or pooled.exit_code:
        failures.append("serial and pool regularity sweeps disagree")
    values = {"cli.import_s": _import_seconds(spawner.env),
              "cli.pool_speedup": serial.seconds / pooled.seconds}

    untraced = _staged(workload, seed, 0, spawner.env)
    traced = _staged(workload, seed, 1, spawner.env)
    failures += untraced["failures"] + traced["failures"]
    if untraced["counts"] != traced["counts"]:
        failures.append("per-layer counts differ between the two staged runs")
    counts = traced["counts"]
    for name, seconds in traced["self_s"].items():
        if name.startswith("classes.member."):
            values["classes.member_s." + name.rsplit(".", 1)[1]] = seconds
        elif not name.startswith("stage."):
            values[name + "_s"] = seconds
    values.update(counts)
    for name in ("chain", "prime_chain"):
        attempts = counts.get(f"subnormality.{name}_attempts", 0)
        found = counts.get(f"subnormality.{name}_found", 0)
        values.setdefault(f"subnormality.{name}_found", found)
        values[f"subnormality.{name}_found_ratio"] = found / attempts if attempts else 0.0
    values["trace.overhead_s"] = traced["total_s"] - untraced["total_s"]
    # the serial/pool agreement and the count agreement are one check each
    attempted = 2 + untraced["attempted"] + traced["attempted"]
    details = {"staged_untraced_s": untraced["total_s"],
               "staged_traced_s": traced["total_s"],
               "spans_file": str(Path("stage-1.spans.jsonl").resolve()),
               "serial_sweep_s": serial.seconds, "pool_sweep_s": pooled.seconds}
    return values, attempted, failures, details


if __name__ == "__main__":
    sys.exit(staged_main())
