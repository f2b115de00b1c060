"""Steadiness report: run one workload repeatedly and summarise each metric.

    python3 perfbench/steady.py --workload large-tier --runs 10 --first-seed 1

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...), each
in its own process, and prints for every metric its median, first and third
quartiles (`statistics.quantiles(values, n=4)`) and spread, the quartile
distance as a share of the median.  For end-to-end metrics it also prints the
bound from BENCHMARK.json and whether the spread stays under a third of it.
The per-run values and the machine description go to
.bench_work/steady-<workload>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import ROOT, WORK


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            sys.stderr.write(done.stderr)
            return 1
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        runs.append({"seed": seed, "record": record, "result": result})
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)

    summary = {}
    print(f"\n{args.workload}, {len(runs)} runs, "
          f"machine {json.dumps(runs[0]['record']['machine'], sort_keys=True)}")
    print(f"{'metric':44} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>8} "
          f"{'bound':>6}  ok")
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        s = summarise(values)
        summary[name] = {**s, "values": values}
        bound = bounds.get(name) if not args.trace else None
        verdict = "" if bound is None else (
            "yes" if s["spread"] < bound / 3 else "NO")
        print(f"{name:44} {s['median']:11.5g} {s['q1']:11.5g} {s['q3']:11.5g} "
              f"{s['spread']:8.4f} {'' if bound is None else bound:>6}  {verdict}")
    out = WORK / f"steady-{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps({"workload": args.workload, "runs": runs,
                               "summary": summary}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
