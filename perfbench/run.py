"""formatio benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload catalog-sweeps --seed 1 --seconds 20 --trace 0

Run from the repository root.  The seed relabels every input table and sets
the command order; seed 0 is the identity relabelling.  With `--trace 0` the
workload's commands run as fresh `formatio` processes, one at a time, in as
many passes as end closest to `--seconds` (at least one), and the end-to-end
metrics are printed.  With `--trace 1` the per-layer metrics come from staged calls into
formatio's public functions instead (see layers.py).

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it describes the run and
the machine.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
COMMAND_TIMEOUT_S = 120.0
PASS_CUTOFF_S = 130.0     # start no further pass once a run has taken this long
MAX_REPORTED_FAILURES = 20


def machine_info() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": _commit()}


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail_percentile(per_pass: int) -> int:
    """Highest whole percentile with at least ten of one pass's samples
    beyond it."""
    return max(0, math.floor(100 * (per_pass - 10) / per_pass))


def percentile(samples: list[float], p: int) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def measure(workload, commands, inverses, identity: bool, golden: dict,
            seconds: int, spawner) -> tuple[dict, int, list[str], dict]:
    """Closed loop over passes of the command list; returns
    (values by metric name, attempted, failure messages, run details)."""
    import checks
    from inputs import BUILD, SHORT, SWEEP_KINDS

    spawner.run(("sn", "1"))    # untimed: compiles bytecode, warms file cache
    expected = golden["commands"][workload.name]
    outcomes, pass_walls, failures = [], [], []
    started = time.monotonic()
    while True:
        pass_start = time.monotonic()
        for command in commands:
            o = spawner.run(command.args)
            outcomes.append((command, o))
            built = (checks.tree_digest(Path("built"))
                     if command.kind == BUILD else None)
            problem = ("timed out" if o.timed_out else
                       checks.verify(command, o.exit_code, o.stdout, inverses,
                                     identity, expected[command.key], built))
            if problem:
                failures.append(f"{command.key}: {problem}")
        pass_walls.append(time.monotonic() - pass_start)
        # stop at the pass count that ends closest to `seconds`
        elapsed = time.monotonic() - started
        if (elapsed + pass_walls[-1] / 2 >= seconds
                or elapsed + pass_walls[-1] > PASS_CUTOFF_S):
            break

    by_key: dict[str, list[float]] = {}
    for c, o in outcomes:
        by_key.setdefault(c.key, []).append(o.seconds)

    def kind_seconds(kind: str) -> float:
        """Median over the copies of the kind's command list of the copy's
        summed time; a command list runs once or more per pass."""
        keys = {c.key for c in commands if c.kind == kind}
        return statistics.median(map(sum, zip(*(by_key[k] for k in keys))))

    short = [o.seconds for c, o in outcomes if c.kind == SHORT]
    p_tail = tail_percentile(len(short) // len(pass_walls))
    attempted = len(outcomes)
    values = {
        "setup_s": statistics.median(o.setup_seconds for _, o in outcomes),
        "wall_s": statistics.median(pass_walls),
        **{f"{kind}_s": kind_seconds(kind) for kind in (BUILD, *SWEEP_KINDS)},
        "check_p50_s": statistics.median(short),
        "check_tail_s": percentile(short, p_tail),
        "peak_rss_mb": max(o.peak_rss_mb for _, o in outcomes),
        "success_rate": (attempted - len(failures)) / attempted,
    }
    details = {"passes": len(pass_walls), "commands_per_pass": len(commands),
               "check_samples": len(short), "check_tail_percentile": p_tail}
    return values, attempted, failures, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "formatio" / "cli.py").is_file():
        sys.stderr.write(f"no formatio sources under {SRC}; run from a full "
                         f"checkout of the repository\n")
        return 2
    sys.path.insert(0, str(SRC))
    import inputs
    import layers
    from spawner import Spawner

    if args.workload not in inputs.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(inputs.WORKLOADS)}\n")
        return 2
    workload = inputs.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())

    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inverses, commands = inputs.generate(workload, args.seed, work,
                                             golden["tables"])
    except ValueError as exc:
        sys.stderr.write(f"input generation failed: {exc}\n")
        return 2
    os.chdir(work)
    spawner = Spawner(SRC, work, COMMAND_TIMEOUT_S)
    if args.trace:
        values, attempted, failures, details = layers.traced_run(
            workload, args.seed, commands, spawner)
        declared = spec["per_layer"]
    else:
        values, attempted, failures, details = measure(
            workload, commands, inverses, args.seed == 0, golden, args.seconds,
            spawner)
        declared = spec["end_to_end"]

    for line in failures[:MAX_REPORTED_FAILURES]:
        sys.stderr.write(f"FAIL {line}\n")
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        sys.stderr.write(f"no value for {', '.join(missing)}\n")
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine_info(), **details,
              "failures": failures[:MAX_REPORTED_FAILURES]}
    (work / "result.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=1) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
