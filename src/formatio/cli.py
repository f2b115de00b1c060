"""Command-line front end.

Subcommands:
  catalog-build   build and persist the group catalog
  check           membership verdict for one group against one spec
  sweep           catalog-wide property sweeps (regularity, saturation,
                  formation-laws, vstar-idempotence)
  graph           DOT export of the non-member pair graph
  sn              supernatural-number calculator

Exit codes: 0 all assertions hold, 1 usage or I/O error, 2 a theorem-backed
property was violated.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from . import structure
from .constructions import (
    CatalogConfig,
    build_catalog,
    named_group,
    read_catalog,
    read_catalog_entry,
    write_catalog,
)
from .classes import (
    ClassSpec,
    SOLUBLE,
    VStarClass,
    is_member,
    parse_spec,
    residual,
)
from .errors import FormatioError
from .groups import FiniteGroup, group_from_json
from .regularity import (
    ROW_SWEEPS,
    graph_to_dot,
    non_class_graph,
    regularity_sweep,
    report_to_text,
)
from .supernatural import (
    MAX_DECIMAL_DIGITS,
    PRIME_HORIZON,
    Supernatural,
    check_nesting,
    complement,
    decode_supernatural,
    divides,
    encode_function,
    format_exponent_function,
    format_supernatural,
    gcd,
    lcm,
    parse_digits,
    parse_exponent_function,
    parse_supernatural,
    split_args,
)


def _resolve_group(token: str, catalog_dir: str | None) -> FiniteGroup:
    path = Path(token)
    if path.suffix == ".json" and path.exists():
        return group_from_json(path.read_bytes())
    G = named_group(token)
    if G is not None:
        return G
    if catalog_dir:
        entry = read_catalog_entry(catalog_dir, token)
        if entry is not None:
            return entry.group
    raise FormatioError(f"cannot resolve group {token!r}; give a builder name "
                        f"(S3, A4, Z12, D6, Q8, E(4|3), ...), a .json file, or "
                        f"a catalog name with --catalog")


def _catalog_groups(catalog_dir: str | None,
                    max_order: int | None) -> list[FiniteGroup]:
    """The catalog in `catalog_dir`, or the default one when none is named."""
    if catalog_dir:
        entries = read_catalog(catalog_dir)
    else:
        entries = build_catalog(CatalogConfig(max_order) if max_order else None)
    groups = [e.group for e in entries]
    if max_order:
        groups = [G for G in groups if G.order <= max_order]
    return groups


def _emit(args, payload: dict, text: str) -> None:
    """Write the payload as JSON under `--format json`, else the text, to
    `--out` when given, else to stdout."""
    rendered = (json.dumps(payload, indent=1, sort_keys=True) + "\n"
                if args.format == "json" else text)
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_catalog_build(args) -> int:
    out_dir = Path(args.out or args.catalog or "catalog")
    manifest = out_dir / "manifest.json"
    if manifest.exists() and not args.force:
        try:
            read_catalog(out_dir)
        except (FormatioError, OSError) as exc:
            sys.stderr.write(f"error: existing catalog at {out_dir} is unreadable "
                             f"({exc}); use --force\n")
            return 1
    entries = build_catalog(CatalogConfig(max_order=args.max_order))
    path = write_catalog(entries, out_dir)
    sys.stdout.write(f"wrote {len(entries)} groups to {path}\n")
    return 0


def _explain_failure(G: FiniteGroup, spec: ClassSpec) -> dict:
    from .arith import is_prime
    from .classes import SupersolubleClass, ProductClass, ExponentFormationClass
    from .classes import VSupersolubleClass
    from .subnormality import vstar_obstruction, vu_obstruction

    detail: dict = {}
    if isinstance(spec, SupersolubleClass):
        series = structure.chief_series(G)
        detail["violating_chief_factor_orders"] = [
            o for o in series.factor_orders if not is_prime(o)]
    elif isinstance(spec, VStarClass):
        stuck = vstar_obstruction(G, spec.inner)
        if stuck is not None:
            detail["stuck_cyclic_subgroup"] = list(stuck.elems)
    elif isinstance(spec, VSupersolubleClass):
        stuck = vu_obstruction(G)
        if stuck is not None:
            detail["stuck_cyclic_subgroup"] = list(stuck.elems)
    elif isinstance(spec, ProductClass):
        R = residual(G, spec.outer)
        detail["residual"] = list(R.elems)
    elif isinstance(spec, ExponentFormationClass):
        if not is_member(G, SOLUBLE):
            detail["reason"] = "not soluble"
    return detail


def cmd_check(args) -> int:
    G = _resolve_group(args.group, args.catalog)
    spec = parse_spec(args.spec)
    verdict = is_member(G, spec)
    payload = {"group": G.name, "order": G.order, "spec": spec.text(),
               "member": verdict}
    if not verdict:
        payload["detail"] = _explain_failure(G, spec)
    text = (f"{G.name} (order {G.order}) "
            f"{'IS' if verdict else 'is NOT'} in {spec.text()}\n")
    if not verdict and payload.get("detail"):
        text += f"  detail: {payload['detail']}\n"
    _emit(args, payload, text)
    return 0


def cmd_sweep(args) -> int:
    groups = _catalog_groups(args.catalog, args.max_order)
    spec = parse_spec(args.spec)
    if args.mode == "regularity":
        report = regularity_sweep(groups, spec)
        payload, text = report.to_json(), report_to_text(report)
        violated = bool(report.violations)
        if violated:
            bad = ", ".join(r.group_name for r in report.violations)
            sys.stderr.write(f"THEOREM VIOLATION: regular spec {spec.text()} "
                             f"has unequal sets on: {bad}\n")
    else:
        row_fn, enforced = ROW_SWEEPS[args.mode]
        rows = [row for G in groups for row in row_fn(G, spec)]
        failures = [r for r in rows if not r["ok"]]
        payload = {"spec": spec.text(), "mode": args.mode, "rows": rows,
                   "failures": failures}
        text_lines = [f"{args.mode} sweep for {spec.text()}: "
                      f"{len(rows) - len(failures)}/{len(rows)} ok"]
        for r in failures:
            text_lines.append(f"  FAIL {r}")
        text = "\n".join(text_lines) + "\n"
        violated = bool(failures) and enforced(spec)
    _emit(args, payload, text)
    return 2 if violated else 0


def cmd_graph(args) -> int:
    G = _resolve_group(args.group, args.catalog)
    spec = parse_spec(args.spec)
    graph = non_class_graph(G, spec)
    if args.format == "json":
        payload = {"group": G.name, "spec": spec.text(),
                   "isolated": list(graph.isolated),
                   "edges": graph.edge_count}
        _emit(args, payload, "")
    else:
        _emit(args, {}, graph_to_dot(graph))
    return 0


_SN_CALL = re.compile(r"^(lcm|gcd|divides|encode|decode|complement)\((.*)\)$")


_SN_OPS = {"lcm": lcm, "gcd": gcd, "divides": divides,
           "decode": decode_supernatural, "complement": complement}


def _eval_sn(expr: str, horizon: int):
    s = expr.strip()
    m = _SN_CALL.match(s)
    if not m:
        return parse_supernatural(s)
    head, body = m.group(1), m.group(2)
    if head == "encode":
        return encode_function(parse_exponent_function(body), horizon)
    if head in ("decode", "complement"):
        parts = [body]
    else:
        parts = split_args(body)
        if len(parts) != 2:
            raise FormatioError(f"{head} takes two arguments")
    values = [_eval_sn(part, horizon) for part in parts]
    # `decode` yields an exponent function and `divides` a bool
    for part, value in zip(parts, values):
        if not isinstance(value, Supernatural):
            raise FormatioError(f"{head} takes supernatural numbers, got {part.strip()!r}")
    return _SN_OPS[head](*values)


def cmd_sn(args) -> int:
    check_nesting(args.expression)
    value = _eval_sn(args.expression, args.horizon_primes)
    if isinstance(value, bool):
        sys.stdout.write(("true" if value else "false") + "\n")
    elif hasattr(value, "at"):  # an exponent function, from decode
        sys.stdout.write(format_exponent_function(value) + "\n")
    else:
        sys.stdout.write(format_supernatural(value) + "\n")
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1: exit code 2 is reserved for theorem violations."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_least_one(text: str) -> int:
    n = parse_digits(text, text, MAX_DECIMAL_DIGITS)
    if n is None or n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="formatio",
        description="Formation calculus on concrete finite groups.")
    parser.add_argument("--budget-subgroups", type=_at_least_one, default=None,
                        help="cap on enumerated subgroups per group (>= 1)")
    parser.add_argument("--horizon-primes", type=_at_least_one, default=PRIME_HORIZON,
                        help="materialized positions of the pairing codec (>= 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog-build", help="build and persist the catalog")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--catalog", default=os.environ.get("FORMATIO_CATALOG"))
    p.add_argument("--max-order", type=_at_least_one, default=60)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_catalog_build)

    p = sub.add_parser("check", help="membership verdict for one group")
    p.add_argument("group")
    p.add_argument("spec")
    p.add_argument("--catalog", default=os.environ.get("FORMATIO_CATALOG"))
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sweep", help="catalog-wide property sweep")
    p.add_argument("--spec", required=True)
    p.add_argument("--mode", default="regularity", choices=["regularity", *ROW_SWEEPS])
    p.add_argument("--catalog", default=os.environ.get("FORMATIO_CATALOG"))
    p.add_argument("--max-order", type=_at_least_one, default=None)
    p.add_argument("--workers", type=_at_least_one, default=1,
                   help="checked to be >= 1, with no other effect: "
                        "sweeps run in one process")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("graph", help="export the non-member pair graph")
    p.add_argument("group")
    p.add_argument("spec")
    p.add_argument("--catalog", default=os.environ.get("FORMATIO_CATALOG"))
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("sn", help="supernatural-number calculator")
    p.add_argument("expression")
    p.set_defaults(func=cmd_sn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    saved_budget = structure.subgroup_budget
    try:
        if args.budget_subgroups is not None:
            structure.subgroup_budget = args.budget_subgroups
        return args.func(args)
    except FormatioError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 1
    finally:
        structure.subgroup_budget = saved_budget


if __name__ == "__main__":
    raise SystemExit(main())
