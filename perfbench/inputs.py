"""Workload definitions and the seeded input generator.

A workload is a fixed list of `formatio` commands (one "pass") over inputs
written before any timing starts.  The seed does two things and nothing else:

* it relabels every input table by a permutation of the elements that fixes
  the identity 0 (seed 0 is the identity relabelling), and
* it sets the order in which the commands of a pass run (the catalog-build
  command always runs first).

The command set of a workload does not depend on the seed, so recorded
golden outputs cover every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

REGULARITY_SPECS = ("vU", "reg(default->1)", "cap(p_nilpotent:2,S)",
                    "sylow_tower:2>3>5")
SATURATION_SPECS = ("vstar(N)", "vstar(U)")

# Command kinds; each end-to-end timing metric sums or pools one of them.
BUILD = "catalog_build"
REGULARITY = "sweep_regularity"
SATURATION = "sweep_saturation"
VSTAR_IDEMPOTENCE = "sweep_vstar_idempotence"
FORMATION_LAWS = "sweep_formation_laws"
POOL = "sweep_pool"
SHORT = "check"          # single-group commands: check, graph, sn
SWEEP_KINDS = (REGULARITY, SATURATION, VSTAR_IDEMPOTENCE, FORMATION_LAWS, POOL)


@dataclass(frozen=True)
class Command:
    kind: str
    args: tuple[str, ...]
    relabelled: bool     # reads seed-relabelled tables (catalog or .json path)

    @property
    def key(self) -> str:
        return " ".join(self.args)


@dataclass(frozen=True)
class Workload:
    name: str
    build_max_order: int
    catalogs: dict            # directory -> group names (None: default catalog)
    tables: tuple             # group names written as t/<slug>.json
    commands: tuple           # every Command of one pass, catalog-build first;
                              # a command may appear more than once


def slug(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name)


def _sweeps(catalog: str, *, aux_catalog: str | None = None,
            pool_catalog: str | None = None, regularity=REGULARITY_SPECS,
            saturation=SATURATION_SPECS) -> list[Command]:
    aux = aux_catalog or catalog
    base = ("--format", "json")
    out = [Command(REGULARITY, ("sweep", "--spec", s, "--mode", "regularity",
                                "--catalog", catalog) + base, True)
           for s in regularity]
    out += [Command(SATURATION, ("sweep", "--spec", s, "--mode", "saturation",
                                 "--catalog", catalog) + base, True)
            for s in saturation]
    out.append(Command(VSTAR_IDEMPOTENCE, ("sweep", "--spec", "N", "--mode",
                                           "vstar-idempotence", "--catalog", aux)
                       + base, True))
    out.append(Command(FORMATION_LAWS, ("sweep", "--spec", "U", "--mode",
                                        "formation-laws", "--catalog", aux)
                       + base, True))
    out.append(Command(POOL, ("sweep", "--spec", "vU", "--mode", "regularity",
                              "--catalog", pool_catalog or catalog, "--workers",
                              "2") + base, True))
    return out


def _repeat(commands: list[Command], kinds: set, copies: int) -> list[Command]:
    """The commands plus copies - 1 more of each whose kind is in kinds.

    A kind that runs as a single short process is too noisy to time once, so
    it runs several times a pass and the run reports the median copy."""
    return commands + [c for c in commands if c.kind in kinds] * (copies - 1)


def _build(max_order: int) -> Command:
    return Command(BUILD, ("catalog-build", "--out", "built", "--force",
                           "--max-order", str(max_order)), False)


def _check(group: str, spec: str, *, catalog: str | None = None,
           table: bool = False) -> Command:
    if table:
        return Command(SHORT, ("check", f"t/{slug(group)}.json", spec,
                               "--format", "json"), True)
    if catalog:
        return Command(SHORT, ("check", group, spec, "--catalog", catalog,
                               "--format", "json"), True)
    return Command(SHORT, ("check", group, spec, "--format", "json"), False)


def _graph(group: str, spec: str, *, table: bool = False) -> Command:
    target = f"t/{slug(group)}.json" if table else group
    return Command(SHORT, ("graph", target, spec, "--format", "json"), table)


def _sn(expr: str) -> Command:
    return Command(SHORT, ("sn", expr), False)


# -- catalog-sweeps ---------------------------------------------------------

_CATALOG_CHECKS = (
    ("Z2xZ2", "vU"), ("D3", "supersoluble"), ("D4", "vstar(N)"),
    ("Q8", "local(2->N,default->A)"), ("Z3xZ3", "p_nilpotent:3"),
    ("A4", "U"), ("A4", "vstar(N)"), ("D6", "sylow_tower:2>3>5"),
    ("D4xZ2", "prod(N,A)"), ("S3xZ3", "vU"), ("E(4|5)", "reg(default->1)"),
    ("E(3|7)", "bounded(S;3*7)"), ("A4xZ2", "U"), ("S4", "vU"),
    ("S4", "cap(p_nilpotent:2,S)"), ("E(4|3)", "vstar(U)"),
    ("S3xS3", "supersoluble"), ("E(6|7)", "vU"), ("S4xZ2", "N"),
    ("A5", "soluble"), ("Z4", "p_groups:2"), ("Z6", "S_pi:{2,3}"),
    ("D8", "vU"), ("Q8xZ2", "vstar(U)"), ("A4xZ3", "U"),
)

CATALOG_SWEEPS = Workload(
    name="catalog-sweeps",
    build_max_order=60,
    catalogs={"cat": None},   # None: the whole default catalog
    tables=(),
    commands=tuple(_repeat([_build(60)] + _sweeps("cat"),
                           {BUILD, VSTAR_IDEMPOTENCE, FORMATION_LAWS, POOL}, 2)
                   + [_check(g, s, catalog="cat") for g, s in _CATALOG_CHECKS]),
)

# -- large-tier -------------------------------------------------------------

LARGE_GROUPS = ("S5", "E(7|2)xZ2", "S4xS3", "S4xZ2xZ2", "A5xZ2", "E(4|5)xS3")

_LARGE_CHECKS = (
    ("S5", "U"), ("S5", "N"), ("S5", "soluble"), ("S5", "prod(N,A)"),
    ("S5", "local(2->N,default->A)"), ("E(7|2)xZ2", "U"),
    ("E(7|2)xZ2", "vstar(N)"), ("E(7|2)xZ2", "p_nilpotent:2"),
    ("E(7|2)xZ2", "sylow_tower:2>3>5"), ("S4xS3", "N"),
    ("S4xS3", "soluble"), ("S4xZ2xZ2", "N"), ("S4xZ2xZ2", "A"),
    ("A5xZ2", "soluble"), ("A5xZ2", "N"), ("E(4|5)xS3", "N"),
    ("S5", "A"), ("S5", "sylow_tower:2>3>5"), ("S4xS3", "p_nilpotent:3"),
    ("A5xZ2", "sylow_tower:2>3>5"),
)

LARGE_TIER = Workload(
    name="large-tier",
    build_max_order=120,
    catalogs={"large": ("S5", "E(7|2)xZ2"), "aux": ("E(7|2)xZ2",)},
    tables=LARGE_GROUPS,
    commands=tuple(
        _repeat([_build(120)]
                + _sweeps("large", aux_catalog="aux", pool_catalog="aux",
                          regularity=("vU",), saturation=("vstar(U)",)),
                {BUILD, VSTAR_IDEMPOTENCE, FORMATION_LAWS, POOL}, 2)
        + [_check(g, s, table=True) for g, s in _LARGE_CHECKS]),
)

# -- cold-checks ------------------------------------------------------------

SMALL_GROUPS = ("Z2xZ2", "D3", "Q8", "A4", "D6", "E(3|7)", "S4")

_COLD_STREAM = (
    [_check("S3", "U"), _check("A4", "supersoluble"), _check("Z12", "vU"),
     _check("D6", "vstar(N)"), _check("Q8", "p_nilpotent:2"),
     _check("E(4|3)", "sylow_tower:2>3>5")]
    + [_check(g, s, table=True) for g, s in (
        ("D3", "U"), ("Q8", "N"), ("A4", "vstar(N)"), ("D6", "reg(default->1)"),
        ("E(3|7)", "vU"), ("S4", "supersoluble"), ("Z2xZ2", "abelian"))]
    + [_check(g, s, catalog="small") for g, s in (
        ("A4", "U"), ("S4", "cap(p_nilpotent:2,S)"), ("D6", "local(2->N,default->A)"),
        ("E(3|7)", "prod(N,A)"), ("Q8", "bounded(S;2^3)"))]
    + [_graph("S4", "N"), _graph("A4", "vU"), _graph("Q8", "A"),
       _graph("D3", "N", table=True), _graph("A4", "vU", table=True),
       _graph("S4", "vstar(N)", table=True)]
    + [_sn(e) for e in ("lcm(12,18)", "gcd(2^inf*3,2^5*5)",
                        "lcm(2^inf;default=0,3^2*5)", "gcd(full,360)",
                        "encode(2->2^inf,default->full)",
                        "encode(3->3^inf*2,default->1)",
                        "decode(2^3*3^inf)", "decode(encode(5->5^inf,default->1))")]
)

COLD_CHECKS = Workload(
    name="cold-checks",
    build_max_order=12,
    catalogs={"small": SMALL_GROUPS},
    tables=SMALL_GROUPS,
    commands=tuple(_repeat([_build(12)] + _sweeps("small", regularity=("vU",),
                                                  saturation=("vstar(U)",)),
                           {BUILD, *SWEEP_KINDS}, 4)
                   + _COLD_STREAM),
)

WORKLOADS = {w.name: w for w in (CATALOG_SWEEPS, LARGE_TIER, COLD_CHECKS)}


# ---------------------------------------------------------------------------
# Base tables and relabelling


def _builders() -> dict:
    """Group name -> builder call, for every group not taken from the whole
    default catalog.  The names match the default catalog's where it has the
    group."""
    from formatio import (alternating, cyclic, dihedral, direct_product,
                          field_action_group, quaternion, symmetric)

    return {
        "Z2xZ2": lambda: direct_product(cyclic(2), cyclic(2)),
        "D3": lambda: dihedral(3), "D6": lambda: dihedral(6),
        "Q8": quaternion, "A4": lambda: alternating(4),
        "E(3|7)": lambda: field_action_group(3, 7), "S4": lambda: symmetric(4),
        "S5": lambda: symmetric(5),
        "E(7|2)xZ2": lambda: direct_product(field_action_group(7, 2), cyclic(2)),
        "S4xS3": lambda: direct_product(symmetric(4), symmetric(3)),
        "S4xZ2xZ2": lambda: direct_product(direct_product(symmetric(4), cyclic(2)),
                                           cyclic(2)),
        "A5xZ2": lambda: direct_product(alternating(5), cyclic(2)),
        "E(4|5)xS3": lambda: direct_product(field_action_group(4, 5), symmetric(3)),
    }


def base_groups(workload: Workload) -> tuple[dict, dict]:
    """Identity-labelled groups built with formatio's own builders.

    Returns (name -> (FiniteGroup, tags, provenance), catalog directory ->
    group names in catalog order).
    """
    from formatio import build_catalog

    groups = {}
    catalogs = {}
    for directory, names in workload.catalogs.items():
        if names is None:
            entries = build_catalog()
            groups.update((e.group.name, (e.group, list(e.tags), e.provenance))
                          for e in entries)
            names = [e.group.name for e in entries]
        catalogs[directory] = list(names)
    builders = _builders()
    for name in {n for names in catalogs.values() for n in names} | set(workload.tables):
        if name not in groups:
            groups[name] = (builders[name](), [], f"benchmark builder: {name}")
    return dict(sorted(groups.items())), catalogs


def table_digest(table) -> str:
    h = hashlib.sha256()
    for row in table:
        h.update(",".join(map(str, row)).encode())
        h.update(b";")
    return h.hexdigest()


def permutation(seed: int, name: str, n: int) -> list[int]:
    """new label = perm[old label]; 0 stays fixed; seed 0 is the identity."""
    if seed == 0:
        return list(range(n))
    rest = list(range(1, n))
    random.Random(f"{seed}/{name}").shuffle(rest)
    return [0] + rest


def inverse(perm: list[int]) -> list[int]:
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old
    return inv


def relabel(table, perm: list[int]) -> list[list[int]]:
    n = len(table)
    inv = inverse(perm)
    return [[perm[table[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]


def _table_json(name: str, table) -> str:
    payload = {"name": name, "order": len(table), "table": table}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def generate(workload: Workload, seed: int, work_dir: Path,
             expected_digests: dict) -> tuple[dict, list[Command]]:
    """Write the workload's inputs under work_dir and return
    (name -> inverse permutation, commands of one pass in run order).

    Raises ValueError when a builder no longer yields the table the golden
    outputs were recorded on.
    """
    groups, catalogs = base_groups(workload)
    perms = {}
    for name, (G, _, _) in groups.items():
        if expected_digests.get(name) != table_digest(G.table):
            raise ValueError(f"input table for {name} differs from the one the "
                             f"golden outputs were recorded on")
        perms[name] = permutation(seed, name, G.order)

    def write_table(path: Path, name: str) -> None:
        G = groups[name][0]
        path.write_text(_table_json(name, relabel(G.table, perms[name])),
                        encoding="utf-8")

    for cat_name, names in catalogs.items():
        gdir = work_dir / cat_name / "groups"
        gdir.mkdir(parents=True)
        manifest = []
        for name in names:
            G, tags, provenance = groups[name]
            fname = f"{G.order:04d}_{slug(name)}.json"
            write_table(gdir / fname, name)
            manifest.append({"file": f"groups/{fname}", "name": name,
                             "order": G.order, "tags": tags,
                             "provenance": provenance})
        (work_dir / cat_name / "manifest.json").write_text(
            json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if workload.tables:
        (work_dir / "t").mkdir()
        for name in workload.tables:
            write_table(work_dir / "t" / f"{slug(name)}.json", name)

    build, rest = workload.commands[0], list(workload.commands[1:])
    random.Random(f"order/{seed}").shuffle(rest)
    return {name: inverse(p) for name, p in perms.items()}, [build] + rest
