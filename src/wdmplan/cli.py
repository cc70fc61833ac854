"""Command line entry points for scenario studies.

Subcommands
  run      solve a scenario grid: cells/<name>.json, summary.csv, comparison.csv
  sweep    transponder-cost sweep, the grid's optimized cells: sweep.csv
  solve    one instance, one architecture: report JSON
  catalog  dump the cost catalog as CSV
  paths    build the admissible path catalog and report its size

A scenario grid is the cross product volumes x speed sets x transponder
scales x architectures, each cell named like `10G-DFN-3T-OPT` (speed set,
matrix token, total volume in Tbps, optional `s<scale>` when the transponder
scale is not 1, architecture). Names print volume and scale exactly, and a
grid whose cells would share a name is a configuration error.

Exit codes: 0 success, 1 at least one cell failed (solver gave up, errored,
or a requested report could not be produced; "not feasible" is a result, not
a failure), 2 configuration/usage errors.

Reruns with the same config and seed write byte-identical outputs; wall
times never enter any report.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import metrics
from .costcat import CostCatalog, build_cost_catalog, dump_catalog_csv
from .formats import read_instance, read_sndlib
from .milp import (ModelError, build_model, build_transparent_variant, export_model,
                   frac_decimal)
from .netmodel import (MODE_OPTIMIZED, MODE_TRANSPARENT, MODES, Instance, check_param,
                       scale_demand_matrix, synth_matrix)
from .pathgen import PathCatalog, build_catalog, dump_paths
from .solve import INFEASIBLE, UNKNOWN, solve_exact, solve_heuristic

SOLVERS = ("exact", "heuristic", "export-only")
ARCH_TAG = {MODE_OPTIMIZED: "OPT", MODE_TRANSPARENT: "TRA"}
MATRIX_TOKEN = re.compile(r"^[A-Z][A-Z0-9+]*$")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class CellSpec:
    """One point of the scenario grid."""

    matrix: str
    volume: int
    speeds: tuple
    scale: Fraction
    architecture: str


def render_cell_name(cell: CellSpec) -> str:
    """The cell's name; volume and scale as exact decimals (`load_config`
    admits only scales that have one)."""
    parts = ["+".join(map(str, cell.speeds)) + "G", cell.matrix,
             f"{frac_decimal(Fraction(cell.volume, 1000))}T"]
    if cell.scale != 1:
        parts.append(f"s{frac_decimal(cell.scale)}")
    parts.append(ARCH_TAG[cell.architecture])
    return "-".join(parts)


@dataclass
class ScenarioConfig:
    instance: str
    matrix_name: str = "MTX"
    synthetic: dict | None = None        # mode/weights/hub/hub_factor; None: the instance's
    volumes: tuple = ()                  # empty: keep the matrix total as is
    speeds: tuple = ((10, 100),)
    architectures: tuple = MODES
    scales: tuple = (Fraction(1),)
    solver: str = "heuristic"
    seed: int = 0
    out: str = "results"


def _is_int(v) -> bool:
    """A JSON integer; `true`/`false` are not."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A finite JSON number; `true`/`false`, `NaN` and `Infinity` are not."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def load_config(path: str | None, args: argparse.Namespace) -> ScenarioConfig:
    """Config file merged with flag overrides; flags win.

    Checks the JSON types only (`true` is no number, a key that must be an
    object is one); the rules on values are `netmodel`'s, which the grid
    applies when it builds every cell's instance before any is solved.
    """
    raw = {}
    if path:
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    known = {"instance", "matrix", "volumes", "speeds", "architectures",
             "transponder_scales", "solver", "seed", "out"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")

    instance = getattr(args, "instance", None) or raw.get("instance")
    if not instance:
        raise ConfigError("an instance file is required (--instance or config)")
    if not isinstance(instance, str):
        raise ConfigError("config key 'instance' must be a file path")

    matrix = raw.get("matrix", {})
    if not isinstance(matrix, dict):
        raise ConfigError("config key 'matrix' must be an object")
    for key in matrix:
        if key not in ("name", "source", "mode", "weights", "hub", "hub_factor"):
            raise ConfigError(f"unknown matrix key {key!r}")
    matrix_name = matrix.get("name", "MTX")
    if not isinstance(matrix_name, str) or not MATRIX_TOKEN.match(matrix_name):
        raise ConfigError(f"matrix name {matrix_name!r} must be uppercase alphanumeric")
    matrix_source = matrix.get("source", "instance")
    if matrix_source not in ("instance", "synthetic"):
        raise ConfigError(f"unknown matrix source {matrix_source!r}")
    synthetic = None
    if matrix_source == "synthetic":
        synthetic = {"mode": None, "weights": "uniform", "hub": None, "hub_factor": 1,
                     **{k: v for k, v in matrix.items() if k not in ("name", "source")}}
        weights = synthetic["weights"]
        if weights != "uniform" and not (
                isinstance(weights, dict) and all(_is_number(w) for w in weights.values())):
            raise ConfigError("synthetic matrix weights must be 'uniform' or an object "
                              "of numbers")
        hub_factor = synthetic["hub_factor"]
        if not _is_number(hub_factor):
            raise ConfigError(f"synthetic matrix hub_factor {hub_factor!r} must be a number")

    volumes = raw.get("volumes", [])  # empty: the instance's own total
    if not isinstance(volumes, list) or not all(_is_int(v) for v in volumes):
        raise ConfigError("config key 'volumes' must be a list of integers")
    speeds_raw = raw.get("speeds", [[10, 100]])
    if not isinstance(speeds_raw, list):
        raise ConfigError("config key 'speeds' must be a list of speed sets")
    speeds = []
    for s in speeds_raw:
        if not (isinstance(s, list) and all(_is_int(v) for v in s)):
            raise ConfigError(f"speed set {s!r} must be a list of integers")
        speeds.append(tuple(sorted(set(s))))
    archs = raw.get("architectures", list(MODES))
    scales_raw = raw.get("transponder_scales", [1])
    if not isinstance(archs, list) or not isinstance(scales_raw, list):
        raise ConfigError("config keys 'architectures' and 'transponder_scales' must be lists")
    scales = []
    for s in scales_raw:
        try:
            f = Fraction(str(s))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"bad transponder scale {s!r}") from None
        try:
            frac_decimal(f)  # cell names and sweep.csv print it exactly
        except ModelError:
            raise ConfigError(f"transponder scale {s!r} has no finite decimal form") from None
        scales.append(f)
    for key, vals in (("speeds", speeds), ("architectures", archs),
                      ("transponder_scales", scales)):
        if not vals:
            raise ConfigError(f"config key {key!r} must not be empty")

    solver = getattr(args, "solver", None) or raw.get("solver", "heuristic")
    if solver not in SOLVERS:
        raise ConfigError(f"unknown solver {solver!r}")
    seed = args.seed if getattr(args, "seed", None) is not None else raw.get("seed", 0)
    if not _is_int(seed):
        raise ConfigError("seed must be an integer")
    out = getattr(args, "out", None) or raw.get("out", "results")
    if not isinstance(out, str):
        raise ConfigError("config key 'out' must be a directory path")

    if synthetic is not None and not volumes:
        raise ConfigError("synthetic matrices need explicit target volumes")
    return ScenarioConfig(instance=instance, matrix_name=matrix_name, synthetic=synthetic,
                          volumes=tuple(volumes), speeds=tuple(speeds),
                          architectures=tuple(archs), scales=tuple(scales),
                          solver=solver, seed=seed, out=out)


def read_instance_file(path: str) -> Instance:
    return read_instance(Path(path).read_text())


def scenario_grid(config: ScenarioConfig, base: Instance) -> list[CellSpec]:
    """The grid's cells; two cells that would share a name (and so one
    report file) are a configuration error, which names the config key
    whose list repeats a value."""
    for arch in config.architectures:
        check_param("mode", arch)  # a name tags only a known architecture
    # config key -> values, in `CellSpec` order after the matrix
    axes = {"volumes": config.volumes or (int(base.total_demand()),),
            "speeds": config.speeds, "transponder_scales": config.scales,
            "architectures": config.architectures}
    cells, first = [], {}  # first: name -> the value indices that gave it
    for at in itertools.product(*(range(len(vals)) for vals in axes.values())):
        cell = CellSpec(config.matrix_name, *(vals[i] for vals, i in zip(axes.values(), at)))
        name = render_cell_name(cell)
        if name in first:
            key = next(key for key, i, j in zip(axes, first[name], at) if i != j)
            raise ConfigError(f"two grid cells are named {name}: "
                              f"config key {key!r} repeats a value")
        first[name] = at
        cells.append(cell)
    return cells


def build_cell_instance(base: Instance, config: ScenarioConfig, cell: CellSpec) -> Instance:
    """The base instance re-targeted to one grid point."""
    spec = config.synthetic
    if spec is not None:
        weights = spec["weights"]
        if weights == "uniform":
            weights = {i: 1 for i in base.pops}
        demands = synth_matrix(spec["mode"], base.pops, weights, cell.volume,
                               hub=spec["hub"], hub_factor=spec["hub_factor"])
    else:
        raw = {d.pair: Fraction(d.value) for d in base.demands}
        demands = scale_demand_matrix(raw, cell.volume)
    return dataclasses.replace(
        base, demands=tuple(demands), speeds=cell.speeds,
        transponder_scale=cell.scale, mode=cell.architecture,
        name=render_cell_name(cell))


def solve_cell(inst: Instance, cat: PathCatalog, cc: CostCatalog, solver: str,
               seed: int) -> dict:
    """Build the model of `inst.mode`'s architecture over the path catalog
    `cat` and the cost catalog `cc`, then solve or export it: the one stage
    between a cell's instance and its outputs, for `run_cell` and `solve`.

    Returns the status, the JSON document, the design report (whenever the
    solver returns a design, `unknown` included), the LP text (export-only)
    and the error (the solver gave up).
    """
    build = build_transparent_variant if inst.mode == MODE_TRANSPARENT else build_model
    model = build(inst, cat, cc)
    head = {"name": inst.name, "architecture": inst.mode}
    if solver == "export-only":
        buf = io.StringIO()
        export_model(model, buf)
        return {"status": "exported", "report": None, "lp": buf.getvalue(), "error": None,
                "json": {**head, "status": "exported", "variables": len(model.variables),
                         "constraints": len(model.constraints)}}
    rep = solve_exact(model) if solver == "exact" else solve_heuristic(model, seed=seed)
    status = "not feasible" if rep.status == INFEASIBLE else rep.status
    tr = None if rep.solution is None else metrics.report(model, rep.solution,
                                                           name=inst.name,
                                                           status=rep.status)
    doc = {**head, "status": status} if tr is None else metrics.report_json(tr)
    doc["solver"] = {"solver": solver, "status": rep.status,
                     "nodes": rep.nodes_explored, "iterations": rep.iterations}
    error = "solver gave up without a verdict" if rep.status == UNKNOWN else None
    return {"status": status, "report": tr, "lp": None, "error": error, "json": doc}


def run_cell(payload: dict) -> dict:
    """Solve one grid cell; pure function of the payload (worker-safe).

    The payload carries the cell's instance and cost catalog, the grid's
    path catalog, which every cell shares, and the solver and seed.
    Returns `solve_cell`'s outcome plus the cell's name and architecture; an
    exception other than a broken solver invariant becomes the cell's error.
    """
    inst = payload["instance"]
    result = {"name": inst.name, "architecture": inst.mode}
    try:
        result.update(solve_cell(inst, payload["catalog"], payload["cost_catalog"],
                                 payload["solver"], payload["seed"]))
    except AssertionError:
        raise  # a broken solver invariant must stay loud
    except Exception as exc:  # one failing cell must not abort the grid
        msg = str(exc) if isinstance(exc, (ValueError, OSError)) \
            else f"{type(exc).__name__}: {exc}"
        result.update(status="error", report=None, lp=None, error=msg,
                      json={**result, "status": "error", "error": msg})
    return result


def _solve_grid(config: ScenarioConfig, jobs: int, write_tables) -> int:
    """Solve every cell of the grid, write the cell reports and the tables
    `write_tables(outdir, cells, results)` makes; the exit code.

    Every cell's instance is built first, so a value that breaks a rule
    raises before any cell is solved or any file written. The instance
    file is read and the path catalog built once per grid: the catalog
    depends only on the graph, the PoPs, k and the reach. The cost catalog
    depends only on the links, the speed set and the price scale, so each
    distinct (speeds, scale) pair of the grid gets one.
    """
    base = read_instance_file(config.instance)
    cells = scenario_grid(config, base)
    instances = []
    for cell in cells:
        try:
            instances.append(build_cell_instance(base, config, cell))
        except ValueError as exc:
            raise ConfigError(f"cell {render_cell_name(cell)}: {exc}") from exc
    cat = build_catalog(base)
    by_prices = {(inst.speeds, inst.transponder_scale): inst for inst in instances}
    cost_catalogs = {key: build_cost_catalog(inst) for key, inst in by_prices.items()}
    payloads = [{"instance": inst, "catalog": cat, "solver": config.solver,
                 "seed": config.seed,
                 "cost_catalog": cost_catalogs[(inst.speeds, inst.transponder_scale)]}
                for inst in instances]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_cell, payloads))
    else:
        results = [run_cell(p) for p in payloads]

    outdir = Path(config.out)
    cells_dir = outdir / "cells"
    cells_dir.mkdir(parents=True, exist_ok=True)
    for res in results:
        with open(cells_dir / f"{res['name']}.json", "w") as f:
            json.dump(res["json"], f, indent=2, sort_keys=True)
            f.write("\n")
        if res["lp"] is not None:
            (cells_dir / f"{res['name']}.lp").write_text(res["lp"])
    write_tables(outdir, cells, results)

    failed = [r for r in results if r["error"] is not None]
    for r in failed:
        print(f"cell {r['name']}: {r['error']}", file=sys.stderr)
    return 1 if failed else 0


def _cost_cells(res: dict | None) -> list[str]:
    """Core, edge and total cost of a cell, or its status three times."""
    if res is None:
        return ["", "", ""]
    if res["report"] is None:
        return [res["status"]] * 3
    row = dict(zip(metrics.REPORT_COLUMNS, metrics.report_csv_row(res["report"])))
    return [row["core_cost"], row["edge_cost"], row["total_cost"]]


def _write_run_tables(outdir: Path, cells: list[CellSpec], results: list[dict]) -> None:
    pad = [""] * (len(metrics.REPORT_COLUMNS) - 3)
    with open(outdir / "summary.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(metrics.REPORT_COLUMNS)
        for res in results:
            w.writerow(metrics.report_csv_row(res["report"]) if res["report"] is not None
                       else [res["name"], res["architecture"], res["status"]] + pad)

    # architecture comparison, one row per scenario, as in the cost tables
    by_name = {res["name"]: res for res in results}
    scenario_keys = dict.fromkeys(dataclasses.replace(c, architecture=MODE_OPTIMIZED)
                                  for c in cells)
    with open(outdir / "comparison.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["scenario", "transparent_core", "transparent_edge",
                    "transparent_total", "optimized_core", "optimized_edge",
                    "optimized_total", "difference"])
        for key in scenario_keys:
            t_res = by_name.get(render_cell_name(
                dataclasses.replace(key, architecture=MODE_TRANSPARENT)))
            o_res = by_name.get(render_cell_name(key))
            if (t_res and o_res and t_res["report"] and o_res["report"]
                    and o_res["report"].total_cost):
                ratio = t_res["report"].total_cost / o_res["report"].total_cost - 1
                diff = f"{float(100 * ratio):+.1f}%"
            else:
                diff = "n/a"
            scenario = render_cell_name(key).rsplit("-", 1)[0]
            w.writerow([scenario] + _cost_cells(t_res) + _cost_cells(o_res) + [diff])


def _write_sweep_table(outdir: Path, cells: list[CellSpec], results: list[dict]) -> None:
    """One row per scale: a cell's summary row with the scale in place of
    its architecture (a cell without a design shows only its status)."""
    columns = metrics.REPORT_COLUMNS[2:]  # after name and architecture
    with open(outdir / "sweep.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["name", "scale"] + columns)
        for cell, res in zip(cells, results):
            base = [res["name"], frac_decimal(cell.scale)]
            if res["report"] is not None:
                w.writerow(base + metrics.report_csv_row(res["report"])[2:])
            else:
                w.writerow(base + [res["status"]] + [""] * (len(columns) - 1))


# ----------------------------------------------------------------------------
# argument parsing


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="wdmplan",
                                description="two-layer IP over WDM network design")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve a scenario grid")
    sweep = sub.add_parser("sweep", help="transponder cost sweep")
    for sp in (run, sweep):
        sp.add_argument("--config", help="scenario config (JSON)")
        sp.add_argument("--instance", help="instance file (overrides config)")
        sp.add_argument("--out", help="output directory (overrides config)")
        sp.add_argument("--solver", choices=SOLVERS, help="overrides config")
        sp.add_argument("--seed", type=int, help="heuristic tie-break seed")
        sp.add_argument("--jobs", type=int, default=1,
                        help="parallel worker processes over cells")

    sv = sub.add_parser("solve", help="solve one instance")
    sv.add_argument("--instance", required=True)
    sv.add_argument("--architecture", choices=MODES,
                    help="default: the instance's `param mode`, else optimized")
    sv.add_argument("--solver", choices=("exact", "heuristic"), default="heuristic")
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument("--out", help="report JSON path (default: stdout)")

    cat = sub.add_parser("catalog", help="dump the cost catalog as CSV")
    cat.add_argument("--out", help="CSV path (default: stdout)")
    cat.add_argument("--speeds", default="10,100", help="e.g. 10,100")
    cat.add_argument("--scale", default="1", help="transponder cost scale")

    pa = sub.add_parser("paths", help="build the admissible path catalog")
    pa.add_argument("--instance", help="native instance file")
    pa.add_argument("--sndlib", help="SNDlib network file instead of --instance")
    pa.add_argument("--pops", help="PoP list file (one node id per line), with --sndlib")
    pa.add_argument("--length-source", default="routing-cost",
                    choices=("routing-cost", "setup-cost", "coordinates"))
    pa.add_argument("--k", type=int, help="paths per pair (overrides instance)")
    pa.add_argument("--max-km", type=float, help="length bound (overrides instance)")
    pa.add_argument("--expect", type=int, help="expected |P|; prints the deviation")
    pa.add_argument("--out", help="write the catalog to this file")
    return p


def _cmd_solve(args) -> int:
    inst = read_instance_file(args.instance)
    inst = dataclasses.replace(inst, mode=args.architecture or inst.mode,
                               name=inst.name or Path(args.instance).stem)
    res = solve_cell(inst, build_catalog(inst), build_cost_catalog(inst), args.solver,
                     args.seed)
    tr = res["report"]
    if tr is None:
        print(res["status"])
        return 1
    doc = res["json"]
    del doc["solver"]  # the report of one solve is the design's alone
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"{res['status']}: core {metrics.fmt_cost(tr.core_cost)} "
          f"edge {metrics.fmt_cost(tr.edge_cost)} "
          f"total {metrics.fmt_cost(tr.total_cost)}", file=sys.stderr)
    return 1 if res["error"] else 0


def _cmd_catalog(args) -> int:
    speeds = tuple(int(s) for s in args.speeds.split(","))
    buf = io.StringIO()  # complete before --out is opened: bad input leaves no file
    dump_catalog_csv(buf, speeds=speeds, transponder_scale=Fraction(args.scale))
    if args.out:
        with open(args.out, "w", newline="") as f:
            f.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return 0


def _cmd_paths(args) -> int:
    if bool(args.instance) == bool(args.sndlib):
        raise ConfigError("exactly one of --instance / --sndlib is required")
    if args.expect is not None and args.expect < 1:
        raise ConfigError(f"--expect must be at least 1, got {args.expect}")
    if args.instance:
        inst = read_instance_file(args.instance)
    else:
        if not args.pops:
            raise ConfigError("--sndlib needs --pops (the PoP list is input data)")
        net = read_sndlib(Path(args.sndlib).read_text(),
                          length_source=args.length_source)
        pops = tuple(line.strip() for line in Path(args.pops).read_text().splitlines()
                     if line.strip() and not line.lstrip().startswith("#"))
        inst = Instance(graph=net.graph, pops=pops, demands=())
    overrides = {}
    if args.k is not None:
        overrides["max_paths_per_pair"] = args.k
    if args.max_km is not None:
        overrides["max_path_km"] = Fraction(str(args.max_km))
    if overrides:
        inst = dataclasses.replace(inst, **overrides)
    cat = build_catalog(inst)
    n = len(cat.paths)
    print(f"paths: {n}")
    print(f"pairs without any admissible path: {len(cat.empty_pairs())}")
    if args.expect:
        dev = 100 * (n - args.expect) / args.expect
        print(f"expected {args.expect}: deviation {dev:+.2f}%")
    if args.out:
        with open(args.out, "w") as f:
            dump_paths(cat, f)
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command in ("run", "sweep") and args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        if args.command == "run":
            return _solve_grid(load_config(args.config, args), args.jobs, _write_run_tables)
        if args.command == "sweep":  # a run over the optimized architecture
            config = dataclasses.replace(load_config(args.config, args),
                                         architectures=(MODE_OPTIMIZED,))
            return _solve_grid(config, args.jobs, _write_sweep_table)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "catalog":
            return _cmd_catalog(args)
        if args.command == "paths":
            return _cmd_paths(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
