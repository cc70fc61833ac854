"""Command line interface: names, configs, grids and outputs."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import SND_FIXTURE, make_instance, triangle_instance
from wdmplan.cli import (CellSpec, ConfigError, ScenarioConfig, main,
                         render_cell_name, scenario_grid)
from wdmplan.formats import read_instance, read_sndlib, write_instance
from wdmplan.metrics import REPORT_COLUMNS
from wdmplan.pathgen import load_paths

DATA = Path(__file__).resolve().parents[1] / "data"

SPEEDS_BY_TAG = {"10G": (10,), "100G": (100,), "10+100G": (10, 100)}
ARCH_BY_TAG = {"OPT": "optimized", "TRA": "transparent-core"}
# exactly the names `render_cell_name` writes for a grid cell: decimals
# without leading or trailing zeros, a volume in whole Gbps, a scale of at
# least 1, and no scale tag for scale 1
CELL_NAME = re.compile(r"(10G|100G|10\+100G)-([A-Z][A-Z0-9+]*)-"
                       r"(0|[1-9]\d*)(?:\.(\d{0,2}[1-9]))?T"
                       r"(?:-s(?!1-)([1-9]\d*(?:\.\d*[1-9])?))?-(OPT|TRA)")


def parse_cell_name(name):
    """Reference parser: the cell a grid name stands for; any name that no
    grid writes is an error."""
    m = CELL_NAME.fullmatch(name)
    if m is None:
        raise ConfigError(f"malformed cell name {name!r}")
    speeds, matrix, whole, frac, scale, arch = m.groups()
    volume = Fraction(f"{whole}.{frac or 0}") * 1000
    return CellSpec(matrix, int(volume), SPEEDS_BY_TAG[speeds], Fraction(scale or 1),
                    ARCH_BY_TAG[arch])


def write_inst(tmp_path, inst, name="inst.txt"):
    p = tmp_path / name
    with open(p, "w") as f:
        write_instance(inst, f)
    return str(p)


def tri_file(tmp_path):
    return write_inst(tmp_path, triangle_instance(
        demands=(("a", "b", 25), ("a", "c", 12), ("b", "c", 40))))


def star_file(tmp_path):
    edges = [(f"e{i}", "hub", f"s{i}", 100) for i in range(1, 6)]
    pops = ["hub"] + [f"s{i}" for i in range(1, 6)]
    demands = [("hub", f"s{i}", 802) for i in range(1, 6)]
    inst = make_instance(edges, pops, demands, speeds=(10,))
    return write_inst(tmp_path, inst, "star.txt")


def test_cell_name_round_trip():
    cases = [
        CellSpec("DFN", 3000, (10,), Fraction(1), "optimized"),
        CellSpec("DFN", 3000, (100,), Fraction(1), "transparent-core"),
        CellSpec("GRAV", 14000, (10, 100), Fraction(5), "optimized"),
        CellSpec("M1", 500, (100,), Fraction("2.5"), "transparent-core"),
    ]
    for spec in cases:
        assert parse_cell_name(render_cell_name(spec)) == spec
    assert render_cell_name(cases[0]) == "10G-DFN-3T-OPT"
    assert render_cell_name(cases[2]) == "10+100G-GRAV-14T-s5-OPT"
    assert render_cell_name(cases[3]) == "100G-M1-0.5T-s2.5-TRA"


def test_toy6_grid_names_round_trip():
    """The names of the benchmark's 72-cell toy6 grid parse back into
    their cells."""
    config = ScenarioConfig(instance="toy6", matrix_name="TOY",
                            volumes=(540, 1000, 2000, 4000),
                            speeds=((10,), (100,), (10, 100)),
                            scales=(Fraction(1), Fraction(2), Fraction(5)))
    cells = scenario_grid(config, read_instance((DATA / "toy6.txt").read_text()))
    assert len(cells) == 72
    for cell in cells:
        assert parse_cell_name(render_cell_name(cell)) == cell


@pytest.mark.parametrize("volume, scale, name", [
    (1234567, Fraction(1), "10G-MTX-1234.567T-OPT"),
    (10**9, Fraction(1), "10G-MTX-1000000T-OPT"),
    (1000, Fraction("1.333333"), "10G-MTX-1T-s1.333333-OPT"),
    (1000, Fraction("2.0000001"), "10G-MTX-1T-s2.0000001-OPT"),
], ids=["volume-7-digits", "volume-1e6-T", "scale-7-digits", "scale-near-2"])
def test_cell_names_beyond_six_digits_round_trip(volume, scale, name):
    """Volume and scale render as exact decimals, where six significant
    digits would round them (1234.57T, 1e+06T, s1.33333, s2)."""
    spec = CellSpec("MTX", volume, (10,), scale, "optimized")
    assert render_cell_name(spec) == name
    assert parse_cell_name(name) == spec


def test_cell_names_six_digits_render_exactly_keep_their_bytes():
    """Every name the old `:g` rendering printed exactly is unchanged,
    among them the names of the toy6 grid."""
    for volume in (1, 100, 120, 500, 999, 1000, 3000, 14000, 123456, 999999):
        for scale in ("1", "1.5", "2", "2.5", "5", "10", "12.25", "1.00001", "999999"):
            spec = CellSpec("MTX", volume, (10, 100), Fraction(scale), "transparent-core")
            old = "-".join(["10+100G", "MTX", f"{float(volume) / 1000:g}T"]
                           + ([f"s{float(spec.scale):g}"] if spec.scale != 1 else [])
                           + ["TRA"])
            assert render_cell_name(spec) == old
            assert parse_cell_name(old) == spec


def test_parse_cell_name_rejects_garbage():
    """Besides plain garbage, names that only differ from a written one in
    how a number prints: a scale tag for scale 1, a trailing zero, a
    leading zero, a volume below one Gbps and a scale below 1."""
    for bad in ("40G-DFN-3T-OPT", "10G-dfn-3T-OPT", "10G-DFN-3Q-OPT",
                "10G-DFN-3T-XYZ", "10G-DFN-3T", "10G-DFN-3T-s0x-OPT",
                "10G-MTX-1T-s1-OPT", "10G-MTX-3.0T-OPT", "10G-MTX-1T-s2.50-OPT",
                "10G-MTX-03T-OPT", "10G-MTX-0.0005T-OPT", "10G-MTX-1T-s0.5-OPT"):
        with pytest.raises(ConfigError):
            parse_cell_name(bad)


def test_solve_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["solve", "--instance", str(DATA / "toy6.txt"),
               "--solver", "heuristic", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["architecture"] == "optimized"
    assert doc["cost"]["total"] > 0
    err = capsys.readouterr().err
    assert "core" in err and "total" in err


def test_solve_defaults_to_the_instance_architecture(tmp_path):
    """Without `--architecture`, `solve` solves the instance's own `param
    mode`; the flag still wins."""
    path = tmp_path / "toy6-tra.txt"
    path.write_text((DATA / "toy6.txt").read_text() + "param mode transparent-core\n")
    out = tmp_path / "report.json"
    for flag, arch in (([], "transparent-core"),
                       (["--architecture", "optimized"], "optimized")):
        assert main(["solve", "--instance", str(path), "--out", str(out)] + flag) == 0
        assert json.loads(out.read_text())["architecture"] == arch


def test_solve_exact_small(tmp_path, capsys):
    inst = triangle_instance(demands=(("a", "b", 25),))
    rc = main(["solve", "--instance", write_inst(tmp_path, inst),
               "--solver", "exact"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cost"]["core"] == 96.98
    # the cell's own fields: the report holds the design's only
    assert (doc["name"], doc["architecture"], doc["status"]) == ("inst", "optimized",
                                                                  "optimal")


def test_solve_reports_infeasible(tmp_path, capsys):
    rc = main(["solve", "--instance", star_file(tmp_path),
               "--architecture", "transparent-core"])
    assert rc == 1
    assert "not feasible" in capsys.readouterr().out


def test_solve_and_run_agree_on_an_unknown_solve_with_a_design(tmp_path, monkeypatch,
                                                               capsys):
    import wdmplan.cli as cli
    from wdmplan.solve import Limits, solve_exact

    monkeypatch.setattr(cli, "solve_exact",
                        lambda model: solve_exact(model, Limits(max_nodes=2000)))
    toy6 = str(DATA / "toy6.txt")
    report = tmp_path / "report.json"
    assert main(["solve", "--instance", toy6, "--solver", "exact",
                 "--out", str(report)]) == 1
    solved = json.loads(report.read_text())
    assert solved["status"] == "unknown"
    assert capsys.readouterr().err.startswith("unknown: core ")

    cfg = {"instance": toy6, "architectures": ["optimized"], "solver": "exact",
           "out": str(tmp_path / "res")}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p)]) == 1
    assert "solver gave up without a verdict" in capsys.readouterr().err
    name = "10+100G-MTX-0.54T-OPT"
    doc = json.loads((tmp_path / "res" / "cells" / f"{name}.json").read_text())
    assert doc["status"] == "unknown"
    assert doc["cost"] == solved["cost"]
    assert doc["solver"]["nodes"] == 2001
    rows = (tmp_path / "res" / "summary.csv").read_text().splitlines()
    assert rows[0].split(",") == ["name", "architecture", "status"] + REPORT_COLUMNS
    row = dict(zip(rows[0].split(","), rows[1].split(",")))
    assert row["name"] == name and row["status"] == "unknown"
    assert row["total_cost"] == f"{solved['cost']['total']:.10g}"


def test_missing_instance_is_config_error(capsys):
    rc = main(["solve", "--instance", "/nonexistent/nowhere.txt"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_run_grid_outputs(tmp_path):
    cfg = {
        "instance": tri_file(tmp_path),
        "matrix": {"name": "TRI"},
        "volumes": [100],
        "speeds": [[10]],
        "solver": "heuristic",
        "out": str(tmp_path / "res"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(cfg_path)])
    assert rc == 0
    res = tmp_path / "res"
    summary = (res / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("name,architecture,status")
    assert len(summary) == 3  # header + transparent + optimized
    names = {ln.split(",")[0] for ln in summary[1:]}
    assert names == {"10G-TRI-0.1T-TRA", "10G-TRI-0.1T-OPT"}
    comparison = (res / "comparison.csv").read_text().splitlines()
    assert comparison[0].split(",")[0] == "scenario"
    assert len(comparison) == 2
    row = comparison[1].split(",")
    assert row[0] == "10G-TRI-0.1T"
    assert row[-1].endswith("%")
    for name in names:
        cell = json.loads((res / "cells" / f"{name}.json").read_text())
        assert cell["name"] == name
        assert cell["status"] in ("optimal", "feasible")


def test_rerun_is_byte_identical(tmp_path):
    """A grid run writes the same bytes serially and over a pool."""
    base = tri_file(tmp_path)
    outs = []
    for jobs in ("1", "2"):
        cfg = {"instance": base, "volumes": [100], "speeds": [[10]],
               "transponder_scales": [1, 2], "out": str(tmp_path / jobs)}
        p = tmp_path / f"run{jobs}.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(p), "--jobs", jobs]) == 0
        outs.append(tmp_path / jobs)
    a, b = outs
    files_a = sorted(f.relative_to(a) for f in a.rglob("*") if f.is_file())
    files_b = sorted(f.relative_to(b) for f in b.rglob("*") if f.is_file())
    assert files_a == files_b
    assert len(files_a) == 6
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_run_solves_toy6_at_10g_4t(tmp_path, monkeypatch):
    """toy6 at 10G and 4 Tbps, optimized: every route the heuristic's
    search returns applies, so each price scale's cell is `feasible` at
    its recorded objective, with a clean check, and the run exits 0."""
    import wdmplan.cli as cli
    from wdmplan.solve import check_feasibility, solve_heuristic

    solved = []

    def recorded(model, seed):
        report = solve_heuristic(model, seed=seed)
        solved.append(report.solution.objective)
        assert check_feasibility(model, report.solution) == []
        return report

    monkeypatch.setattr(cli, "solve_heuristic", recorded)
    cfg = {"instance": str(DATA / "toy6.txt"), "matrix": {"name": "TOY", "source": "instance"},
           "volumes": [4000], "speeds": [[10]], "transponder_scales": [1, 2, 5],
           "architectures": ["optimized"], "solver": "heuristic", "out": str(tmp_path / "res")}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p)]) == 0
    assert solved == [Fraction("4854.558"), Fraction("5726.558"), Fraction("8342.558")]
    for name in ("10G-TOY-4T-OPT", "10G-TOY-4T-s2-OPT", "10G-TOY-4T-s5-OPT"):
        cell = json.loads((tmp_path / "res" / "cells" / f"{name}.json").read_text())
        assert cell["status"] == "feasible"


def test_run_renders_infeasible_cells(tmp_path):
    cfg = {"instance": star_file(tmp_path), "speeds": [[10]],
           "out": str(tmp_path / "res")}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(p)])
    assert rc == 0  # infeasible is an answer, not an error
    summary = (tmp_path / "res" / "summary.csv").read_text()
    assert "not feasible" in summary
    rows = [ln.split(",") for ln in summary.splitlines()[1:]]
    bad = [row for row in rows if row[2] == "not feasible"]
    assert bad
    assert all(row[3:] == [""] * len(REPORT_COLUMNS) for row in bad)
    comparison = (tmp_path / "res" / "comparison.csv").read_text().splitlines()
    assert "not feasible" in comparison[1]
    assert comparison[1].split(",")[-1] == "n/a"


def test_run_records_unexpected_solver_errors(tmp_path, monkeypatch, capsys):
    import wdmplan.cli as cli

    real = cli.solve_heuristic

    def flaky(model, seed=0):
        if not model.transparent and model.instance.total_demand() > 150:
            raise RecursionError("maximum recursion depth exceeded")
        return real(model, seed=seed)

    monkeypatch.setattr(cli, "solve_heuristic", flaky)
    cfg = {"instance": tri_file(tmp_path), "volumes": [100, 200], "speeds": [[10]],
           "out": str(tmp_path / "res")}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p)]) == 1
    assert "RecursionError: maximum recursion" in capsys.readouterr().err
    res = tmp_path / "res"
    statuses = {}
    for ln in (res / "summary.csv").read_text().splitlines()[1:]:
        row = ln.split(",")
        if row[0] == "10G-MTX-0.2T-OPT":  # the cell's own columns, no design's
            assert row == ["10G-MTX-0.2T-OPT", "optimized", "error"] \
                + [""] * len(REPORT_COLUMNS)
        statuses[row[0]] = row[2]
    assert len(statuses) == 4
    assert statuses.pop("10G-MTX-0.2T-OPT") == "error"
    assert set(statuses.values()) <= {"optimal", "feasible"}
    doc = json.loads((res / "cells" / "10G-MTX-0.2T-OPT.json").read_text())
    assert doc["status"] == "error"
    assert doc["error"] == "RecursionError: maximum recursion depth exceeded"
    for name in statuses:
        assert (res / "cells" / f"{name}.json").is_file()

    def broken(model, seed=0):
        raise AssertionError("heuristic produced an infeasible design")

    monkeypatch.setattr(cli, "solve_heuristic", broken)
    with pytest.raises(AssertionError):
        main(["run", "--config", str(p)])


def test_grid_reads_instance_and_builds_catalog_once(tmp_path, monkeypatch):
    import wdmplan.cli as cli

    calls = {"read_instance": 0, "build_catalog": 0, "build_cost_catalog": 0}

    def counted(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, name, wrapper)

    counted("read_instance")
    counted("build_catalog")
    counted("build_cost_catalog")
    cfg = {"instance": tri_file(tmp_path), "volumes": [100, 200], "speeds": [[10]],
           "transponder_scales": [1, 2]}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "res"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    assert len(list((out / "cells").glob("*.json"))) == 8
    # one cost catalog per transponder scale
    assert calls == {"read_instance": 1, "build_catalog": 1, "build_cost_catalog": 2}


def test_transponder_price_sweep(tmp_path):
    """A price sweep is a run over the optimized architecture alone: one
    summary row per transponder scale."""
    cfg = {"instance": tri_file(tmp_path), "volumes": [100], "speeds": [[10]],
           "architectures": ["optimized"], "transponder_scales": [1, 5],
           "out": str(tmp_path / "res")}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p)]) == 0
    summary = (tmp_path / "res" / "summary.csv").read_text().splitlines()
    assert summary[0].split(",") == ["name", "architecture", "status"] + REPORT_COLUMNS
    assert len(summary) == 3
    rows = [dict(zip(summary[0].split(","), line.split(","))) for line in summary[1:]]
    assert [r["name"] for r in rows] == ["10G-MTX-0.1T-OPT", "10G-MTX-0.1T-s5-OPT"]
    assert {r["architecture"] for r in rows} == {"optimized"}
    assert {r["status"] for r in rows} <= {"optimal", "feasible"}
    # dearer circuits cannot make the design cheaper
    assert float(rows[1]["core_cost"]) >= float(rows[0]["core_cost"])


def test_export_only_writes_lp(tmp_path):
    cfg = {"instance": tri_file(tmp_path), "volumes": [100], "speeds": [[10]],
           "solver": "export-only", "out": str(tmp_path / "res")}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p)]) == 0
    cells = tmp_path / "res" / "cells"
    lps = sorted(f.name for f in cells.glob("*.lp"))
    assert lps == ["10G-MTX-0.1T-OPT.lp", "10G-MTX-0.1T-TRA.lp"]
    text = (cells / lps[0]).read_text()
    assert text.startswith("\\ two-layer network design model")
    assert text.rstrip().endswith("End")
    doc = json.loads((cells / "10G-MTX-0.1T-OPT.json").read_text())
    assert doc["status"] == "exported"
    assert doc["variables"] > 0


def test_config_validation(tmp_path, capsys):
    base = tri_file(tmp_path)
    out = tmp_path / "res"

    def run_cfg(cfg):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(p), "--out", str(out)])
        assert not out.exists()  # rejected before any cell ran
        return rc

    assert run_cfg({"instance": base, "bogus": 1}) == 2
    assert "unknown config key" in capsys.readouterr().err
    assert run_cfg({"instance": base, "speeds": [[40]]}) == 2
    assert "unsupported speed set" in capsys.readouterr().err
    assert run_cfg({"instance": base, "matrix": {"name": "bad lower"}}) == 2
    assert "uppercase" in capsys.readouterr().err
    assert run_cfg({"instance": base, "transponder_scales": [0.5]}) == 2
    assert "below 1" in capsys.readouterr().err
    assert run_cfg({"instance": base, "transponder_scales": ["4/3"]}) == 2
    assert "no finite decimal form" in capsys.readouterr().err
    assert run_cfg({"instance": base,
                    "matrix": {"source": "synthetic", "mode": "decentralized"}}) == 2
    assert "explicit target volumes" in capsys.readouterr().err
    assert main(["run"]) == 2
    assert "instance file is required" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    {"matrix": {"name": 5}},
    {"instance": 5},
    {"speeds": [[[10]]]},
    {"volumes": [True]},
    {"seed": True},
    {"out": 5},
    {"architectures": 5},
    {"transponder_scales": 5},
    {"matrix": {"source": "synthetic", "mode": "decentralized", "weights": 5}},
    {"matrix": {"source": "synthetic", "mode": "decentralized",
                "weights": {"a": 1, "b": 0, "c": 2}}},
    {"matrix": {"source": "synthetic", "mode": "decentralized",
                "weights": {"a": 1, "b": "2", "c": 2}}},
    {"matrix": {"source": "synthetic", "mode": "decentralized", "weights": {"a": 1}}},
    {"matrix": {"source": "synthetic", "mode": "centralized", "hub": "a",
                "hub_factor": "x"}},
    {"matrix": {"source": "synthetic", "mode": "centralized", "hub": "a",
                "hub_factor": 0.5}},
    {"matrix": {"source": "synthetic", "mode": "centralized", "hub": "a",
                "hub_factor": True}},
    {"matrix": {"source": "synthetic", "mode": "centralized", "hub": 5}},
    {"matrix": {"source": "synthetic", "mode": "centralized", "hub": "zz"}},
    {"matrix": {"source": "synthetic", "mode": "centralized"}},
    {"matrix": {"source": "synthetic", "mode": "centralized", "hub": "a",
                "hub_factr": 10}},
    {"volumes": [0]},
    {"speeds": []},
    {"architectures": []},
    {"transponder_scales": []},
    {"transponder_scales": ["4/3"]},
    {"speeds": [[40]]},
    {"speeds": [[]]},
    {"transponder_scales": [0.5]},
    {"architectures": ["bogus"]},
    {"architectures": [["optimized"]]},
    {"volumes": [-100]},
    {"matrix": {"source": "synthetic"}},
    {"matrix": {"source": "synthetic", "mode": ["centralized"]}},
    {"matrix": {"source": "synthetic", "mode": "centralized", "hub": ["a"]}},
    {"matrix": {"source": "synthetic", "mode": "decentralized", "hub": "zz"}},
    {"matrix": {"source": "synthetic", "mode": "decentralized", "hub_factor": 0.5}},
], ids=["matrix-name", "instance", "nested-speeds", "bool-volume", "bool-seed", "out",
        "architectures", "scales", "weights-number", "weight-zero", "weight-string",
        "weights-missing", "hub-factor-string", "hub-factor-below-1", "hub-factor-bool",
        "hub-number", "hub-not-pop", "hub-absent", "misspelt-key", "zero-volume",
        "no-speeds", "no-architectures", "no-scales", "scale-without-decimal",
        "speed-40", "empty-speed-set", "scale-below-1", "unknown-architecture",
        "nested-architecture", "negative-volume", "no-mode", "mode-list", "hub-list",
        "decentralized-hub-not-pop", "decentralized-factor-below-1"])
def test_malformed_config_values_exit_2(tmp_path, capsys, bad):
    cfg = {"instance": tri_file(tmp_path), "volumes": [100], "speeds": [[10]],
           "out": str(tmp_path / "res"), **bad}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if bad == {"speeds": [[40]]}:  # found while building the cell's instance
        assert "error: cell 40G-MTX-0.1T-OPT: unsupported speed set (40,)" in err
    assert not (tmp_path / "res").exists()  # rejected before any cell ran


@pytest.mark.parametrize("command", ["run"])
def test_grid_without_demand_exits_2_before_any_cell(tmp_path, capsys, command):
    """An instance without demand lines and a grid without volumes give
    cells of volume 0: a configuration error, found before any cell is
    solved (such cells were once solved and reported as errors)."""
    out = tmp_path / "res"
    inst = write_inst(tmp_path, triangle_instance(demands=()))
    assert main([command, "--instance", inst, "--out", str(out)]) == 2
    assert "error: cell 10+100G-MTX-0T-OPT: target total must be positive, got 0" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, names", [
    ("run", ["10G-MTX-0.077T-s2-OPT", "10G-MTX-0.077T-s2-TRA"]),
])
def test_grid_axes_default_to_the_instance(tmp_path, command, names):
    """Without `speeds` or `transponder_scales` in the config, a grid
    takes the instance's own `param speeds` and `param transponder-scale`,
    as it takes its demand total without `volumes`."""
    inst = write_inst(tmp_path, triangle_instance(
        demands=(("a", "b", 25), ("a", "c", 12), ("b", "c", 40)), speeds=(10,),
        transponder_scale=2))
    out = tmp_path / "res"
    assert main([command, "--instance", inst, "--out", str(out)]) == 0
    assert sorted(p.stem for p in (out / "cells").glob("*.json")) == names


@pytest.mark.parametrize("command", ["run"])
def test_grid_rejects_an_instance_scale_without_decimal_form(tmp_path, capsys, command):
    """A grid that takes its transponder scale from the instance prints it
    in every cell name, so an instance scale with no finite decimal form is
    a configuration error that names the instance parameter and the config
    key that overrides it; nothing is written."""
    inst = write_inst(tmp_path, triangle_instance(transponder_scale=Fraction(4, 3)))
    out = tmp_path / "res"
    assert main([command, "--instance", inst, "--out", str(out)]) == 2
    assert ("error: the instance's param transponder-scale 4/3 has no finite decimal form "
            "for the cell names; list transponder_scales in the config"
            ) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    (None, "cannot read config: "),
    ("{", "config is not valid JSON: "),
    ("[]", "config root must be a JSON object"),
    ('{"matrix": 5}', "config key 'matrix' must be an object"),
    ('{"matrix": {"source": "sndlib"}}', "unknown matrix source 'sndlib'"),
    ('{"speeds": 10}', "config key 'speeds' must be a list of speed sets"),
    ('{"transponder_scales": ["x"]}', "bad transponder scale 'x'"),
    ('{"solver": "cplex"}', "unknown solver 'cplex'"),
], ids=["unreadable", "invalid-json", "root-list", "matrix-number", "unknown-source",
        "speeds-number", "unparsable-scale", "unknown-solver"])
def test_unloadable_config_exits_2(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    if text is not None:  # else there is no file to read
        cfg.write_text(text)
    out = tmp_path / "res"
    assert main(["run", "--config", str(cfg), "--instance", tri_file(tmp_path),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err
    assert not out.exists()


SHARED_NAMES = [  # (case, grid, the name two cells share, the key that repeats)
    ("repeated-scale", {"transponder_scales": [2, 2.0]}, "10G-MTX-0.1T-s2-OPT",
     "transponder_scales"),
    ("repeated-volume", {"volumes": [100, 100]}, "10G-MTX-0.1T-OPT", "volumes"),
    ("repeated-speed-set", {"speeds": [[10], [10]]}, "10G-MTX-0.1T-OPT", "speeds"),
    ("repeated-architecture", {"architectures": ["optimized", "optimized"]},
     "10G-MTX-0.1T-OPT", "architectures"),
]


@pytest.mark.parametrize("command, grid, name, key", [
    pytest.param("run", grid, name, key, id=f"run-{case}")
    for case, grid, name, key in SHARED_NAMES])
def test_grid_rejects_cells_that_share_a_name(tmp_path, capsys, command, grid, name, key):
    cfg = {"instance": tri_file(tmp_path), "volumes": [100], "speeds": [[10]],
           "out": str(tmp_path / "res"), **grid}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main([command, "--config", str(p)]) == 2
    assert f"two grid cells are named {name}: config key {key!r} repeats a value" \
        in capsys.readouterr().err
    assert not (tmp_path / "res").exists()  # rejected before any cell ran


def test_synthetic_matrix_grid(tmp_path):
    cfg = {
        "instance": tri_file(tmp_path),
        "matrix": {"name": "HUB", "source": "synthetic", "mode": "centralized",
                   "hub": "a", "hub_factor": 10},
        "volumes": [120],
        "speeds": [[10]],
        "architectures": ["optimized"],
        "out": str(tmp_path / "res"),
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p)]) == 0
    doc = json.loads(
        (tmp_path / "res" / "cells" / "10G-HUB-0.12T-OPT.json").read_text())
    assert doc["status"] in ("optimal", "feasible")


def test_catalog_command(tmp_path):
    out = tmp_path / "cat.csv"
    assert main(["catalog", "--out", str(out), "--speeds", "10",
                 "--scale", "2"]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 1 + 65 + 10
    assert lines[1].split(",")[0] == "circuit"


def test_catalog_command_prints_the_csv_without_out(tmp_path, capsys):
    out = tmp_path / "cat.csv"
    assert main(["catalog", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["catalog"]) == 0
    assert capsys.readouterr().out == out.read_bytes().decode()


@pytest.mark.parametrize("bad", [["--speeds", "10,40"], ["--scale", "0.5"], ["--scale", "1/0"]],
                         ids=["speed-40", "scale-below-1", "scale-zero-denominator"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_catalog_bad_input_writes_nothing(tmp_path, capsys, bad, to_file):
    out = tmp_path / "cat.csv"
    assert main(["catalog", *bad] + (["--out", str(out)] if to_file else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("scale", ["abc", "nan"])
def test_catalog_names_a_scale_that_is_no_number(tmp_path, capsys, scale):
    out = tmp_path / "cat.csv"
    assert main(["catalog", "--scale", scale, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --scale '{scale}' is not a finite number\n"
    assert not out.exists()


@pytest.mark.parametrize("speeds", ["abc", "", "10,,100"], ids=["word", "empty", "empty-item"])
def test_catalog_names_speeds_that_are_no_numbers(tmp_path, capsys, speeds):
    out = tmp_path / "cat.csv"
    assert main(["catalog", "--speeds", speeds, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --speeds '{speeds}' is not a comma-separated list of "
                            f"whole numbers\n")
    assert not out.exists()


def test_paths_command(tmp_path, capsys):
    rc = main(["paths", "--instance", str(DATA / "toy6.txt"),
               "--expect", "10", "--out", str(tmp_path / "paths.txt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "paths: 8" in out
    assert "deviation -20.00%" in out
    dumped = (tmp_path / "paths.txt").read_text()
    assert dumped.strip()
    rc = main(["paths", "--instance", str(DATA / "toy6.txt"), "--k", "1"])
    assert rc == 0
    assert "paths: 6" in capsys.readouterr().out


def sndlib_files(tmp_path):
    """The three-node SNDlib ring and a PoP file naming all of its nodes."""
    net = tmp_path / "ring.txt"
    net.write_text(SND_FIXTURE)
    pops = tmp_path / "pops.txt"
    pops.write_text("# the ring's PoPs\nessen\n\ndortmund\nkoeln\n")
    return str(net), str(pops)


def test_paths_from_sndlib(tmp_path, capsys):
    """`paths --sndlib` with a PoP file builds the catalog of the SNDlib
    network, and `--out` writes one that `load_paths` reads back. A reach
    that leaves a pair without a path writes that pair's EMPTY line."""
    net, pops = sndlib_files(tmp_path)
    graph = read_sndlib(SND_FIXTURE).graph
    out = tmp_path / "paths.txt"
    assert main(["paths", "--sndlib", net, "--pops", pops, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "paths: 6" in printed
    assert "pairs without any admissible path: 0" in printed
    with open(out) as f:
        cat = load_paths(f, graph)
    assert {pair: [(p.edges, p.length_km) for p in plist]
            for pair, plist in cat.pair_paths.items()} == {
        ("dortmund", "essen"): [(("l1",), 36), (("l2", "l3"), 153)],
        ("dortmund", "koeln"): [(("l1", "l3"), 94), (("l2",), 95)],
        ("essen", "koeln"): [(("l3",), 58), (("l1", "l2"), 131)]}

    assert main(["paths", "--sndlib", net, "--pops", pops, "--max-km", "50",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "paths: 1" in printed
    assert "pairs without any admissible path: 2" in printed
    assert out.read_text() == ("dortmund essen 36 l1\n"
                               "dortmund koeln - EMPTY\n"
                               "essen koeln - EMPTY\n")
    with open(out) as f:
        assert load_paths(f, graph).empty_pairs() == (("dortmund", "koeln"),
                                                      ("essen", "koeln"))


def test_paths_sndlib_needs_pops(tmp_path, capsys):
    out = tmp_path / "paths.txt"
    assert main(["paths", "--sndlib", sndlib_files(tmp_path)[0], "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --sndlib needs --pops" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--k", "--max-km"])
def test_paths_rejects_zero_overrides(capsys, flag):
    assert main(["paths", "--instance", str(DATA / "toy6.txt"), flag, "0"]) == 2
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["nan", "inf"])
def test_paths_names_a_max_km_that_is_no_number(tmp_path, capsys, bound):
    out = tmp_path / "paths.txt"
    assert main(["paths", "--instance", str(DATA / "toy6.txt"), "--max-km", bound,
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --max-km '{bound}' is not a finite number\n"
    assert not out.exists()


@pytest.mark.parametrize("expect", ["0", "-4"])
def test_paths_rejects_expect_below_1(capsys, expect):
    assert main(["paths", "--instance", str(DATA / "toy6.txt"), "--expect", expect]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--expect must be at least 1" in captured.err


@pytest.mark.parametrize("jobs", ["0", "-2"])
@pytest.mark.parametrize("command", ["run"])
def test_grid_rejects_jobs_below_1(tmp_path, capsys, command, jobs):
    out = tmp_path / "res"
    assert main([command, "--instance", tri_file(tmp_path), "--out", str(out),
                 "--jobs", jobs]) == 2
    assert "--jobs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_paths_requires_exactly_one_source(capsys):
    assert main(["paths"]) == 2
    assert "exactly one" in capsys.readouterr().err
