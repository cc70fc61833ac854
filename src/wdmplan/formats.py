"""Instance I/O: SNDlib native text networks and our own instance format.

The SNDlib reader understands the three sections we need (`NODES`, `LINKS`,
`DEMANDS`). Link lengths come from the routing-cost field by default, since
that is where the public topologies carry km values; when a file has zero
routing costs, lengths can instead be derived from node coordinates
(great-circle, rounded to meters).

The native instance format is line-oriented:

    instance <name>
    param speeds 10 100
    param channels-per-fiber 40
    param max-path-km 750
    param max-paths-per-pair 50
    param transponder-scale 1
    param mode optimized
    node <id> [<x> <y>]
    edge <id> <u> <v> <length_km>
    pop <id> [<id> ...]
    demand <u> <v> <gbps>

Blank lines and `#` comments are ignored; `demand` lines with the same pair
in either direction are merged by summation. An unknown directive or `param`
name, or a value that does not convert or that `Instance` rejects, is an
error naming its line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import asin, cos, radians, sin, sqrt
from typing import IO

from .netmodel import (Demand, Edge, Instance, Node, PhysicalGraph,
                       as_fraction, check_param, merge_directed)

EARTH_RADIUS_KM = 6371.0

# `param` name -> (Instance keyword, converter of the value text)
INSTANCE_PARAMS = {
    "speeds": ("speeds", lambda text: tuple(int(s) for s in text.split())),
    "channels-per-fiber": ("channels_per_fiber", int),
    "max-path-km": ("max_path_km", int),
    "max-paths-per-pair": ("max_paths_per_pair", int),
    "transponder-scale": ("transponder_scale", as_fraction),
    "mode": ("mode", str),
}


def great_circle_km(x1: float, y1: float, x2: float, y2: float) -> Fraction:
    """Great-circle distance from two (longitude, latitude) points, rounded
    to meters and returned exact."""
    lon1, lat1, lon2, lat2 = map(radians, (x1, y1, x2, y2))
    h = sin((lat2 - lat1) / 2) ** 2 + cos(lat1) * cos(lat2) * sin((lon2 - lon1) / 2) ** 2
    km = 2 * EARTH_RADIUS_KM * asin(sqrt(h))
    return Fraction(str(round(km, 3)))


@dataclass
class SndlibNetwork:
    """Parsed SNDlib file: topology plus the raw (unscaled) demand matrix."""

    graph: PhysicalGraph
    raw_demands: dict = field(default_factory=dict)  # (u, v) -> Fraction


def _sndlib_sections(text: str) -> dict[str, list[str]]:
    """Split an SNDlib native file into per-section entry lines.

    A section spans `NAME (` up to a lone `)`. Each entry is one line; a
    line whose parentheses do not balance continues onto the next line
    (module lists occasionally wrap).
    """
    sections: dict[str, list[str]] = {}
    name = None
    entries: list[str] = []
    pending = ""
    for raw in text.splitlines():
        line = re.sub(r"#.*$", "", raw).strip()
        if not line or line.startswith("?"):
            continue
        if name is None:
            m = re.match(r"([A-Z_]+)\s*\(\s*$", line)
            if m:
                name = m.group(1)
                entries = []
                pending = ""
            continue
        if line == ")" and not pending:
            sections[name] = entries
            name = None
            continue
        pending = f"{pending} {line}" if pending else line
        if pending.count("(") == pending.count(")"):
            entries.append(pending)
            pending = ""
    if name is not None:
        if pending:
            entries.append(pending)
        sections[name] = entries
    return sections


def read_sndlib(inp: IO[str] | str, length_source: str = "routing-cost") -> SndlibNetwork:
    """Parse SNDlib native text.

    `length_source`: "routing-cost" (default), "setup-cost", or
    "coordinates" (great-circle from node positions).
    """
    text = inp if isinstance(inp, str) else inp.read()
    if length_source not in ("routing-cost", "setup-cost", "coordinates"):
        raise ValueError(f"unknown length source {length_source!r}")
    sections = _sndlib_sections(text)
    if "NODES" not in sections or "LINKS" not in sections:
        raise ValueError("not an SNDlib network file (NODES/LINKS missing)")

    nodes = []
    for entry in sections["NODES"]:
        m = re.match(r"(\S+)\s*\(\s*([-\d.eE+]+)\s+([-\d.eE+]+)\s*\)", entry)
        if m:
            nodes.append(Node(id=m.group(1), x=float(m.group(2)), y=float(m.group(3))))
        else:
            nodes.append(Node(id=entry.split()[0]))
    by_id = {n.id: n for n in nodes}

    edges = []
    for entry in sections["LINKS"]:
        m = re.match(r"(\S+)\s*\(\s*(\S+)\s+(\S+)\s*\)\s*(.*)$", entry)
        if not m:
            raise ValueError(f"unparsable LINKS entry: {entry!r}")
        eid, u, v, rest = m.groups()
        fields = rest.replace("(", " ( ").split()
        # preCap preCapCost routingCost setupCost ( modules... )
        if length_source == "coordinates":
            a, b = by_id[u], by_id[v]
            if a.x is None or b.x is None:
                raise ValueError(f"node without coordinates on link {eid}")
            length = great_circle_km(a.x, a.y, b.x, b.y)
        else:
            idx = 2 if length_source == "routing-cost" else 3
            if len(fields) <= idx or fields[idx] == "(":
                raise ValueError(f"link {eid} lacks a {length_source} field")
            length = as_fraction(fields[idx])
        if length <= 0:
            raise ValueError(f"link {eid}: non-positive length from {length_source}; "
                             "try length_source='coordinates'")
        edges.append(Edge(id=eid, u=u, v=v, length_km=length))

    raw: dict[tuple[str, str], Fraction] = {}
    for entry in sections.get("DEMANDS", []):
        m = re.match(r"(\S+)\s*\(\s*(\S+)\s+(\S+)\s*\)\s*(\S+)\s+(\S+)", entry)
        if not m:
            raise ValueError(f"unparsable DEMANDS entry: {entry!r}")
        _, u, v, _unit, value = m.groups()
        key = (u, v)
        raw[key] = raw.get(key, Fraction(0)) + as_fraction(value)

    return SndlibNetwork(graph=PhysicalGraph(nodes, edges), raw_demands=merge_directed(raw))


def read_instance(inp: IO[str] | str) -> Instance:
    """Parse the native instance format documented in the module docstring."""
    text = inp if isinstance(inp, str) else inp.read()
    name = ""
    params = {}
    nodes: list[Node] = []
    edges: list[Edge] = []
    pops: list[str] = []
    raw_demands: dict[tuple[str, str], Fraction] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        try:
            if kind == "instance":
                name = " ".join(args)
            elif kind == "param":
                if args[0] not in INSTANCE_PARAMS:
                    raise ValueError(f"unknown param {args[0]!r}")
                keyword, convert = INSTANCE_PARAMS[args[0]]
                params[keyword] = convert(" ".join(args[1:]))
                check_param(keyword, params[keyword])
            elif kind == "node":
                if len(args) == 1:
                    nodes.append(Node(id=args[0]))
                else:
                    nodes.append(Node(id=args[0], x=float(args[1]), y=float(args[2])))
            elif kind == "edge":
                edges.append(Edge(id=args[0], u=args[1], v=args[2],
                                  length_km=as_fraction(args[3])))
            elif kind == "pop":
                pops.extend(args)
            elif kind == "demand":
                key = (args[0], args[1])
                raw_demands[key] = raw_demands.get(key, Fraction(0)) + as_fraction(args[2])
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except (IndexError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"instance file line {lineno}: {exc}") from exc

    merged = merge_directed(raw_demands)
    demands = []
    for (u, v), val in sorted(merged.items()):
        if val != int(val) or val < 1:
            raise ValueError(f"demand {u}-{v}: value must be a positive integer "
                             f"(scale matrices before writing), got {val}")
        demands.append(Demand(u, v, int(val)))

    return Instance(graph=PhysicalGraph(nodes, edges), pops=tuple(pops),
                    demands=tuple(demands), name=name, **params)


def write_instance(instance: Instance, out: IO[str]) -> None:
    """Serialize an instance; read_instance(write_instance(x)) == x."""
    out.write(f"instance {instance.name}\n")
    out.write(f"param speeds {' '.join(str(s) for s in instance.speeds)}\n")
    out.write(f"param channels-per-fiber {instance.channels_per_fiber}\n")
    out.write(f"param max-path-km {instance.max_path_km}\n")
    out.write(f"param max-paths-per-pair {instance.max_paths_per_pair}\n")
    out.write(f"param transponder-scale {instance.transponder_scale}\n")
    out.write(f"param mode {instance.mode}\n")
    for n in instance.graph.nodes:
        if n.x is not None:
            out.write(f"node {n.id} {n.x} {n.y}\n")
        else:
            out.write(f"node {n.id}\n")
    for e in instance.graph.edges:
        out.write(f"edge {e.id} {e.u} {e.v} {e.length_km}\n")
    if instance.pops:
        out.write(f"pop {' '.join(instance.pops)}\n")
    for d in instance.demands:
        out.write(f"demand {d.u} {d.v} {d.value}\n")
