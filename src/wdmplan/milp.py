"""Mixed-integer model of the two-layer design problem.

Variables
  f  continuous >= 0   virtual-layer flow, aggregated per demand source,
                       indexed (source, from-node, to-node)
  yp integer >= 0      circuits (light paths) per admissible physical path
                       and speed
  ye integer >= 0      fibers per physical link
  xn binary            router configuration per PoP (at most one)
  xo binary            optical node configuration per site (at most one)

Constraint kinds
  flow-conservation        per (source, PoP): net outflow = demand balance
  virtual-link-capacity    per PoP pair: flow <= circuit capacity
  physical-link-capacity   per link: channels <= fibers * channels-per-fiber
  module-uniqueness        per node: at most one module of each layer
  virtual-node-capacity    per PoP: local demand + terminating circuit
                           switching load <= router capacity
  slot                     per PoP: router slots consumed by circuits
  fiber                    per site: attached fibers <= node fiber capacity
  add-drop                 per site: terminating circuits <= add-drop ports

Each variable's integrality and objective coefficient live in a shared
`Variable` record, and `Model.variables` maps a name to its record. A model
holds one record per kind and price: one for all its flows, one per circuit
type, one per edge, and one per router or optical-node configuration (in
the transparent variant every router shares the one free record). Records
hash by identity, so a reader that groups variables by record, such as the
LP writer and `evaluate_cost`, handles each price once.

The slot rows are stored scaled by LambdaType.SLOT_UNITS so every
coefficient is an integer (a 10G circuit occupies 1/14 slot, which has no
finite decimal form). Every row coefficient and right-hand side is whole,
and is kept as a Python `int`: an exact rational that costs no `Fraction`
arithmetic. Objective coefficients are `Fraction`s. A solution holds ints
for its integer and binary variables and `Fraction`s for its flows. The
objective is the sum of circuit, fiber, router and optical-node module
costs; interface costs at the network edge are a separate report (see
metrics), never folded into the objective.

Variable and constraint names use only [A-Za-z0-9_] and positional indices
(nodes and edges in sorted-id order, paths in catalog order), so exported
LP files are stable across runs. The mapping back to instance objects lives
in the Model's lookup tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, cycle
from typing import IO

from .costcat import (PHYSICAL_MODULES, SLOT_SURCHARGE_10G, VIRTUAL_MODULES, CostCatalog,
                      LambdaType)
from .netmodel import MODE_OPTIMIZED, MODE_TRANSPARENT, Instance, node_demand
from .pathgen import PathCatalog

CONTINUOUS = "continuous"
INTEGER = "integer"
BINARY = "binary"

# absolute tolerance on values a solver computes in floating point: the
# checker's rows with a continuous variable, the snapping of imported
# integer values and the report's flow decomposition read this one value,
# so `metrics.decompose` accepts exactly the shortfall the checker accepts
TOLERANCE = Fraction(1, 10**6)


class ModelError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Variable:
    """The integrality and objective coefficient of the variables that share
    this record; it hashes and compares by identity."""

    integrality: str
    obj: Fraction


# the records that no input prices: every flow, and a router where routers
# cost nothing (the transparent variant)
_FLOW = Variable(CONTINUOUS, Fraction(0))
_FREE_ROUTER = Variable(BINARY, Fraction(0))


@dataclass(frozen=True)
class Constraint:
    name: str
    kind: str
    coeffs: dict  # varname -> int, only declared variables
    sense: str  # "<=", ">=", "="
    rhs: int


@dataclass
class Solution:
    """Variable assignment; a solver prices what it builds in `objective`."""

    values: dict
    objective: Fraction | None = None


class Model:
    """Variable/constraint tables plus lookup indexes into the instance."""

    def __init__(self, instance: Instance, catalog: PathCatalog,
                 cost_catalog: CostCatalog, transparent: bool = False):
        self.instance = instance
        self.catalog = catalog
        self.cost_catalog = cost_catalog
        self.transparent = transparent
        self.variables: dict[str, Variable] = {}
        self.constraints: list[Constraint] = []
        self.commodities: list[tuple] = []         # (key, origin, {sink: Gbps})
        # structured name lookups
        self.flow_vars: dict[tuple, str] = {}      # (commodity key, i, j) -> name
        self.path_vars: dict[tuple, str] = {}      # (path index, speed) -> name
        self.fiber_vars: dict[str, str] = {}       # edge id -> name
        self.vmod_vars: dict[tuple, str] = {}      # (node, module index) -> name
        self.pmod_vars: dict[tuple, str] = {}      # (node, module index) -> name

    def add_var(self, name: str, var: Variable) -> str:
        """Declare variable `name` with the record `var`, which other
        variables of the same kind and price may share."""
        if name in self.variables:
            raise ModelError(f"duplicate variable {name}")
        self.variables[name] = var
        return name

    def add_constr(self, name: str, kind: str, coeffs: dict, sense: str,
                   rhs: int) -> None:
        if not coeffs.keys() <= self.variables.keys():
            unknown = next(var for var in coeffs if var not in self.variables)
            raise ModelError(f"constraint {name} references unknown {unknown}")
        self.constraints.append(Constraint(name, kind, dict(coeffs), sense, rhs))


def _path_terms(circuits: list, pids, coefs: tuple) -> dict:
    """Row terms of the circuit variables of paths `pids`: `circuits[pid]`
    names a path's variables and `coefs` holds their coefficients, one per
    circuit type in cost-catalog order. A catalog index lists a path's id
    once, as its ends differ and it uses each edge once."""
    names = chain.from_iterable([circuits[pid] for pid in pids])
    return dict(zip(names, cycle(coefs)))


def _indexers(instance: Instance):
    nidx = {n: i for i, n in enumerate(sorted(instance.graph.node_ids()))}
    eidx = {e: i for i, e in enumerate(sorted(e.id for e in instance.graph.edges))}
    return nidx, eidx


def build_model(instance: Instance, catalog: PathCatalog,
                cost_catalog: CostCatalog) -> Model:
    """Construct the optimized-architecture model; demands with the same
    source share one commodity, and so its flow variables. The catalog must
    list exactly the PoP pairs: each gets a capacity row for its flows."""
    pops = sorted(instance.pops)
    pop_pairs = {(i, j) for i in pops for j in pops if i < j}
    missing = min(pop_pairs - catalog.pair_paths.keys(), default=None)
    if missing:
        raise ModelError(f"path catalog lacks PoP pair {missing[0]}-{missing[1]}")
    extra = min(catalog.pair_paths.keys() - pop_pairs, default=None)
    if extra:
        raise ModelError(f"path catalog pair {extra[0]}-{extra[1]} is not a pair of PoPs")
    for d in instance.demands:
        if not catalog.pair_paths.get(d.pair):
            raise ModelError(f"no admissible path for demand pair {d.u}-{d.v}")

    m = Model(instance, catalog, cost_catalog)
    nidx, eidx = _indexers(instance)

    # commodities: (key, origin, {sink: amount})
    commodities = []
    by_source: dict[str, dict[str, int]] = {}
    for d in instance.demands:
        by_source.setdefault(d.u, {})[d.v] = d.value
    for s in sorted(by_source):
        commodities.append((f"{nidx[s]}", s, by_source[s]))
    m.commodities = commodities

    # each commodity's flow names, one per arc (i, j) of PoPs in `arcs` order;
    # the rows below read them by arc position
    arcs = [(i, j) for i in pops for j in pops if i != j]
    arc_pos = {arc: pos for pos, arc in enumerate(arcs)}
    arc_tags = [f"{nidx[i]}_{nidx[j]}" for i, j in arcs]
    flows = []
    for key, _origin, _sinks in commodities:
        names = [m.add_var(f"f_{key}_{tag}", _FLOW) for tag in arc_tags]
        m.flow_vars.update(zip([(key, i, j) for i, j in arcs], names))
        flows.append(names)
    circuits = _add_design_vars(m, nidx, eidx)

    # flow conservation at every PoP for every commodity: out of i (+1) and
    # into i (-1), interleaved per neighbor j
    around = [(i, [pos for j in pops if j != i for pos in (arc_pos[(i, j)], arc_pos[(j, i)])])
              for i in pops]
    for (key, origin, sinks), names in zip(commodities, flows):
        supply = sum(sinks.values())
        for i, positions in around:
            rhs = supply if i == origin else -sinks.get(i, 0)
            m.add_constr(f"conserve_{key}_{nidx[i]}", "flow-conservation",
                         dict(zip([names[pos] for pos in positions], cycle((1, -1)))),
                         "=", rhs)

    # virtual link capacity per unordered PoP pair
    neg_capacity = tuple(-lt.routing_capacity for lt in cost_catalog.lambda_types)
    for (i, j), pids in m.catalog.pair_ids.items():
        ij, ji = arc_pos[(i, j)], arc_pos[(j, i)]
        coeffs = dict.fromkeys(chain.from_iterable((names[ij], names[ji]) for names in flows), 1)
        coeffs.update(_path_terms(circuits, pids, neg_capacity))
        if coeffs:
            m.add_constr(f"vcap_{nidx[i]}_{nidx[j]}", "virtual-link-capacity",
                         coeffs, "<=", 0)

    _add_design_constraints(m, nidx, eidx, circuits)
    return m


def build_transparent_variant(instance: Instance, catalog: PathCatalog,
                              cost_catalog: CostCatalog) -> Model:
    """Transparent-core variant: no IP transit, routers free of charge.

    Router configurations stay installable at zero cost (circuits still
    terminate on routers, consuming capacity and slots), each pair keeps only
    its shortest admissible path, and the virtual flow is pinned to the
    direct hop of each demand, so flow variables disappear from the model and
    each demand's value becomes a constant lower bound on the capacity of its
    own virtual link.
    """
    for d in instance.demands:
        if not catalog.pair_paths.get(d.pair):
            raise ModelError(f"transparent infeasible: unreachable pair {d.u}-{d.v}")

    shortest = {pair: plist[:1] for pair, plist in catalog.pair_paths.items()}
    sub_catalog = PathCatalog(shortest)
    m = Model(instance, sub_catalog, cost_catalog, transparent=True)
    nidx, eidx = _indexers(instance)

    circuits = _add_design_vars(m, nidx, eidx)

    demand_by_pair = {d.pair: d.value for d in instance.demands}
    capacity = tuple(lt.routing_capacity for lt in cost_catalog.lambda_types)
    for (i, j), pids in m.catalog.pair_ids.items():
        coeffs = _path_terms(circuits, pids, capacity)
        if coeffs:
            m.add_constr(f"vcap_{nidx[i]}_{nidx[j]}", "virtual-link-capacity",
                         coeffs, ">=", demand_by_pair.get((i, j), 0))

    _add_design_constraints(m, nidx, eidx, circuits)
    return m


def _add_design_vars(m: Model, nidx: dict, eidx: dict) -> list[tuple[str, ...]]:
    """Circuit, fiber and module variables shared by both architectures,
    one record per circuit type, edge and module; routers cost nothing in
    the transparent variant. Returns each path's circuit variable names, in
    cost-catalog order (see `_path_terms`)."""
    inst, cc = m.instance, m.cost_catalog
    circuit_types = [(lt.speed, Variable(INTEGER, lt.cost)) for lt in cc.lambda_types]
    circuits = []
    for pid in range(len(m.catalog.paths)):
        names = []
        for speed, var in circuit_types:
            names.append(m.add_var(f"yp_{pid}_{speed}", var))
            m.path_vars[(pid, speed)] = names[-1]
        circuits.append(tuple(names))
    for e in sorted(inst.graph.edges, key=lambda e: e.id):
        m.fiber_vars[e.id] = m.add_var(
            f"ye_{eidx[e.id]}", Variable(INTEGER, cc.fiber_cost[e.id]))
    routers = [_FREE_ROUTER if m.transparent else Variable(BINARY, vm.cost)
               for vm in VIRTUAL_MODULES]
    for i in sorted(inst.pops):
        for midx, var in enumerate(routers):
            m.vmod_vars[(i, midx)] = m.add_var(f"xn_{nidx[i]}_{midx}", var)
    oxcs = [Variable(BINARY, pm.cost) for pm in PHYSICAL_MODULES]
    for i in sorted(inst.graph.node_ids()):
        for midx, var in enumerate(oxcs):
            m.pmod_vars[(i, midx)] = m.add_var(f"xo_{nidx[i]}_{midx}", var)
    return circuits


def _add_design_constraints(m: Model, nidx: dict, eidx: dict, circuits: list) -> None:
    """Rows common to both architectures (everything except flow rows)."""
    inst, cc = m.instance, m.cost_catalog
    cat = m.catalog
    d_i = node_demand(inst)
    slot_units = cc.lambda_types[0].SLOT_UNITS

    ones = (1,) * len(cc.lambda_types)
    switching = tuple(lt.switching_capacity for lt in cc.lambda_types)
    slot_use = tuple(lt.slot_units for lt in cc.lambda_types)
    fiber_channels = -inst.channels_per_fiber
    # per module: (capacity, slots) of a router, (fibers, add-drop) of an
    # optical node, as the negative coefficients of its rows
    router_terms = [(-vm.switching_capacity, -vm.slot_capacity * slot_units)
                    for vm in VIRTUAL_MODULES]
    oxc_terms = [(-pm.fiber_capacity, -pm.add_drop_ports) for pm in PHYSICAL_MODULES]

    # channels on each physical link fit into activated fibers
    for e in sorted(inst.graph.edges, key=lambda e: e.id):
        coeffs = _path_terms(circuits, cat.ids_on_edge(e.id), ones)
        coeffs[m.fiber_vars[e.id]] = fiber_channels
        m.add_constr(f"pcap_{eidx[e.id]}", "physical-link-capacity",
                     coeffs, "<=", 0)

    # at most one module per node and layer
    for i in sorted(inst.pops):
        coeffs = {m.vmod_vars[(i, midx)]: 1
                  for midx in range(len(VIRTUAL_MODULES))}
        m.add_constr(f"one_router_{nidx[i]}", "module-uniqueness",
                     coeffs, "<=", 1)
    for i in sorted(inst.graph.node_ids()):
        coeffs = {m.pmod_vars[(i, midx)]: 1
                  for midx in range(len(PHYSICAL_MODULES))}
        m.add_constr(f"one_oxc_{nidx[i]}", "module-uniqueness",
                     coeffs, "<=", 1)

    # router capacity and slots at each PoP
    for i in sorted(inst.pops):
        pids = cat.endpoint_ids(i)
        cap = _path_terms(circuits, pids, switching)
        slots = _path_terms(circuits, pids, slot_use)
        for midx, (cap_coef, slot_coef) in enumerate(router_terms):
            cap[m.vmod_vars[(i, midx)]] = cap_coef
            slots[m.vmod_vars[(i, midx)]] = slot_coef
        m.add_constr(f"ncap_{nidx[i]}", "virtual-node-capacity",
                     cap, "<=", -d_i[i])
        m.add_constr(f"slots_{nidx[i]}", "slot", slots, "<=", 0)

    # fibers and terminating circuits at each optical site
    for i in sorted(inst.graph.node_ids()):
        # `incident` lists each edge once, as a graph has no self-loops
        fib = {m.fiber_vars[e.id]: 1 for e in inst.graph.incident(i)}
        drop = _path_terms(circuits, cat.endpoint_ids(i), ones)
        for midx, (fib_coef, drop_coef) in enumerate(oxc_terms):
            fib[m.pmod_vars[(i, midx)]] = fib_coef
            drop[m.pmod_vars[(i, midx)]] = drop_coef
        m.add_constr(f"fibers_{nidx[i]}", "fiber", fib, "<=", 0)
        m.add_constr(f"adddrop_{nidx[i]}", "add-drop", drop, "<=", 0)


def evaluate_cost(model: Model, solution: Solution | dict) -> Fraction:
    """Objective value of a solution: module/circuit/fiber cost dot product.

    Neither the 10G slot surcharge (`slot_surcharge`) nor the interface
    costs at the network edge (metrics.edge_cost) are part of this value;
    the report adds both.
    """
    values = solution.values if isinstance(solution, Solution) else solution
    if not model.variables.keys() <= values.keys():
        missing = next(name for name in model.variables if name not in values)
        raise ModelError(f"missing variable value: {missing}")
    # each priced record's values add up, then meet its price once
    amounts = {var: 0 for var in set(model.variables.values()) if var.obj}
    for name, var in model.variables.items():
        if var in amounts and values[name]:
            amounts[var] += values[name]
    return sum((var.obj * amount for var, amount in amounts.items() if amount), Fraction(0))


def slot_surcharge(model: Model, values: dict) -> Fraction:
    """Post-processing cost of 3 per router slot occupied by 10G cards: each
    PoP's 10G circuit count over 14, rounded up."""
    if 10 not in {lt.speed for lt in model.cost_catalog.lambda_types}:
        return Fraction(0)
    cat = model.catalog
    slots = 0
    for i in model.instance.pops:
        circuits = sum(values[model.path_vars[(pid, 10)]] for pid in cat.endpoint_ids(i))
        slots += -(-circuits // LambdaType.SLOT_UNITS)
    return SLOT_SURCHARGE_10G * slots


def frac_decimal(x: Fraction | int) -> str:
    """Exact plain-decimal rendering; errors if the denominator is not 2^a 5^b."""
    num, den = x.numerator, x.denominator
    if den == 1:
        return str(num)
    twos = fives = 0
    d = den
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        raise ModelError(f"coefficient {x} has no finite decimal form")
    k = max(twos, fives)
    digits = num * 10**k // den
    sign = "-" if digits < 0 else ""
    digits = abs(digits)
    whole, frac = divmod(digits, 10**k)
    return f"{sign}{whole}.{str(frac).rjust(k, '0')}"


def _term_prefix(coef: Fraction | int) -> str | None:
    """What an LP term with coefficient `coef` writes before its variable
    name when it is not the first term (the first drops a leading "+ ");
    None for a zero term."""
    if coef == 0:
        return None
    mag = frac_decimal(abs(coef))
    lead = "" if mag == "1" else f"{mag} "
    return f"- {lead}" if coef < 0 else f"+ {lead}"


def _lp_terms(terms: dict, rendered: dict) -> str:
    """`terms`, a {variable name: key} map, as an LP expression. `rendered`
    maps a key to its terms' `_term_prefix`, so each is rendered once. A
    row's terms are keyed by coefficient, and a new one is rendered here;
    the objective's are keyed by `Variable` record, rendered beforehand."""
    for coef in set(terms.values()).difference(rendered):
        rendered[coef] = _term_prefix(coef)
    parts = [prefix + name
             for name, prefix in zip(terms, map(rendered.__getitem__, terms.values()))
             if prefix is not None]
    if not parts:
        raise ModelError("empty expression in LP export")
    return " ".join(parts).removeprefix("+ ")


def export_model(model: Model, out: IO[str]) -> None:
    """Write the model as a CPLEX LP format text file.

    Deterministic: same model -> byte-identical file. All variables keep the
    LP-format default lower bound 0; integrality goes to General/Binary
    sections.
    """
    # a model has many terms but few distinct coefficients (see `_lp_terms`)
    rendered: dict[Fraction | int, str | None] = {}
    out.write("\\ two-layer network design model\n")
    out.write(f"\\ architecture: {MODE_TRANSPARENT if model.transparent else MODE_OPTIMIZED}\n")
    # the objective's terms are keyed by record, so each price is rendered once
    by_record = {var: _term_prefix(var.obj) for var in set(model.variables.values())}
    obj = _lp_terms(model.variables, by_record) if any(by_record.values()) else (
        "0 " + next(iter(model.variables)))
    out.write("Minimize\n")
    out.write(f" obj: {obj}\n")
    out.write("Subject To\n")
    for c in model.constraints:
        out.write(f" {c.name}: {_lp_terms(c.coeffs, rendered)} {c.sense} {frac_decimal(c.rhs)}\n")
    generals = [n for n, v in model.variables.items() if v.integrality == INTEGER]
    binaries = [n for n, v in model.variables.items() if v.integrality == BINARY]
    if generals:
        out.write("Generals\n")
        for n in generals:
            out.write(f" {n}\n")
    if binaries:
        out.write("Binaries\n")
        for n in binaries:
            out.write(f" {n}\n")
    out.write("End\n")


def _solution_value(text: str, where: str, via_float: bool) -> Fraction:
    """`text` as a `Fraction`, a decimal through its nearest double if
    `via_float`; `ModelError` naming `where` if it is not a finite number."""
    try:
        return Fraction(str(float(text))) if via_float and "/" not in text else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ModelError(f"{where}: value {text!r} is not a finite number") from None


def import_solution(model: Model, inp: IO[str] | str) -> Solution:
    """Read a solver solution: either `<varname> <value>` lines (with `#`
    comments) or the XML layout mainstream solvers emit (variable name/value
    attributes). The XML reader is imported only when the text is XML.

    Unlisted variables default to 0. Integer/binary variables are snapped to
    the nearest integer, an `int`, when within 1e-6 (solver float noise),
    else rejected; continuous ones stay `Fraction`s.
    A value that is not a finite number, an XML `<variable>` without a name or
    a value, and XML that does not parse raise `ModelError`.
    """
    text = inp if isinstance(inp, str) else inp.read()
    raw: dict[str, Fraction] = {}
    stripped = text.lstrip()
    if stripped.startswith("<"):
        import xml.etree.ElementTree as ET  # only XML solutions need the reader
        try:
            root = ET.fromstring(text)
        except ET.ParseError as e:
            raise ModelError(f"solution XML does not parse: {e}") from None
        for var in root.iter("variable"):
            name, value = var.get("name"), var.get("value")
            if name is None:
                raise ModelError("solution XML: a <variable> has no name")
            if value is None:
                raise ModelError(f"variable {name}: no value")
            raw[name] = _solution_value(value, f"variable {name}", via_float=False)
    else:
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ModelError(f"solution line {lineno}: expected '<name> <value>'")
            raw[parts[0]] = _solution_value(parts[1], f"solution line {lineno}", via_float=True)

    values = {}
    for name, var in model.variables.items():
        v = raw.pop(name, Fraction(0))
        if var.integrality in (INTEGER, BINARY):
            nearest = round(v)
            if abs(v - nearest) > TOLERANCE:
                raise ModelError(f"{name}: fractional value {float(v)} for integer variable")
            v = nearest
        values[name] = v
    if raw:
        unknown = sorted(raw)[:5]
        raise ModelError(f"solution names unknown to the model: {unknown}")
    return Solution(values)
