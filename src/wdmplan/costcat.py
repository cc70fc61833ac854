"""Equipment catalog and capex rules for the two-layer network design problem.

All monetary values are unitless cost units normalized to the price of a 10G
long-haul transponder (1.0). They are kept as `fractions.Fraction` so that
catalog arithmetic and objective evaluation are exact; convert with `float()`
for display.

The catalog covers:

* wavelength circuit types (10G / 100G), with routing capacity, switching
  capacity, router slot share and per-circuit cost,
* preconfigured IP router configurations (a small 11-slot chassis and a big
  16-slot chassis with a multichassis option),
* optical cross-connect / ROADM node configurations,
* length-dependent per-fiber link cost (line amplifiers, gain equalizers,
  dispersion compensation).

The router and optical-node tables depend on no input, so they are built
once, at import, as `VIRTUAL_MODULES` and `PHYSICAL_MODULES`, and the model
and the solvers read them there. Circuit and fiber prices depend on the
instance (its speeds, transponder scale and link lengths) and are priced
per `CostCatalog`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import IO, Iterable

from .netmodel import SPEEDS, as_fraction, check_param

# Circuit (transponder) unit costs and the gray short-reach interface costs,
# per end.  A circuit needs one transponder and one SR plug at each end; for
# 100G the SR plug is accounted in the router slot price instead.
TRANSPONDER_COST = {10: Fraction(1), 100: Fraction(8)}
SR_TRANSCEIVER_COST = {10: Fraction(1, 2), 100: Fraction(2)}

# Optical line equipment: one amplifier every 80 km (minus the terminal
# sites), a gain equalizer at every fourth amplifier site, and dispersion
# compensating fiber priced per km.
AMPLIFIER_COST = Fraction("1.92")
AMPLIFIER_SPACING_KM = 80
EQUALIZER_COST = Fraction("2.17")
EQUALIZER_EVERY_N_AMPLIFIERS = 4
DISPERSION_COST_PER_KM = Fraction("0.0072")

# Router families.  The big router (type1) supports multichassis stacking in
# 16-slot chassis up to 64 slots at a one-off interconnect charge; densities
# up to 10 slots are always served by the small router (type2).
TYPE2_BASE_COST = Fraction(12)
TYPE2_SLOT_COST = Fraction(16)
TYPE2_SLOT_CAPACITY_GBPS = 120
TYPE2_MAX_SLOTS = 11

TYPE1_BASE_COST = Fraction("27.25")
TYPE1_SLOT_COST = Fraction(22)
TYPE1_SLOT_CAPACITY_GBPS = 140
TYPE1_CHASSIS_SLOTS = 16
TYPE1_MIN_SLOTS = 11
TYPE1_MAX_SLOTS = 64
MULTICHASSIS_COST = Fraction(50)

# A preconfigured slot is priced without the 10G short-reach plugs and, for
# 10G line cards, 3 cost units below the real card price.  The difference is
# charged per occupied slot in a post-processing step on final solutions.
SLOT_SURCHARGE_10G = Fraction(3)


@dataclass(frozen=True)
class LambdaType:
    """One wavelength circuit type.

    `routing_capacity` is the bit rate offered to IP flow, while
    `switching_capacity` is what terminating the circuit consumes at the two
    end routers (for 100G the card switches 120 Gbps although it routes 100).
    `slot_share` is the fraction of a router slot one circuit occupies at
    each end node.
    """

    speed: int
    routing_capacity: int
    switching_capacity: int
    slot_share: Fraction
    cost: Fraction

    # Slot constraints are kept in integer units of 1/SLOT_UNITS slot to stay
    # exact; 14 circuits of 10G fill one slot, one 100G circuit fills a slot.
    SLOT_UNITS = 14

    @property
    def slot_units(self) -> int:
        return int(self.slot_share * self.SLOT_UNITS)


def lambda_type(speed: int, transponder_scale=1) -> LambdaType:
    """Return the circuit type for `speed` Gbps with scaled transponder cost.

    `transponder_scale` multiplies the transponder unit price only (the SR
    plugs keep their price), which is how circuit-cost sweeps are expressed.
    """
    check_param("speeds", (speed,))
    scale = as_fraction(transponder_scale)
    check_param("transponder_scale", scale)
    if speed == 10:
        # two transponders plus two gray short-reach plugs
        cost = 2 * TRANSPONDER_COST[10] * scale + 2 * SR_TRANSCEIVER_COST[10]
        return LambdaType(10, routing_capacity=10, switching_capacity=10,
                          slot_share=Fraction(1, 14), cost=cost)
    # 100G: the SR plug is included in the preconfigured slot price
    cost = 2 * TRANSPONDER_COST[100] * scale
    return LambdaType(100, routing_capacity=100, switching_capacity=120,
                      slot_share=Fraction(1), cost=cost)


@dataclass(frozen=True)
class VirtualNodeModule:
    """A preconfigured IP router: chassis plus a number of equipped slots."""

    router_type: str
    chassis: int
    switching_capacity: int
    slot_capacity: int
    cost: Fraction

    @property
    def name(self) -> str:
        return f"{self.router_type}-{self.slot_capacity}slot"


def enumerate_virtual_modules() -> list[VirtualNodeModule]:
    """Enumerate all installable router configurations, ascending by capacity.

    The configuration list does not depend on the circuit speed: slot prices
    are speed-neutral, and the 10G slot surcharge is a post-processing cost.
    """
    modules = []
    for slots in range(1, TYPE2_MAX_SLOTS + 1):
        modules.append(VirtualNodeModule(
            router_type="type2",
            chassis=1,
            switching_capacity=TYPE2_SLOT_CAPACITY_GBPS * slots,
            slot_capacity=slots,
            cost=TYPE2_BASE_COST + TYPE2_SLOT_COST * slots,
        ))
    for slots in range(TYPE1_MIN_SLOTS, TYPE1_MAX_SLOTS + 1):
        chassis = ceil(slots / TYPE1_CHASSIS_SLOTS)
        cost = TYPE1_BASE_COST * chassis + TYPE1_SLOT_COST * slots
        if slots > TYPE1_CHASSIS_SLOTS:
            cost += MULTICHASSIS_COST
        modules.append(VirtualNodeModule(
            router_type="type1",
            chassis=chassis,
            switching_capacity=TYPE1_SLOT_CAPACITY_GBPS * slots,
            slot_capacity=slots,
            cost=cost,
        ))
    modules.sort(key=lambda m: m.switching_capacity)
    return modules


@dataclass(frozen=True)
class PhysicalNodeModule:
    """An optical node configuration: ROADM or optical cross-connect."""

    name: str
    fiber_capacity: int
    add_drop_ports: int
    cost: Fraction


def physical_modules() -> list[PhysicalNodeModule]:
    """The ten installable optical node configurations."""
    modules = [
        PhysicalNodeModule("roadm-50", 2, 40, Fraction("11.67")),
        PhysicalNodeModule("roadm-100", 2, 80, Fraction("17.5")),
    ]
    for degree in range(3, 6):
        modules.append(PhysicalNodeModule(
            f"oxc-{degree}", degree, 40 * degree,
            Fraction("2.5") + degree * Fraction("8.33")))
    for degree in range(6, 11):
        modules.append(PhysicalNodeModule(
            f"oxc-{degree}", degree, 40 * degree,
            Fraction("2.75") + degree * Fraction("8.99")))
    return modules


# the installable configurations, shared by every cost catalog
VIRTUAL_MODULES = tuple(enumerate_virtual_modules())
PHYSICAL_MODULES = tuple(physical_modules())


def amplifier_count(length_km) -> int:
    """Number of in-line amplifiers on a fiber of the given length."""
    length = as_fraction(length_km)
    return max(0, ceil(length / AMPLIFIER_SPACING_KM) - 1)


def equalizer_count(amplifiers: int) -> int:
    """Number of dynamic gain equalizers on a fiber with `amplifiers` in-line
    amplifiers (`amplifier_count`)."""
    return max(0, -(-amplifiers // EQUALIZER_EVERY_N_AMPLIFIERS) - 1)


def fiber_link_cost(length_km) -> Fraction:
    """Cost of operating one fiber on a link of `length_km` km.

    Sum of amplifier, gain-equalizer and dispersion-compensation cost; the
    counts clamp to zero on short links.
    """
    length = as_fraction(length_km)
    if length <= 0:
        raise ValueError(f"link length must be positive, got {length_km}")
    amplifiers = amplifier_count(length)
    return (amplifiers * AMPLIFIER_COST + equalizer_count(amplifiers) * EQUALIZER_COST
            + DISPERSION_COST_PER_KM * length)


@dataclass(frozen=True)
class CostCatalog:
    """The instance-dependent prices of a design: circuits and fibers (the
    module tables are `VIRTUAL_MODULES` and `PHYSICAL_MODULES`)."""

    lambda_types: tuple[LambdaType, ...]
    fiber_cost: dict  # edge id -> Fraction


def build_cost_catalog(instance) -> CostCatalog:
    """Price catalog for an instance (its speeds, transponder scale, links)."""
    lts = tuple(lambda_type(s, instance.transponder_scale) for s in sorted(instance.speeds))
    return CostCatalog(
        lambda_types=lts,
        fiber_cost={e.id: fiber_link_cost(e.length_km) for e in instance.graph.edges},
    )


def dump_catalog_csv(out: IO[str], speeds: Iterable[int] = SPEEDS,
                     transponder_scale=1) -> None:
    """Write the full catalog as CSV for auditing.

    Columns: kind, name, capacity_gbps, slots_or_fibers, ports, cost.
    Circuit rows carry routing capacity in capacity_gbps and the slot share
    (as a fraction string) in slots_or_fibers. Every row is built, which
    validates the speeds and the scale, before the first one is written.
    """
    rows = [["kind", "name", "capacity_gbps", "slots_or_fibers", "ports", "cost"]]
    for s in sorted(set(speeds)):
        lt = lambda_type(s, transponder_scale)
        rows.append(["circuit", f"{s}G", lt.routing_capacity,
                     str(lt.slot_share), "", float(lt.cost)])
    for vm in VIRTUAL_MODULES:
        rows.append(["router", vm.name, vm.switching_capacity,
                     vm.slot_capacity, "", float(vm.cost)])
    for pm in PHYSICAL_MODULES:
        rows.append(["optical-node", pm.name, "", pm.fiber_capacity,
                     pm.add_drop_ports, float(pm.cost)])
    csv.writer(out).writerows(rows)
