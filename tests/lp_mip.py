"""Test-side LP reader and MIP bridge.

Parses the LP files the package exports and solves them with scipy's milp
(HiGHS), standing in for an external solver in the round-trip checks. Kept
out of the package on purpose: the package must not depend on scipy.
"""

import re
from fractions import Fraction

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp


def _parse_terms(expr):
    coeffs = {}
    sign = Fraction(1)
    pending = None
    for tok in expr.split():
        if tok == "+":
            sign = Fraction(1)
            continue
        if tok == "-":
            sign = Fraction(-1)
            continue
        if re.match(r"^[-+]?[\d.]", tok):
            pending = Fraction(tok)
            continue
        coeffs[tok] = coeffs.get(tok, Fraction(0)) + sign * (
            pending if pending is not None else Fraction(1))
        sign = Fraction(1)
        pending = None
    return coeffs


def parse_lp(text):
    """(objective coeffs, [(name, coeffs, sense, rhs)], generals, binaries)"""
    section = None
    obj = {}
    cons = []
    generals, binaries = [], []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        low = line.lower()
        if low == "minimize":
            section = "obj"
            continue
        if low == "subject to":
            section = "con"
            continue
        if low == "generals":
            section = "gen"
            continue
        if low == "binaries":
            section = "bin"
            continue
        if low == "end":
            break
        if section == "obj":
            _, expr = line.split(":", 1)
            obj = _parse_terms(expr)
        elif section == "con":
            name, rest = line.split(":", 1)
            for sense in ("<=", ">=", "="):
                if f" {sense} " in rest:
                    lhs, rhs = rest.rsplit(f" {sense} ", 1)
                    cons.append((name.strip(), _parse_terms(lhs), sense,
                                 Fraction(rhs.strip())))
                    break
            else:
                raise ValueError(f"constraint without sense: {line!r}")
        elif section == "gen":
            generals.append(line)
        elif section == "bin":
            binaries.append(line)
    return obj, cons, generals, binaries


def _milp(text):
    """HiGHS's result on the parsed LP, and the variable names in column
    order."""
    obj, cons, generals, binaries = parse_lp(text)
    names = sorted(set(obj)
                   | {n for _, coeffs, _, _ in cons for n in coeffs}
                   | set(generals) | set(binaries))
    idx = {n: i for i, n in enumerate(names)}
    c = np.zeros(len(names))
    for n, v in obj.items():
        c[idx[n]] = float(v)
    a = np.zeros((len(cons), len(names)))
    lo = np.full(len(cons), -np.inf)
    hi = np.full(len(cons), np.inf)
    for r, (_, coeffs, sense, rhs) in enumerate(cons):
        for n, v in coeffs.items():
            a[r, idx[n]] = float(v)
        if sense in ("<=", "="):
            hi[r] = float(rhs)
        if sense in (">=", "="):
            lo[r] = float(rhs)
    integrality = np.zeros(len(names))
    upper = np.full(len(names), np.inf)
    for n in generals:
        integrality[idx[n]] = 1
    for n in binaries:
        integrality[idx[n]] = 1
        upper[idx[n]] = 1
    res = milp(c=c, constraints=LinearConstraint(a, lo, hi),
               integrality=integrality, bounds=Bounds(0, upper))
    return res, names


def lp_status(text):
    """scipy's `milp` status for the parsed LP: 0 solved, 2 infeasible."""
    return _milp(text)[0].status


def solve_lp_text(text):
    """Minimize the parsed LP with HiGHS; returns (objective, {name: value})."""
    res, names = _milp(text)
    if res.status != 0:
        raise RuntimeError(f"external MIP failed: {res.message}")
    return res.fun, {n: x for n, x in zip(names, res.x)}
