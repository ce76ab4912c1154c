"""Exact checks of nama's CLI outputs, written independently of nama.

Nothing here imports nama: the cell volumes, hulls and graph Laplacians
are recomputed from the instance with plain ``fractions.Fraction``
arithmetic, so a defect in the program cannot hide in its own check.
Every check returns True when the output is correct.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Point = Tuple[Fraction, Fraction]


def q(value) -> Fraction:
    """A JSON scalar as an exact rational: "p/q" strings, ints, or floats
    (a binary float converts to Fraction without rounding)."""
    if isinstance(value, str) and "/" in value:
        num, den = value.split("/")
        return Fraction(int(num), int(den))
    return Fraction(value)


# -- planar geometry -----------------------------------------------------


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: Sequence[Point]) -> List[Point]:
    """Counter-clockwise hull without collinear points (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts
    lower: List[Point] = []
    upper: List[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def area(polygon: Sequence[Point]) -> Fraction:
    """Area of a counter-clockwise polygon (shoelace formula)."""
    total = Fraction(0)
    for i, (x0, y0) in enumerate(polygon):
        x1, y1 = polygon[(i + 1) % len(polygon)]
        total += x0 * y1 - x1 * y0
    return total / 2


def _clip(polygon: List[Point], a: Point, b: Fraction) -> List[Point]:
    """Sutherland-Hodgman: polygon intersected with {m : <a, m> <= b}."""
    out: List[Point] = []
    for i, p in enumerate(polygon):
        r = polygon[(i + 1) % len(polygon)]
        sp = a[0] * p[0] + a[1] * p[1] - b
        sr = a[0] * r[0] + a[1] * r[1] - b
        if sp <= 0:
            out.append(p)
        if (sp < 0 < sr) or (sr < 0 < sp):
            s = sp / (sp - sr)
            out.append((p[0] + s * (r[0] - p[0]), p[1] + s * (r[1] - p[1])))
    return out


def laguerre_masses(delta: Sequence[Point], sites: Sequence[Point], t) -> List[Fraction]:
    """Area of each site's cell {m in Delta : <x_a,m> - t_a >= <x_b,m> - t_b}."""
    base = convex_hull(delta)
    masses = []
    for xa, ta in zip(sites, t):
        cell = base
        for xb, tb in zip(sites, t):
            if xb == xa or len(cell) < 3:
                continue
            cell = _clip(cell, (xb[0] - xa[0], xb[1] - xa[1]), tb - ta)
        masses.append(area(cell) if len(cell) >= 3 else Fraction(0))
    return masses


# -- toric outputs -------------------------------------------------------


def toric_mass(result: Dict, volume: Fraction) -> bool:
    """envelope/energy: the MA atoms (when listed) are positive and, like
    the reported total mass, add up to vol(Delta)."""
    sol = result["solution"]
    if q(sol["total_mass"]) != volume:
        return False
    if "atoms" in sol:
        weights = [q(a["weight"]) for a in sol["atoms"]]
        return all(w > 0 for w in weights) and sum(weights) == volume
    return True


def dirac_residual(result: Dict, instance: Dict) -> bool:
    """solve: the cells of the envelope rebuilt from the output t carry the
    target weights within tol * vol(Delta)."""
    delta = [tuple(q(c) for c in v) for v in instance["polytope"]["vertices"]]
    sites = [tuple(q(c) for c in x) for x in instance["sites"]]
    weights = [q(w) for w in instance["weights"]]
    t = [q(x) for x in result["solution"]["t"]]
    if len(t) != len(sites):
        return False
    vol = area(convex_hull(delta))
    masses = laguerre_masses(delta, sites, t)
    tol = q(instance["solver"]["tol"])
    return max(abs(m - w) for m, w in zip(masses, weights)) <= tol * vol


# -- curve outputs -------------------------------------------------------


def _profile(edge, values, bps):
    u, v, _ = edge
    return [(Fraction(0), values[u]), *bps, (Fraction(1), values[v])]


def _graph_function(instance: Dict, result: Dict):
    edges = [(u, v, q(l)) for u, v, l in instance["graph"]["edges"]]
    sol = result["solution"]
    values = [q(x) for x in sol["values"]]
    bps = [[(q(p), q(x)) for p, x in e] for e in sol["breakpoints"]] or [[] for _ in edges]
    return edges, values, bps


def _ddc(edges, values, bps):
    """Sum of outgoing slopes at each vertex and interior breakpoint."""
    at_vertex = [Fraction(0)] * len(values)
    interior: Dict[Tuple[int, Fraction], Fraction] = {}
    for e, edge in enumerate(edges):
        prof = _profile(edge, values, bps[e])
        for (p0, x0), (p1, x1) in zip(prof, prof[1:]):
            slope = (x1 - x0) / (edge[2] * (p1 - p0))
            for pos, s in ((p0, slope), (p1, -slope)):
                if pos == 0:
                    at_vertex[edge[0]] += s
                elif pos == 1:
                    at_vertex[edge[1]] += s
                else:
                    interior[(e, pos)] = interior.get((e, pos), Fraction(0)) + s
    return at_vertex, interior


def _measure(atoms, n: int):
    """Instance/result measure atoms as (vertex weights, {(edge, pos): w})."""
    at_vertex = [Fraction(0)] * n
    interior: Dict[Tuple[int, Fraction], Fraction] = {}
    for atom in atoms:
        if "vertex" in atom:
            at_vertex[atom["vertex"]] += q(atom["weight"])
        else:
            key = (atom["edge"], q(atom["pos"]))
            interior[key] = interior.get(key, Fraction(0)) + q(atom["weight"])
    return at_vertex, {k: w for k, w in interior.items() if w != 0}


def green_function(result: Dict, instance: Dict) -> bool:
    """green: dd^c g = delta_x - delta_y and g(y) = 0."""
    edges, values, bps = _graph_function(instance, result)
    at_vertex, interior = _ddc(edges, values, bps)
    expect = [Fraction(0)] * len(values)
    expect[instance["x"]] += 1
    expect[instance["y"]] -= 1
    return (
        at_vertex == expect
        and not any(interior.values())
        and values[instance["y"]] == 0
    )


def poisson_solution(result: Dict, instance: Dict) -> bool:
    """poisson: omega + dd^c phi = mu, sup phi = 0, and the reported
    curvature is mu."""
    edges, values, bps = _graph_function(instance, result)
    n = len(values)
    omega_v, omega_i = _measure(instance["omega"], n)
    mu = _measure(instance["mu"], n)
    at_vertex, interior = _ddc(edges, values, bps)
    rho_v = [a + b for a, b in zip(omega_v, at_vertex)]
    rho_i = dict(omega_i)
    for key, w in interior.items():
        rho_i[key] = rho_i.get(key, Fraction(0)) + w
    rho = (rho_v, {k: w for k, w in rho_i.items() if w != 0})
    top = max(values + [x for e in bps for _, x in e])
    return rho == mu and top == 0 and _measure(result["solution"]["curvature"], n) == mu


def _integrate(edges, values, bps, atoms) -> Fraction:
    total = Fraction(0)
    for atom in atoms:
        w = q(atom["weight"])
        if "vertex" in atom:
            total += w * values[atom["vertex"]]
            continue
        e, pos = atom["edge"], q(atom["pos"])
        prof = _profile(edges[e], values, bps[e])
        for (p0, x0), (p1, x1) in zip(prof, prof[1:]):
            if p0 <= pos <= p1:
                total += w * (x0 + (x1 - x0) * (pos - p0) / (p1 - p0))
                break
    return total


def curve_energy(result: Dict, instance: Dict, poisson_result: Dict) -> bool:
    """energy of a curve-poisson instance, against the checked solution phi
    of the same instance: pairing = int phi dmu and, since omega + dd^c phi
    = mu, energy = (int phi domega + int phi dmu) / 2."""
    edges, values, bps = _graph_function(instance, poisson_result)
    with_omega = _integrate(edges, values, bps, instance["omega"])
    with_mu = _integrate(edges, values, bps, instance["mu"])
    sol = result["solution"]
    return q(sol["pairing"]) == with_mu and q(sol["energy"]) == (with_omega + with_mu) / 2


# -- suite reports -------------------------------------------------------


def suite_failures(report: Dict, cases: int) -> int:
    """check: number of cases that failed; a malformed report fails all."""
    if report.get("cases") != cases or not isinstance(report.get("failures"), list):
        return cases
    return len({f["seed"] for f in report["failures"]})
