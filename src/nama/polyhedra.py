"""Exact rational convex geometry in ambient dimension 1 and 2.

Hulls, half-space clipping, power diagrams (Laguerre cells), volumes,
centroids, Minkowski sums and lower convex hulls of lifted point sets, all
with no rounding.  A polytope holds its vertices once, as a canonical loop
of integer homogeneous points (X, Y, W); every constructor makes that loop,
every kernel reads it, and every test is the sign of one integer
determinant.  Its facets (`integer_facets`) and moment sums (`moment_sums`,
which give every volume, mass, centroid and integral) are read off the loop
once.  Points and half-spaces enter the API as `fractions.Fraction` tuples;
`Polytope.vertices` is a Fraction view made only when read.  Clipping runs
one Sutherland-Hodgman loop on the homogeneous points.  Sites with values
enter the power diagram as one `IntegerSites`, integer pairs over one
denominator and values over another, and `integer_sites` is the one
converter from rational (site, value) pairs.  The diagram comes from the
regular triangulation of the lifted sites: only its vertices have cells,
each the body cut by its neighbours; the walls are the edges the final
loops share, matched when read.  The diagram hands out its cells, and its
masses and wall weights only as integers over one denominator each
(`integer_masses`, `integer_walls`).  Every diagram is certified once: its
masses sum to the body's volume (`certified_volumes`), and a walk shows
each removed site on or above the triangulation.  Lower hulls gift-wrap
over integer triples, pass the same mass sum and hand out their generators
as `IntegerSites` and the masses it certified, which a potential keeps;
`lower_hull` only converts Fractions.  `power_diagram` and `_lower_hull`
own one rule: a repeated site counts at its lowest value.  Empty and
lower-dimensional polytopes are ordinary values (volume 0), as cells
degenerate while a solver walks through potential space.  Dimensions 3
and higher are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    ConsistencyError,
    DegenerateSpan,
    DimensionMismatch,
    DimensionUnsupported,
    EmptyInput,
)
from .linalg import integers

Point = Tuple[Fraction, ...]

_ZERO = Fraction(0)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) == 2:
        return a[0] * b[0] + a[1] * b[1]
    return a[0] * b[0]


def sub(a: Point, b: Point) -> Point:
    return tuple(x - y for x, y in zip(a, b))


def add(a: Point, b: Point) -> Point:
    return tuple(x + y for x, y in zip(a, b))


@dataclass(frozen=True)
class Polytope:
    """A rational polytope given by its irredundant vertices.

    Vertices are stored canonically as `loop`, integer homogeneous points
    (X, Y, W) for (X/W, Y/W), W > 0, gcd(X, Y, W) = 1 and Y = 0 in 1-D,
    counterclockwise from the lexicographic minimum (sorted for fewer than
    three vertices), so equal polytopes are equal values.  `affine_dim`
    is -1 for the empty polytope.  `vertices`, the Fraction points, and,
    of a full-dimensional polytope, `integer_facets`, its half-spaces on
    integers, and `moment_sums`, are computed on first read.
    """

    dim: int
    loop: Tuple[Tuple[int, int, int], ...]
    affine_dim: int

    @cached_property
    def vertices(self) -> Tuple[Point, ...]:
        return tuple(_from_homogeneous(h, self.dim) for h in self.loop)

    @cached_property
    def integer_facets(self) -> Tuple[Tuple[int, int, int], ...]:
        """The facets of a full-dimensional polytope as `_cut` takes them:
        (A0, A1, B) for {A0 X + A1 Y <= B W}, read off the loop, each a
        facet's outward normal and offset times a positive factor.  In 1-D
        they are the ends -W0 X <= -X0 W and W1 X <= X1 W; in 2-D each edge
        (X0, Y0, W0) -> (X1, Y1, W1) of the counterclockwise loop gives
        (Y1 W0 - Y0 W1, X0 W1 - X1 W0, X0 Y1 - X1 Y0)."""
        loop = self.loop
        if self.dim == 1:
            (x0, _, w0), (x1, _, w1) = loop
            return ((-w0, 0, -x0), (w1, 0, x1))
        return tuple([(y1 * w0 - y0 * w1, x0 * w1 - x1 * w0, x0 * y1 - x1 * y0)
                      for (x0, y0, w0), (x1, y1, w1) in zip(loop, loop[1:] + loop[:1])])

    @cached_property
    def moment_sums(self) -> Tuple[int, int, int, int]:
        """The `_moment_sums` of a full-dimensional polytope's loop."""
        return _moment_sums(self.loop, self.dim)

    @property
    def is_empty(self) -> bool:
        return self.affine_dim < 0

    @property
    def is_full_dimensional(self) -> bool:
        return self.affine_dim == self.dim

    def scaled(self, s: Fraction) -> "Polytope":
        """s p for s > 0; a positive scaling keeps the canonical vertex order."""
        s = Fraction(s)
        if s <= 0:
            raise ValueError("scaling factor must be positive")
        a, b = s.numerator, s.denominator
        return Polytope(self.dim, tuple(_point(a * x, a * y, b * w) for x, y, w in self.loop), self.affine_dim)


def _convex_loop(idx: List[int], pts) -> List[int]:
    """Andrew's monotone chain over indices into integer points, given in
    lexicographic order: the counterclockwise loop of strict corners from
    the lexicographic minimum, or the two end indices of collinear points."""

    def chain(seq):
        out = []
        for i in seq:
            while len(out) > 1 and _orient(pts[out[-2]], pts[out[-1]], pts[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    return chain(idx)[:-1] + chain(idx[::-1])[:-1]


def _empty(dim: int) -> Polytope:
    return Polytope(dim, (), -1)


def hull(points, dim: Optional[int] = None) -> Polytope:
    """Convex hull with an irredundant vertex list.

    Lower-dimensional hulls are returned flagged with their affine
    dimension; interior and collinear points are dropped.  The points are
    put over one common denominator d for `hull_over`.
    """
    pts = [tuple(p) for p in points]
    if not pts:
        raise EmptyInput("hull of zero points")
    n = dim if dim is not None else len(pts[0])
    for p in pts:
        if len(p) != n:
            raise DimensionMismatch(f"point {p} does not have dimension {n}")
    return hull_over(n, *integers([c for p in pts for c in p]))


def hull_over(n: int, coords: List[int], d: int) -> Polytope:
    """The hull of the points whose n coordinates, listed point by point,
    are the integers `coords` over d: the monotone chain runs on integers
    and each corner is canonicalised with one gcd."""
    if n >= 3:
        raise DimensionUnsupported(f"exact mode supports dimensions 1 and 2, got {n}")
    if n < 1:
        raise DimensionUnsupported(f"dimension must be >= 1, got {n}")
    uniq = sorted(set(zip(coords[0::2], coords[1::2]) if n == 2 else [(x, 0) for x in coords]))
    loop = _convex_loop(list(range(len(uniq))), uniq) or [0]
    return Polytope(n, tuple(_point(*uniq[i], d) for i in loop), min(len(loop), 3) - 1)


# --------------------------------------------------------------------------
# Half-space clipping on integer homogeneous coordinates.
#
# A polytope's loop, and so the clipping loop, holds a point m as the
# integer triple (X, Y, W) with W > 0 and gcd(X, Y, W) = 1, so
# m = (X/W, Y/W); a 1-D point is (X, 0, W).  The representation is
# canonical, so equal points are equal tuples.  A
# half-space {<a, m> <= b} is the integer triple (A0, A1, B), (a, b) times
# a positive common denominator; m satisfies it iff A0 X + A1 Y - B W <= 0.
# --------------------------------------------------------------------------


def _planar(p) -> tuple:
    """A 1-D point or normal as its 2-D embedding (x, 0)."""
    return (p[0], 0) if len(p) == 1 else tuple(p)


def _point(x: int, y: int, w: int) -> Tuple[int, int, int]:
    """The canonical homogeneous point of (x/w, y/w), w > 0."""
    g = gcd(x, y, w)
    return (x // g, y // g, w // g)


def _from_homogeneous(h, dim: int) -> Point:
    x, y, w = h
    return (Fraction(x, w), Fraction(y, w))[:dim]


def _cut(loop, a0: int, a1: int, b: int):
    """One Sutherland-Hodgman pass of `loop` against {a0 X + a1 Y <= b W}.

    `loop` lists distinct homogeneous points in boundary order: a strictly
    convex polygon, a segment (2 points) or a point.  Returns `loop` itself
    when no point violates the half-space, [] when every point does, and
    otherwise the kept points plus the crossing points, without repeats.  A
    polygon's crossing points lie strictly inside distinct edges, so only a
    segment, whose loop runs there and back, needs the dedupe pass.
    """
    vals = [a0 * x + a1 * y - b * w for x, y, w in loop]
    if max(vals) <= 0:
        return loop
    if min(vals) > 0:
        return []
    out = []
    p, fp = loop[-1], vals[-1]
    for q, fq in zip(loop, vals):
        if (fp < 0 < fq) or (fq < 0 < fp):
            # f_q P - f_p Q lies on the line; its W has the sign of f_q.
            x, y, w = fq * p[0] - fp * q[0], fq * p[1] - fp * q[1], fq * p[2] - fp * q[2]
            if w < 0:
                x, y, w = -x, -y, -w
            g = gcd(x, y, w)
            out.append((x // g, y // g, w // g))
        if fq <= 0:
            out.append(q)
        p, fp = q, fq
    return out if len(loop) > 2 else list(dict.fromkeys(out))


def _from_loop(loop, n: int) -> Polytope:
    """The polytope bounded by a `_cut` result, built without a hull:
    fewer than three points are a point or a segment, more a strictly
    convex counterclockwise polygon (Sutherland-Hodgman on a strictly
    convex loop keeps some of its corners plus at most two crossing points
    inside edges, so no three are collinear), only rotated to start at its
    lexicographic minimum, found by comparing cross-multiplied integers."""
    i0 = 0
    for i, (x, y, w) in enumerate(loop):
        x0, y0, w0 = loop[i0]
        if (x * w0, y * w0) < (x0 * w, y0 * w):
            i0 = i
    return Polytope(n, tuple(loop[i0:] + loop[:i0]), min(len(loop), 3) - 1)


def clip(p: Polytope, halfspaces) -> Polytope:
    """Intersect a polytope with half-spaces {<a,m> <= b}, exactly."""
    if p.is_empty or not halfspaces:
        return p
    n = p.dim
    cuts = []
    for a, b in halfspaces:
        if len(a) != n:
            raise DimensionMismatch(f"normal {tuple(a)} does not have dimension {n}")
        cuts.append(integers(_planar(a) + (b,))[0])
    loop = p.loop
    for cut in cuts:
        loop = _cut(loop, *cut)
        if not loop:
            return _empty(n)
    return p if loop is p.loop else _from_loop(loop, n)


class IntegerSites(NamedTuple):
    """Sites with values on integers, the input of `power_diagram`: sites
    x_a = (X_a, Y_a) / d (Y_a = 0 in 1-D) and values t_a = T_a / e."""

    xs: List[Tuple[int, int]]
    d: int
    ts: List[int]
    e: int


def integer_sites(pairs, n: Optional[int] = None) -> IntegerSites:
    """Rational (site, value) pairs as IntegerSites, the sites and the values
    each over the lcm of their denominators, sites checked against a given
    dimension n; IntegerSites pass as they are."""
    if isinstance(pairs, IntegerSites):
        return pairs
    pairs = list(pairs)
    for x, _ in pairs:
        if n is not None and len(x) != n:
            raise DimensionMismatch(f"site {tuple(x)} vs dimension {n}")
    coords, d = integers([c for x, _ in pairs for c in _planar(x)])
    return IntegerSites(list(zip(coords[0::2], coords[1::2])), d, *integers([t for _, t in pairs]))


def power_diagram(body: Polytope, sites: IntegerSites) -> "PowerDiagram":
    """The `PowerDiagram` of `sites` in a full-dimensional body.  One lowest
    copy of a repeated site stands for it, and the others get no cell (a
    higher copy's is empty).  Only a vertex of the regular triangulation of
    the lifted sites has a cell, cut only by its neighbours: (a, b) cuts by
    (e (X_b - X_a), d (T_b - T_a))."""
    (xs, d, ts, e), n = sites, body.dim
    lowest = {xs[i]: i for i in sorted(range(len(ts)), key=ts.__getitem__, reverse=True)}
    order = sorted(lowest.values(), key=xs.__getitem__)
    pts = [(e * xs[i][0], e * xs[i][1], d * ts[i]) for i in order]
    apex, removed = _regular_triangulation(pts)
    _check_removed(pts, apex, removed)
    neighbours: List[List[int]] = [[] for _ in pts]
    for i, j in apex:  # a hull or chain edge has one direction only
        neighbours[i].append(j)
        if (j, i) not in apex:
            neighbours[j].append(i)
    full = n + 1  # fewer loop points span no full-dimensional cell; as many or more do
    loops: List[Optional[list]] = [None] * len(ts)
    for a, (xa, ya, ta) in enumerate(pts):
        loop = body.loop
        for b in neighbours[a]:
            xb, yb, tb = pts[b]
            loop = _cut(loop, xb - xa, yb - ya, tb - ta)
            if len(loop) < full:
                break
        if a not in removed and len(loop) >= full:
            loops[order[a]] = loop
    sums = [loop and _moment_sums(loop, n) for loop in loops]
    return PowerDiagram(body, loops, sites, sums, certified_volumes(sums, body))


@dataclass(frozen=True)
class PowerDiagram:
    """A `power_diagram` result, indexed like the sites.  cells, made on first
    read: {m in body : <x_a, m> - t_a >= <x_b, m> - t_b for all b}, or None
    when that is not full-dimensional or a is a repeated site's other copy.
    integer_masses: their volumes over one denominator, 0 for None, certified
    when the diagram was built.  integer_walls, matched on first read: the
    weights |wall| / |x_i - x_j| over one denominator of the pairs i < j whose
    cells share a facet, the edges of the weighted Laplacian whose negative
    is the Hessian of the dual objective.  Inside, a cell is its final
    counterclockwise `_cut` loop (the body's own `loop` when nothing cuts it)
    or None, `_sums` its `_moment_sums`, and `_ends`, matched only when the
    walls are read, holds them as (i, j, u, v) on homogeneous end points,
    u -> v counterclockwise around the cell of i (u = v in 1-D).
    """

    body: Polytope
    _loops: List[Optional[list]]
    _sites: IntegerSites
    _sums: List[Optional[tuple]]
    integer_masses: Tuple[List[int], int]

    @cached_property
    def _ends(self) -> List[tuple]:
        """The edges two final loops run in opposite directions, sorted: a
        degenerate cell between two cells does not hide their wall."""
        owners, ends = {}, []
        for i, loop in enumerate(self._loops):
            if loop is None:
                continue
            for u, v in zip(loop, loop) if self.body.dim == 1 else zip(loop, loop[1:] + loop[:1]):
                j = owners.pop((v, u), None)  # the other cell, j < i, runs the wall backwards
                if j is None:
                    owners[u, v] = i
                else:
                    ends.append((j, i, v, u))
        return sorted(ends)

    @cached_property
    def cells(self) -> List[Optional[Polytope]]:
        """Each keeps the moment sums of its loop: a loop's sums do not
        depend on where the loop starts."""
        body = self.body
        cells = [loop and (body if loop is body.loop else _from_loop(loop, body.dim)) for loop in self._loops]
        for cell, s in zip(cells, self._sums):
            if s:
                cell.__dict__["moment_sums"] = s
        return cells

    @cached_property
    def integer_walls(self) -> Tuple[List[Tuple[int, int, int]], int]:
        """(walls, D): (i, j, V) of weight V / D, D the lcm of the reduced
        denominators.  With N = X_i - X_j on the sites over d, the wall (i, j,
        (A_0, B_0, W_0), (A_1, B_1, W_1)) weighs d / |N_0| in 1-D and
        |N_0 (B_1 W_0 - B_0 W_1) - N_1 (A_1 W_0 - A_0 W_1)| d / (W_0 W_1 |N|^2)."""
        (xs, d, _, _), ratios = self._sites, []
        for i, j, (a0, b0, w0), (a1, b1, w1) in self._ends:
            n0, n1 = xs[i][0] - xs[j][0], xs[i][1] - xs[j][1]
            if self.body.dim == 1:
                num, den = d, abs(n0)
            else:
                num, den = abs(n0 * (b1 * w0 - b0 * w1) - n1 * (a1 * w0 - a0 * w1)) * d, w0 * w1 * (n0 * n0 + n1 * n1)
            g = gcd(num, den)
            ratios.append((i, j, num // g, den // g))
        top = lcm(*[q for *_, q in ratios])
        return [(i, j, p * (top // q)) for i, j, p, q in ratios], top


def _moment_sums(loop, n: int):
    """(S, Mx, My, L) of a full-dimensional loop, a segment or a
    counterclockwise polygon, on its points (X, Y) L / W, L the lcm of its
    W: its volume is S / (n! L^n) and the integrals of x and y over it are
    Mx / ((n+1)! L^(n+1)) and My / ((n+1)! L^(n+1)), My = 0 in 1-D."""
    big = lcm(*(w for _, _, w in loop))
    pts = [(x * (big // w), y * (big // w)) for x, y, w in loop]
    if n == 1:
        (x0, _), (x1, _) = sorted(pts)
        return x1 - x0, x1 * x1 - x0 * x0, 0, big
    s = mx = my = 0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
        c = x0 * y1 - x1 * y0
        s, mx, my = s + c, mx + (x0 + x1) * c, my + (y0 + y1) * c
    return s, mx, my, big


def certified_volumes(sums, body: Polytope) -> Tuple[List[int], int]:
    """(M, D): the volumes M_a / D, S / (n! L^n), of loops given by their
    `_moment_sums`, 0 for None, D the lcm of their reduced denominators, each
    loop in `body`, certified as one integer equality to sum to its volume."""
    (s, _, _, big), n = body.moment_sums, body.dim
    vols = [(0, 1) if v is None else (v[0], n * v[3] ** n) for v in sums]  # n! = n for n <= 2
    den = lcm(*(q // gcd(m, q) for m, q in vols))
    ms = [m * den // q for m, q in vols]
    if sum(ms) * n * big**n != s * den:
        raise ConsistencyError(f"cells cover mass {Fraction(sum(ms), den)}, expected {Fraction(s, n * big**n)}")
    return ms, den


def integral_over(sums, n: int, forms, e: int) -> Tuple[int, int]:
    """(numerator, denominator) of the integral of (A m_0 + B m_1 - C) / e
    over the loop of each form (A, B, C), given by its `_moment_sums`: it is
    (A Mx + B My - (n+1) L C S) / ((n+1)! L^(n+1) e), put over the lcm of the L."""
    terms = []
    for (s, mx, my, big), (a, b, c) in zip(sums, forms):
        terms.append((a * mx + b * my - (n + 1) * big * c * s, big))
    top = lcm(*[big for _, big in terms])
    return sum(t * (top // big) ** (n + 1) for t, big in terms), n * (n + 1) * top ** (n + 1) * e


def volume(p: Polytope) -> Fraction:
    """Exact n-dimensional Lebesgue volume; 0 for lower-dimensional sets."""
    if p.is_empty or p.affine_dim < p.dim:
        return _ZERO
    s, _, _, big = p.moment_sums
    return Fraction(s, p.dim * big**p.dim)


def centroid(p: Polytope) -> Point:
    """Centroid of a full-dimensional polytope (exact)."""
    if p.is_empty or p.affine_dim < p.dim:
        raise EmptyInput("centroid needs a full-dimensional polytope")
    s, mx, my, d = p.moment_sums
    return tuple([Fraction(m, (p.dim + 1) * d * s) for m in (mx, my)[: p.dim]])


def moment(p: Polytope, a: Point, c: Fraction) -> Fraction:
    """Exact integral of the affine map m -> <a, m> + c over p."""
    if p.is_empty or p.affine_dim < p.dim:
        return _ZERO
    (a0, a1, c0), e = integers([*_planar(a), -c])
    return Fraction(*integral_over([p.moment_sums], p.dim, [(a0, a1, c0)], e))


def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    """Exact Minkowski sum; support function of the result is the sum."""
    if p.dim != q.dim:
        raise DimensionMismatch(f"dimensions {p.dim} and {q.dim}")
    if p.is_empty or q.is_empty:
        return _empty(p.dim)
    return hull([add(u, v) for u in p.vertices for v in q.vertices], p.dim)


# --------------------------------------------------------------------------
# Lower convex hulls of lifted points (regular subdivisions), on integers.
#
# The core `_lower_hull` takes lifted points as integer triples (X, Y, H)
# standing for ((X/d, Y/d), H/e), Y = 0 in dimension 1.  It keeps the
# lowest H of each base point and sorts the distinct triples, so index
# order is lexicographic order: a sorted index pair sorts like its points
# and an ascending index list is ready for a monotone chain.  Positive
# scalings keep the lower hull, so any common d and e serve.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LowerHull:
    """The function u(m) = max_a(<x_a, m> - t_a) whose graph is the lower
    convex hull of lifted points, on `base`, the hull of the base points.
    `generators` holds one (x_a, t_a) per cell as `IntegerSites`, sorted by
    site: x_a is the hull's gradient on the cell and t_a minus its offset.
    `cells[a]`, where the affine function of a is the max, keeps the moment
    sums its certificate read; `masses` holds the volumes it certified.
    """

    dim: int
    base: Polytope
    cells: Tuple[Polytope, ...]
    generators: IntegerSites
    masses: Tuple[List[int], int]


def _lower_chain(ts, hs) -> List[int]:
    """Positions of the lower convex chain of the integer points (t, h),
    ts strictly increasing; points on a segment of the chain are dropped."""
    out: List[int] = []
    for i, (t, h) in enumerate(zip(ts, hs)):
        while len(out) > 1:
            a, b = out[-2], out[-1]
            if (hs[b] - hs[a]) * (t - ts[a]) < (h - hs[a]) * (ts[b] - ts[a]):
                break
            out.pop()
        out.append(i)
    return out


def _orient(p, q, r) -> int:
    """Twice the signed area of the base triangle (p, q, r)."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _below(a, b, c, p) -> bool:
    """Whether lifted p lies strictly below the plane of the CCW lifted triangle (a, b, c)."""
    ax, ay, ah = a[0] - p[0], a[1] - p[1], a[2] - p[2]
    bx, by, bh = b[0] - p[0], b[1] - p[1], b[2] - p[2]
    cx, cy, ch = c[0] - p[0], c[1] - p[1], c[2] - p[2]
    return ax * (by * ch - bh * cy) - ay * (bx * ch - bh * cx) + ah * (bx * cy - by * cx) > 0


def _regular_triangulation(pts):
    """The regular triangulation of distinct lifted points (X, Y, H) in
    lexicographic order, as (apex, removed).  apex maps each directed edge
    (i, j) of a counterclockwise triangle (i, j, k) to k, or each edge of
    the lower chain of collinear points to None; removed maps each point
    that is not a vertex to the point that removed it.  Each point in turn
    is a corner of the base hull so far: it is fanned to the border of the
    triangles whose plane lies strictly above it, found from the hull
    edges it sees, with no point location."""
    n = len(pts)
    s = min(n, 2)
    while s < n and _orient(pts[0], pts[1], pts[s]) == 0:
        s += 1
    chain, removed = list(range(s)), {}
    if s > 2:  # a collinear prefix is reduced to its lower chain
        dx, dy, _ = sub(pts[1], pts[0])
        chain = _lower_chain([dx * x + dy * y for x, y, _ in pts[:s]], [h for _, _, h in pts[:s]])
        removed = dict.fromkeys(sorted(set(range(s)).difference(chain)), min(s, n - 1))
    if s == n:
        return dict.fromkeys(zip(chain, chain[1:])), removed
    if _orient(pts[0], pts[1], pts[s]) < 0:
        chain.reverse()
    apex, nxt, prv = {}, [0] * n, [0] * n
    for a, b in zip(chain, chain[1:]):
        apex[a, b], apex[b, s], apex[s, a] = s, a, b
    chain.append(s)
    for a, b in zip(chain, chain[1:] + chain[:1]):
        nxt[a], prv[b] = b, a

    def sees(a, b):  # hull edge (a, b): P is outside it, or on its line and below its triangle
        o = _orient(pts[a], pts[b], P)
        return o < 0 or o == 0 and _below(pts[a], pts[b], pts[apex[a, b]], P)

    for p in range(s + 1, n):
        P = pts[p]
        u = w = p - 1  # the last point is a hull corner that p sees
        while sees(w, nxt[w]):
            w = nxt[w]
        while sees(prv[u], u):
            u = prv[u]
        seen = [u]
        while seen[-1] != w:
            seen.append(nxt[seen[-1]])
        edges = list(zip(seen, seen[1:]))
        cavity, tris, stack = set(), [], edges[:]
        while stack:
            a, b = stack.pop()
            c = apex.get((a, b))
            if c is not None and (a, b) not in cavity and _below(pts[a], pts[b], pts[c], P):
                cavity.update(((a, b), (b, c), (c, a)))
                tris.append((a, b, c))
                stack += ((c, b), (a, c))
        fan = [(b, a) for a, b in edges if (a, b) not in cavity]
        for a, b, c in tris:
            for x, y in ((a, b), (b, c), (c, a)):
                del apex[x, y]
                if (y, x) not in cavity and ((y, x) in apex or (x, y) not in edges):
                    fan.append((x, y))
        for x, y in fan:
            apex[x, y], apex[y, p], apex[p, x] = p, x, y
        if tris:  # the vertices left inside the cavity stop being vertices
            kept = {v for e in fan for v in e}
            removed.update((v, p) for v in {v for t in tris for v in t}.union(seen) if v not in kept)
        nxt[u], prv[p], nxt[p], prv[w] = p, u, w, p
    return apex, removed


def _check_removed(pts, apex, removed) -> None:
    """What the mass sum cannot see: each removed point r on or above the
    lifted triangulation, so without a cell.  Over a chain, r is one sign
    against the edge (i, j), i < r < j; else a walk from r's remover, across
    each edge x_r lies strictly outside, stops at a triangle that must be
    strictly counterclockwise, so it holds x_r, and not above r."""
    start, chain = {i: (i, j) for i, j in apex}, None in apex.values()
    for r, q in removed.items():
        R, ok = pts[r], False
        if chain:
            i, j = next(((i, j) for i, j in apex if i < r < j), (r, r))
            (ux, uy, uh), (vx, vy, vh) = sub(pts[j], pts[i]), sub(R, pts[i])
            ok = i < r and vh * (ux * ux + uy * uy) >= uh * (ux * vx + uy * vy)
        else:
            while q in removed:
                q = removed[q]
            a, b = start.get(q, (r, r))  # (r, r) is no edge: a remover in no triangle fails
            for _ in apex:
                if (a, b) not in apex:
                    break
                c = apex[a, b]
                out = [(y, x) for x, y in ((a, b), (b, c), (c, a)) if _orient(pts[x], pts[y], R) < 0]
                if not out:
                    ok = _orient(pts[a], pts[b], pts[c]) > 0 and not _below(pts[a], pts[b], pts[c], R)
                    break
                a, b = out[0]
        if not ok:
            raise ConsistencyError(f"removed point {r} is not on or above the triangulation")


def _lower_hull_1d(pts, d: int, e: int):
    if len(pts) < 2:
        raise DegenerateSpan("need two distinct base points")
    xs, hs = [p[0] for p in pts], [p[2] for p in pts]
    chain = _lower_chain(xs, hs)
    return [0, len(pts) - 1], [(d * (hs[j] - hs[i]), 0, hs[j] * xs[i] - hs[i] * xs[j], e * (xs[j] - xs[i]), (i, j))
                               for i, j in zip(chain, chain[1:])]


def _lower_hull_2d(pts, d: int, e: int):
    """Gift-wrapping over indices of the integer lifted points `pts`.

    The facet plane through a ridge (a, b) and a point q has the integer
    normal N = (P_b - P_a) x (P_q - P_a), oriented upward, so point i lies
    below it iff N.P_i < N.P_a: every test is the sign of one integer 3x3
    determinant.  On the plane N.P = k, h = (k - N_0 X - N_1 Y) / (N_2 e) at
    m = (X, Y) / d: the generator is (-N_0 d, -N_1 d) / c and -k / c, c = N_2 e.
    """
    idx = list(range(len(pts)))
    base = _convex_loop(idx, pts)
    if len(base) < 3:
        raise DegenerateSpan("base points do not affinely span the plane")

    # Seed ridge: the first edge of the 1-D lower chain over the first
    # base-hull edge.  Every point on that edge's line lies on the edge,
    # in index order, since the edge starts at the lexicographic minimum.
    x0, y0, _ = pts[base[0]]
    dx, dy = pts[base[1]][0] - x0, pts[base[1]][1] - y0
    edge = [i for i, (x, y, _) in enumerate(pts) if dx * (y - y0) == dy * (x - x0)]
    ts = [dx * (pts[i][0] - x0) + dy * (pts[i][1] - y0) for i in edge]
    seed = _lower_chain(ts, [pts[i][2] for i in edge])
    ridge = (edge[seed[0]], edge[seed[1]])

    stack = [ridge + ((1, -1),)]
    done = {ridge}
    seen = set()
    faces = []
    while stack:
        a, b, sides = stack.pop()
        ax, ay, ah = pts[a]
        ux, uy, uh = pts[b][0] - ax, pts[b][1] - ay, pts[b][2] - ah
        c0 = ux * ay - uy * ax
        for side in sides:
            # Pivot: the point of this side whose plane through the ridge
            # has no point of this side below it.
            q = None
            for i, (x, y, h) in enumerate(pts):
                if side * (ux * y - uy * x - c0) <= 0:
                    continue
                if q is None or nx * x + ny * y + nz * h < k:
                    q = i
                    vx, vy, vh = x - ax, y - ay, h - ah
                    nx, ny = side * (uy * vh - uh * vy), side * (uh * vx - ux * vh)
                    nz = side * (ux * vy - uy * vx)
                    k = nx * ax + ny * ay + nz * ah
            if q is None:
                continue
            g = gcd(nx, ny, nz, k)
            nx, ny, nz, k = nx // g, ny // g, nz // g, k // g
            if (nx, ny, nz, k) in seen:
                continue
            seen.add((nx, ny, nz, k))
            # Contact set and support check in one scan.
            vals = [nx * x + ny * y + nz * h for x, y, h in pts]
            if min(vals) < k:
                raise ConsistencyError("gift-wrap produced a non-supporting plane")
            loop = _convex_loop([i for i, v in enumerate(vals) if v == k], pts)
            faces.append((-nx * d, -ny * d, -k, nz * e, loop))
            for i, j in zip(loop, loop[1:] + loop[:1]):
                r = (i, j) if i < j else (j, i)
                if r not in done:
                    done.add(r)
                    # The cell lies left of i -> j; only the other side is new.
                    stack.append(r + ((-1,) if i < j else (1,),))
    return base, faces


def _lower_hull(dim: int, lifted, d: int, e: int) -> LowerHull:
    """The integer core of `lower_hull` on the triples (X, Y, H) of the
    lifted points ((X/d, Y/d), H/e), Y = 0 in dimension 1.  Its faces come
    as generators (X, Y) / c and T / c, c > 0, with loops of point indices;
    the cell volumes must sum to the base's and are kept, and the sites
    and the values are each put over the lcm of their reduced denominators."""
    lowest = {}
    for x, y, h in lifted:  # of duplicate base points only the lowest lift counts
        if lowest.get((x, y), h) >= h:
            lowest[x, y] = h
    pts = sorted((x, y, h) for (x, y), h in lowest.items())
    base, faces = (_lower_hull_1d if dim == 1 else _lower_hull_2d)(pts, d, e)
    polytope = lambda loop: Polytope(dim, tuple([_point(pts[i][0], pts[i][1], d) for i in loop]), dim)
    base, cells = polytope(base), [polytope(loop) for *_, loop in faces]
    ms, md = certified_volumes([cell.moment_sums for cell in cells], base)
    dx, dt = lcm(*(c // gcd(x, y, c) for x, y, _, c, _ in faces)), lcm(*(c // gcd(t, c) for _, _, t, c, _ in faces))
    gens = sorted(((x * dx // c, y * dx // c), t * dt // c, a) for a, (x, y, t, c, _) in enumerate(faces))
    sites = IntegerSites([x for x, _, _ in gens], dx, [t for _, t, _ in gens], dt)
    return LowerHull(dim, base, tuple([cells[a] for *_, a in gens]), sites, ([ms[a] for *_, a in gens], md))


def lower_hull(lifted) -> LowerHull:
    """Lower convex hull of lifted points as a cell complex: the Fraction
    front end of `_lower_hull`, which only converts its input.

    `lifted` is a list of (base point, height).  A lifted point (p, h) lies
    strictly above the hull iff h > u(p), the max over its generators.
    Raises DegenerateSpan when the base points do not affinely span, and
    ConsistencyError when a certificate fails: a point below a cell's
    plane, or cell volumes that do not sum to the volume of the base hull.
    """
    lifted = list(lifted)
    if not lifted:
        raise EmptyInput("lower hull of zero points")
    dim = len(lifted[0][0])
    if dim not in (1, 2):
        raise DimensionUnsupported(f"lower hulls support dimensions 1 and 2, got {dim}")
    if any(len(p) != dim for p, _ in lifted):
        raise DimensionMismatch("mixed dimensions in lifted points")
    xs, d, hs, e = integer_sites(lifted)
    return _lower_hull(dim, [(x, y, h) for (x, y), h in zip(xs, hs)], d, e)
