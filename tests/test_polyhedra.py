"""Exact geometry kernel tests, with independent-oracle comparisons."""

import random
from fractions import Fraction as F
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nama import polyhedra as pg
from nama.errors import (
    ConsistencyError,
    DegenerateSpan,
    DimensionMismatch,
    DimensionUnsupported,
    EmptyInput,
)
from nama.linalg import integers


def laguerre_cells(body, sites, values):
    """The `power_diagram` of rational sites and values."""
    return pg.power_diagram(body, pg.integer_sites(zip(sites, values)))


def fraction_masses(diagram):
    """The cell volumes of a `power_diagram` as Fractions, 0 for a None cell."""
    ms, md = diagram.integer_masses
    return [F(m, md) for m in ms]


def fraction_walls(diagram):
    """The walls of a `power_diagram` as (i, j, |wall| / |x_i - x_j|), the weights Fractions."""
    walls, den = diagram.integer_walls
    return [(i, j, F(v, den)) for i, j, v in walls]


def contains(p, q):
    """Whether q lies in the polytope p: inside every facet when p is
    full-dimensional, else on the carrier of its point or segment
    (X0, Y0, W0) -> (X1, Y1, W1), lexicographically between the ends."""
    if p.is_empty:
        return False
    (x, y), w = integers(pg._planar(q))
    if p.is_full_dimensional:
        return all(a0 * x + a1 * y <= b * w for a0, a1, b in p.integer_facets)
    (x0, y0, w0), (x1, y1, w1) = p.loop[0], p.loop[-1]
    if (x1 * w0 - x0 * w1) * (y * w0 - y0 * w) != (y1 * w0 - y0 * w1) * (x * w0 - x0 * w):
        return False
    return (x0 * w, y0 * w) <= (x * w0, y * w0) and (x * w1, y * w1) <= (x1 * w, y1 * w)


def cross(a, b):
    """The 2-D cross product a_0 b_1 - a_1 b_0."""
    return a[0] * b[1] - a[1] * b[0]


def frac(lo=-4, hi=4, den=8):
    return st.builds(F, st.integers(lo * den, hi * den), st.just(den))


def pt2(lo=-4, hi=4, den=8):
    return st.tuples(frac(lo, hi, den), frac(lo, hi, den))


def shoelace(loop):
    s = F(0)
    for (x0, y0), (x1, y1) in zip(loop, loop[1:] + loop[:1]):
        s += x0 * y1 - x1 * y0
    return s / 2


def in_hull_of_others_lp(p, others):
    """Brute-force convex-combination test via exact vertex enumeration.

    p is in conv(others) iff every line through two points (and every
    single point for tiny sets) fails to separate: decided here by
    checking p against the exact hull facets of `others`, built
    independently from first principles (all pairwise supporting lines).
    """
    if not others:
        return False
    if len({tuple(q) for q in others}) == 1:
        return tuple(p) == tuple(others[0])
    for a, b in combinations(others, 2):
        d = pg.sub(b, a)
        n = (d[1], -d[0])
        if n == (0, 0):
            continue
        side_p = pg.dot(n, pg.sub(p, a))
        sides = [pg.dot(n, pg.sub(q, a)) for q in others]
        if side_p > 0 and all(s <= 0 for s in sides):
            return False
        if side_p < 0 and all(s >= 0 for s in sides):
            return False
    # Collinear input set: p must also lie on the segment.
    a = others[0]
    if all(cross(pg.sub(q, a), pg.sub(others[-1], a)) == 0 for q in others):
        d = pg.sub(others[-1], a)
        if cross(pg.sub(p, a), d) != 0:
            return False
        t = [pg.dot(pg.sub(q, a), d) for q in others]
        tp = pg.dot(pg.sub(p, a), d)
        return min(t) <= tp <= max(t)
    return True


class TestHull:
    def test_triangle_drops_interior_point(self):
        p = pg.hull([(0, 0), (1, 0), (0, 1), (F(1, 3), F(1, 3))], 2)
        assert p.affine_dim == 2
        assert set(p.vertices) == {(0, 0), (1, 0), (0, 1)}

    def test_segment_1d(self):
        p = pg.hull([(0,), (1,)], 1)
        assert p.vertices == ((0,), (1,))
        assert pg.volume(p) == 1

    def test_idempotent(self):
        pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (2, 1)]
        h1 = pg.hull(pts, 2)
        h2 = pg.hull(h1.vertices, 2)
        assert h1 == h2

    def test_collinear_input_flagged(self):
        p = pg.hull([(0, 0), (1, 1), (2, 2)], 2)
        assert p.affine_dim == 1
        assert p.vertices == ((0, 0), (2, 2))
        assert pg.volume(p) == 0

    def test_rejects(self):
        with pytest.raises(EmptyInput):
            pg.hull([], 2)
        with pytest.raises(DimensionUnsupported):
            pg.hull([(0, 0, 0), (1, 0, 0)], 3)
        with pytest.raises(DimensionUnsupported):
            pg.hull([(0, 0, 0, 0)], 4)
        with pytest.raises(DimensionMismatch):
            pg.hull([(0, 0), (1,)], 2)

    def test_random_points_against_convex_combination_oracle(self):
        rng = random.Random(7)
        for _ in range(20):
            pts = [
                (F(rng.randint(-8, 8), 4), F(rng.randint(-8, 8), 4))
                for _ in range(10)
            ]
            h = pg.hull(pts, 2)
            verts = set(h.vertices)
            for p in set(pts):
                others = [q for q in set(pts) if q != p]
                expressible = in_hull_of_others_lp(p, others)
                assert (p in verts) == (not expressible)


class TestClipVolume:
    def test_square_half(self):
        sq = pg.hull([(0, 0), (1, 0), (1, 1), (0, 1)], 2)
        c = pg.clip(sq, [((1, 0), F(1, 2))])
        assert pg.volume(c) == F(1, 2)

    def test_empty_clip(self):
        sq = pg.hull([(0, 0), (1, 0), (1, 1), (0, 1)], 2)
        c = pg.clip(sq, [((1, 0), -1)])
        assert c.is_empty
        assert pg.volume(c) == 0

    def test_split_volumes_add_up(self):
        rng = random.Random(3)
        sq = pg.hull([(0, 0), (3, 0), (3, 2), (0, 2), (1, 3)], 2)
        for _ in range(50):
            a = (F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
            if a == (0, 0):
                continue
            b = F(rng.randint(-6, 6), 2)
            left = pg.clip(sq, [(a, b)])
            right = pg.clip(sq, [(tuple(-c for c in a), -b)])
            assert pg.volume(left) + pg.volume(right) == pg.volume(sq)

    def test_triangle_volume(self):
        t = pg.hull([(0, 0), (1, 0), (0, 1)], 2)
        assert pg.volume(t) == F(1, 2)

    def test_volume_against_shoelace_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            pts = [
                (F(rng.randint(-8, 8), 2), F(rng.randint(-8, 8), 2))
                for _ in range(8)
            ]
            h = pg.hull(pts, 2)
            if h.affine_dim == 2:
                assert pg.volume(h) == shoelace(list(h.vertices))

    def test_monte_carlo_volume_oracle(self):
        rng = random.Random(5)
        poly = pg.hull([(0, 0), (4, 0), (4, 3), (1, 4), (0, 2)], 2)
        cuts = [((1, 1), F(5)), ((-1, 2), F(3))]
        clipped = pg.clip(poly, cuts)
        exact = float(pg.volume(clipped))
        facets = [((float(a[0]), float(a[1])), float(b)) for a, b in eager_facets(clipped)]
        n = 200_000
        hits = 0
        for _ in range(n):
            x, y = rng.uniform(0, 4), rng.uniform(0, 4)
            if all(a[0] * x + a[1] * y <= b for a, b in facets):
                hits += 1
        est = 16.0 * hits / n
        stderr = 16.0 * (est / 16 * (1 - est / 16) / n) ** 0.5
        assert abs(est - exact) <= 3 * stderr + 1e-9

    def test_volume_translation_and_dilation(self):
        h = pg.hull([(0, 0), (2, 1), (1, 3)], 2)
        assert pg.volume(pg.hull([pg.add(q, (F(5), F(-7))) for q in h.vertices])) == pg.volume(h)
        lam = F(3, 2)
        assert pg.volume(h.scaled(lam)) == lam**2 * pg.volume(h)

    def test_scaled_keeps_canonical_order(self):
        """Scaling the vertices directly gives the polytope that a hull of
        the scaled vertices gives, in 1-D and 2-D and for degenerate ones."""
        rng = random.Random(19)
        for _ in range(60):
            dim = rng.choice((1, 2))
            point = lambda: tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim))
            pts = [point() for _ in range(rng.randint(1, 6))]
            p, _ = pg.hull(pts, dim), point()  # the second draw keeps the seeded sequence
            s = F(rng.randint(1, 9), rng.randint(1, 4))
            assert p.scaled(s) == pg.hull([tuple(s * c for c in q) for q in pts], dim)

    def test_scaled_rejects_nonpositive_factors(self):
        h = pg.hull([(0, 0), (2, 1), (1, 3)], 2)
        for s in (0, F(-1, 2)):
            with pytest.raises(ValueError):
                h.scaled(s)


class TestMinkowski:
    def test_segments(self):
        a = pg.hull([(0,), (1,)], 1)
        s = pg.minkowski_sum(a, a)
        assert s.vertices == ((0,), (2,))

    def test_square_plus_segment(self):
        sq = pg.hull([(0, 0), (1, 0), (1, 1), (0, 1)], 2)
        seg = pg.hull([(0, 0), (1, 0)], 2)
        s = pg.minkowski_sum(sq, seg)
        assert s == pg.hull([(0, 0), (2, 0), (2, 1), (0, 1)], 2)

    def test_doubling_scales_volume(self):
        h = pg.hull([(0, 0), (2, 0), (1, 2), (0, 1)], 2)
        assert pg.volume(pg.minkowski_sum(h, h)) == 4 * pg.volume(h)

    def test_support_function_additivity_oracle(self):
        rng = random.Random(13)
        a = pg.hull([(F(rng.randint(-4, 4)), F(rng.randint(-4, 4))) for _ in range(6)], 2)
        b = pg.hull([(F(rng.randint(-4, 4)), F(rng.randint(-4, 4))) for _ in range(6)], 2)
        s = pg.minkowski_sum(a, b)
        for _ in range(100):
            y = (F(rng.randint(-9, 9)), F(rng.randint(-9, 9)))
            assert pg.support_value(s, y) == pg.support_value(a, y) + pg.support_value(b, y)


def lp_hull_value(lifted, m):
    """Oracle: minimize sum(lambda_i h_i) over exact convex combinations.

    Enumerates basic feasible solutions (supports of size <= 3), which is
    exact and independent of the hull code.
    """
    best = None
    pts = [p for p, _ in lifted]
    hs = [h for _, h in lifted]
    n = len(pts)
    for i in range(n):
        if pts[i] == m:
            best = hs[i] if best is None else min(best, hs[i])
    for i in range(n):
        for j in range(i + 1, n):
            d = pg.sub(pts[j], pts[i])
            r = pg.sub(m, pts[i])
            if cross(d, r) != 0 or d == (0, 0):
                continue
            t = pg.dot(d, r) / pg.dot(d, d)
            if 0 <= t <= 1:
                v = hs[i] + t * (hs[j] - hs[i])
                best = v if best is None else min(best, v)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                d1, d2 = pg.sub(pts[j], pts[i]), pg.sub(pts[k], pts[i])
                det = cross(d1, d2)
                if det == 0:
                    continue
                r = pg.sub(m, pts[i])
                s = cross(r, d2) / det
                t = cross(d1, r) / det
                if s >= 0 and t >= 0 and s + t <= 1:
                    v = hs[i] + s * (hs[j] - hs[i]) + t * (hs[k] - hs[i])
                    best = v if best is None else min(best, v)
    return best


def hull_value(lh, m):
    """The lower hull's function at m: max_a <x_a, m> - t_a over its generators."""
    (xs, d, ts, e), (m0, m1) = lh.generators, pg._planar(m)
    return max(F(x * m0 + y * m1, d) - F(t, e) for (x, y), t in zip(xs, ts))


def hull_cells(lh):
    """(vertices, gradient, offset) of each cell of a lower hull, as Fractions."""
    xs, d, ts, e = lh.generators
    return [(c.vertices, tuple(F(v, d) for v in x[: lh.dim]), -F(t, e)) for c, x, t in zip(lh.cells, xs, ts)]


def dropped(lh, lifted):
    """The lifted points strictly above the lower hull, in input order."""
    return tuple((p, h) for p, h in lifted if h > hull_value(lh, p))


class TestLowerHull:
    def test_convex_data_all_on_hull(self):
        lifted = [((x, y), x * x + y * y) for x in range(-2, 3) for y in range(-2, 3)]
        lifted = [(tuple(map(F, p)), F(h)) for p, h in lifted]
        lh = pg.lower_hull(lifted)
        assert dropped(lh, lifted) == ()
        for p, h in lifted:
            assert hull_value(lh, p) == h

    def test_collinear_middle_point_dropped(self):
        lifted = [((F(0),), F(0)), ((F(1),), F(5)), ((F(2),), F(0))]
        lh = pg.lower_hull(lifted)
        assert dropped(lh, lifted) == (((F(1),), F(5)),)

    def test_degenerate_span(self):
        with pytest.raises(DegenerateSpan):
            pg.lower_hull([((F(0), F(0)), F(0)), ((F(1), F(1)), F(0)), ((F(2), F(2)), F(1))])

    def test_2d_point_above_hull_dropped(self):
        lifted = [
            ((F(0), F(0)), F(0)),
            ((F(2), F(0)), F(0)),
            ((F(0), F(2)), F(0)),
            ((F(1, 2), F(1, 2)), F(3)),
        ]
        lh = pg.lower_hull(lifted)
        assert dropped(lh, lifted) == (((F(1, 2), F(1, 2)), F(3)),)
        assert len(lh.cells) == 1

    def test_clip_dimension_mismatch(self):
        sq = pg.hull([(0, 0), (1, 0), (1, 1), (0, 1)], 2)
        with pytest.raises(DimensionMismatch):
            pg.clip(sq, [((1,), F(1))])

    def test_random_lifts_against_lp_oracle(self):
        rng = random.Random(23)
        for _ in range(10):
            lifted = [
                (
                    (F(rng.randint(-6, 6), 2), F(rng.randint(-6, 6), 2)),
                    F(rng.randint(-8, 8), 4),
                )
                for _ in range(9)
            ]
            try:
                lh = pg.lower_hull(lifted)
            except DegenerateSpan:
                continue
            base = pg.hull([p for p, _ in lifted], 2)
            for _ in range(50):
                # Random query point inside the base hull: random convex mix.
                ws = [F(rng.randint(1, 5)) for _ in lifted]
                tot = sum(ws)
                m = (
                    sum(w * p[0] for w, (p, _) in zip(ws, lifted)) / tot,
                    sum(w * p[1] for w, (p, _) in zip(ws, lifted)) / tot,
                )
                assert contains(base, m)
                assert hull_value(lh, m) == lp_hull_value(lifted, m)

    def test_cells_partition_base(self):
        lifted = [
            ((F(0), F(0)), F(0)),
            ((F(2), F(0)), F(0)),
            ((F(0), F(2)), F(0)),
            ((F(2), F(2)), F(0)),
            ((F(1), F(1)), F(-1)),
        ]
        lh = pg.lower_hull(lifted)
        assert sum(pg.volume(c) for c in lh.cells) == 4
        assert len(lh.cells) == 4


PARABOLOID_5X5 = [((F(x), F(y)), F(x * x + y * y)) for x in range(-2, 3) for y in range(-2, 3)]


class TestLowerHullCertificates:
    """Planted faults that a certificate of the lower hull must catch."""

    def test_a_seed_ridge_that_skips_a_lower_point(self, monkeypatch):
        # The bottom edge holds five points; every plane through its two
        # ends has the three between them below it.
        monkeypatch.setattr(pg, "_lower_chain", lambda ts, hs: [0, len(ts) - 1])
        with pytest.raises(ConsistencyError, match="non-supporting plane"):
            pg.lower_hull(PARABOLOID_5X5)

    def test_a_cell_that_loses_a_corner(self, monkeypatch):
        # The first loop is the base; the second cell, a unit square, keeps
        # three corners, so the cells cover 31/2 of the base's 16.
        convex_loop, loops = pg._convex_loop, []

        def dropping(idx, pts):
            loop = convex_loop(idx, pts)
            if len(loop) >= 3:
                loops.append(loop)
                if len(loops) == 3:
                    return loop[:-1]
            return loop

        monkeypatch.setattr(pg, "_convex_loop", dropping)
        with pytest.raises(ConsistencyError, match="cover"):
            pg.lower_hull(PARABOLOID_5X5)

    def test_a_chain_that_loses_a_segment(self, monkeypatch):
        # Without its last point the chain over [-2, 2] stops at 1.
        lower_chain = pg._lower_chain
        monkeypatch.setattr(pg, "_lower_chain", lambda ts, hs: lower_chain(ts, hs)[:-1])
        with pytest.raises(ConsistencyError, match="cover"):
            pg.lower_hull([((F(x),), F(x * x)) for x in range(-2, 3)])


# --------------------------------------------------------------------------
# The integer lower hull against the Fraction gift-wrap it replaced.
# --------------------------------------------------------------------------


def reference_lower_hull(lifted):
    """The Fraction gift-wrap `lower_hull` used to run, as the reference:
    (cells as a list of (vertices, gradient, offset), dropped)."""
    items = [(tuple(F(c) for c in p), F(h)) for p, h in lifted]
    lowest = {}
    for p, h in items:
        if p not in lowest or h < lowest[p]:
            lowest[p] = h

    def chain(seq):  # lower chain of (t, h, point); collinear points dropped
        out = []
        for t, h, p in seq:
            while len(out) > 1:
                (t0, h0, _), (t1, h1, _) = out[-2], out[-1]
                if (h1 - h0) * (t - t0) < (h - h0) * (t1 - t0):
                    break
                out.pop()
            out.append((t, h, p))
        return out

    def value(cells, m):
        return max(pg.dot(g, m) + c for _, g, c in cells)

    if len(items[0][0]) == 1:
        if len(lowest) < 2:
            raise DegenerateSpan("need two distinct base points")
        ch = chain(sorted((p[0], h, p) for p, h in lowest.items()))
        cells = []
        for (x0, h0, p0), (x1, h1, p1) in zip(ch, ch[1:]):
            g = (h1 - h0) / (x1 - x0)
            cells.append(((p0, p1), (g,), h0 - g * x0))
        return cells, tuple((p, h) for p, h in items if h > value(cells, p))

    points = list(lowest)
    base = pg.hull(points, 2)
    if base.affine_dim < 2:
        raise DegenerateSpan("base points do not affinely span the plane")

    def plane(p0, p1, p2):
        d1, d2 = pg.sub(p1, p0), pg.sub(p2, p0)
        det = cross(d1, d2)
        r1, r2 = lowest[p1] - lowest[p0], lowest[p2] - lowest[p0]
        g = ((r1 * d2[1] - r2 * d1[1]) / det, (d1[0] * r2 - d2[0] * r1) / det)
        return g, lowest[p0] - pg.dot(g, p0)

    q0, q1 = base.vertices[:2]
    d = pg.sub(q1, q0)
    on_edge = [
        (pg.dot(d, pg.sub(p, q0)), lowest[p], p) for p in points if cross(d, pg.sub(p, q0)) == 0
    ]
    ch = chain(sorted(on_edge))
    queue, done = [(ch[0][2], ch[1][2])], {tuple(sorted((ch[0][2], ch[1][2])))}
    cells = []
    while queue:
        pa, pb = queue.pop()
        for side in (1, -1):
            best = None
            for q in points:
                if side * cross(pg.sub(pb, pa), pg.sub(q, pa)) <= 0:
                    continue
                if best is None or lowest[q] < pg.dot(best[0], q) + best[1]:
                    best = plane(pa, pb, q)
            if best is None or any((g0, c0) == best for _, g0, c0 in cells):
                continue
            g, c = best
            assert all(h >= pg.dot(g, p) + c for p, h in lowest.items())
            cell = pg.hull([p for p, h in lowest.items() if h == pg.dot(g, p) + c], 2)
            cells.append((cell.vertices, g, c))
            v = cell.vertices
            for e in zip(v, v[1:] + v[:1]):
                e = tuple(sorted(e))
                if e not in done:
                    done.add(e)
                    queue.append(e)
    assert sum(shoelace(list(v)) for v, _, _ in cells) == pg.volume(base)
    return cells, tuple((p, h) for p, h in items if h > value(cells, p))


def assert_lower_hull_matches_reference(lifted):
    try:
        want = reference_lower_hull(lifted)
    except DegenerateSpan:
        with pytest.raises(DegenerateSpan):
            pg.lower_hull(lifted)
        return None
    lh = pg.lower_hull(lifted)
    cells = hull_cells(lh)
    assert len(cells) == len(want[0]) and set(cells) == set(want[0])
    assert dropped(lh, lifted) == want[1]
    assert lh.base == pg.hull([p for p, _ in lifted])
    assert all(type(c) is F for v, g, o in cells for c in sum(v, g + (o,)))
    return lh


class TestIntegerLowerHullAgainstFractionReference:
    def test_seeded_nine_point_lifts(self):
        rng = random.Random(101)
        for _ in range(300):
            lifted = [
                ((F(rng.randint(-6, 6), 2), F(rng.randint(-6, 6), 2)), F(rng.randint(-8, 8), 4))
                for _ in range(9)
            ]
            assert_lower_hull_matches_reference(lifted)

    def test_grid_lifts_with_coplanar_contact_sets(self):
        """Paraboloid lifts put four points on each grid square's plane;
        max-of-affine lifts put whole regions on one plane, and every
        side of the grid carries collinear points."""
        rng = random.Random(103)
        for trial in range(40):
            w, h = rng.randint(1, 6), rng.randint(1, 6)
            grid = [(F(i, 2), F(j, 3)) for i in range(-w // 2, w) for j in range(-1, h)]
            if trial % 2:
                lifted = [(p, p[0] * p[0] + p[1] * p[1]) for p in grid]
            else:
                planes = [
                    ((F(rng.randint(-4, 4), 3), F(rng.randint(-4, 4), 2)), F(rng.randint(-3, 3), 5))
                    for _ in range(rng.randint(1, 4))
                ]
                lifted = [(p, max(pg.dot(a, p) + c for a, c in planes)) for p in grid]
            lh = assert_lower_hull_matches_reference(lifted)
            if lh is not None:
                assert dropped(lh, lifted) == ()

    def test_duplicate_base_points(self):
        rng = random.Random(107)
        for _ in range(100):
            pts = [(F(rng.randint(-3, 3)), F(rng.randint(-3, 3))) for _ in range(6)]
            lifted = [(p, F(rng.randint(-6, 6), 3)) for p in pts + pts[: rng.randint(1, 6)]]
            assert_lower_hull_matches_reference(lifted)

    def test_negative_coordinates_and_mixed_denominators(self):
        rng = random.Random(109)
        for _ in range(200):
            lifted = [
                (
                    (F(rng.randint(-40, 5), rng.randint(1, 9)), F(rng.randint(-40, 5), rng.randint(1, 9))),
                    F(rng.randint(-50, 50), rng.randint(1, 12)),
                )
                for _ in range(rng.randint(3, 12))
            ]
            assert_lower_hull_matches_reference(lifted)

    def test_one_dimensional_lifts(self):
        rng = random.Random(113)
        for _ in range(200):
            lifted = [
                ((F(rng.randint(-9, 9), rng.randint(1, 4)),), F(rng.randint(-9, 9), rng.randint(1, 5)))
                for _ in range(rng.randint(1, 9))
            ]
            assert_lower_hull_matches_reference(lifted)

    def test_lattice_envelopes_on_the_benchmark_polygons(self):
        """The benchmark's lattice polygons at m = 1..8, against the
        parent path: every lattice point hulled, then the reference hull."""
        from nama import toric as tc

        rng = random.Random(127)
        polygons = (
            [(0, 0), (2, 0), (2, 2), (0, 2)],
            [(0, 0), (3, 0), (0, 3)],
            [(1, 0), (2, 1), (1, 2), (0, 1)],
            [(0, 0), (2, 0), (3, 1), (1, 2), (-1, 1)],
            [(0, 0), (2, 0), (3, 2), (2, 3), (0, 2)],
        )
        for vertices in polygons:
            delta = tc.newton_polytope(vertices, 2)
            sites = [(F(rng.randint(-12, 12), 4), F(rng.randint(-12, 12), 4)) for _ in range(8)]
            constraints = [(x, (x[0] * x[0] + x[1] * x[1]) / 4 + F(rng.randint(-4, 4), 16)) for x in sites]
            for m in range(1, 9):
                pts = [
                    (F(i, m), F(j, m))
                    for i in range(-m, 3 * m + 1)
                    for j in range(3 * m + 1)
                    if contains(delta.body, (F(i, m), F(j, m)))
                ]
                lifted = [(q, max(pg.dot(x, q) - t for x, t in constraints)) for q in pts]
                base = pg.hull(pts, 2)
                cells, _ = reference_lower_hull(lifted)
                out_delta = delta if base == delta.body else tc.NewtonPolytope(base)
                want = tc.ToricPsh(out_delta, [(g, -c) for _, g, c in cells])
                got = tc.lattice_envelope(delta, constraints, m)
                assert (got.delta, got.generators) == (want.delta, want.generators)


class TestIntegerCoreAgainstPublicLowerHull:
    """`_lower_hull` on integer triples over non-reduced denominators
    against `lower_hull` on the same points as Fractions."""

    def check(self, dim, triples, d, e):
        lifted = [((F(x, d), F(y, d))[:dim], F(h, e)) for x, y, h in triples]
        try:
            want = pg.lower_hull(lifted)
        except DegenerateSpan:
            with pytest.raises(DegenerateSpan):
                pg._lower_hull(dim, triples, d, e)
            return
        got = pg._lower_hull(dim, triples, d, e)
        assert got == want  # the generators too, over the lcm of their reduced denominators
        assert got.generators == pg.integer_sites((x, -o) for _, x, o in hull_cells(got))
        assert got.generators.xs == sorted(got.generators.xs)
        assert all(c.__dict__["moment_sums"] == pg._moment_sums(c.loop, dim) for c in got.cells)
        assert dropped(got, lifted) == dropped(want, lifted)
        assert got.base == pg.hull([p for p, _ in lifted], dim)

    def test_duplicate_and_collinear_points(self):
        rng = random.Random(131)
        for trial in range(300):
            dim = 1 + trial % 2
            pts = [(rng.randint(-3, 3), rng.randint(-3, 3) if dim == 2 else 0) for _ in range(rng.randint(1, 9))]
            if dim == 2 and trial % 3 == 0:  # all on one line
                pts = [(x, 2 * x - 1) for x, _ in pts]
            pts += rng.sample(pts, rng.randint(0, len(pts)))  # duplicates, other heights
            triples = [(x, y, rng.randint(-12, 12)) for x, y in pts]
            d, e = rng.choice((1, 2, 6, 35)), rng.choice((1, 3, 10, 77))
            scaled = [(x * 7, y * 7, h * 4) for x, y, h in triples] if trial % 2 else triples
            self.check(dim, scaled, d * (7 if trial % 2 else 1), e * (4 if trial % 2 else 1))

    def test_paraboloid_grid_with_coplanar_cells(self):
        grid = [(x, y, x * x + y * y) for x in range(-3, 4) for y in range(-2, 3)]
        self.check(2, grid + [(0, 0, 5), (1, 1, 2)], 3, 9)
        self.check(1, [(x, 0, abs(x)) for x in range(-5, 6)], 2, 5)


def k128_paraboloid():
    """Delta and 128 generators (2p, |p|^2 + noise) for points p of Delta:
    close to the Voronoi diagram of the p, so about half keep a cell."""
    from nama import toric as tc

    rng = random.Random(59)
    delta = tc.newton_polytope([(0, 0), (4, 0), (5, 3), (2, 5), (0, 3)], 2)
    pts = set()
    while len(pts) < 128:
        p = (F(rng.randint(0, 160), 32), F(rng.randint(0, 160), 32))
        if contains(delta.body, p):
            pts.add(p)
    noise = F(1, 64)
    return delta, [((2 * x, 2 * y), x * x + y * y + noise * rng.randint(-8, 8)) for x, y in pts]


def reference_clip(p, halfspaces):
    """Plain-Fraction Sutherland-Hodgman clip, the reference for pg.clip.

    Segments and points are clipped as 2- and 1-point loops; hull drops
    the repeated crossing points.  Returns None for an empty result.
    """
    pts = list(p.vertices)
    for a, b in halfspaces:
        a, b = tuple(F(c) for c in a), F(b)
        vals = [sum(x * y for x, y in zip(a, q)) - b for q in pts]
        out = []
        for i in range(len(pts)):
            q, r = pts[i], pts[(i + 1) % len(pts)]
            fq, fr = vals[i], vals[(i + 1) % len(pts)]
            if fq <= 0:
                out.append(q)
            if (fq < 0 < fr) or (fr < 0 < fq):
                t = fq / (fq - fr)
                out.append(tuple(x + t * (y - x) for x, y in zip(q, r)))
        if not out:
            return None
        pts = out
    return pg.hull(pts, p.dim)


def assert_clip_matches_reference(body, halfspaces):
    got = pg.clip(body, halfspaces)
    want = reference_clip(body, halfspaces)
    if want is None:
        assert got.is_empty
    else:
        assert got == want


def random_halfspaces(rng, body, count, floats=False):
    """Random cuts of `body`, mixing generic cuts with cuts through a
    vertex, along an edge (both sides) and cuts that empty the body."""
    n = body.dim
    verts = list(body.vertices)
    out = []
    for _ in range(count):
        kind = rng.randrange(5)
        if floats:
            a = tuple(F(rng.uniform(-3, 3)) for _ in range(n))
        else:
            a = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
        if all(c == 0 for c in a):
            a = (F(1),) + a[1:]
        if kind == 0:
            b = F(rng.uniform(-2, 2)) if floats else F(rng.randint(-8, 8), 4)
        elif kind == 1:  # through a vertex
            b = pg.dot(a, rng.choice(verts))
        elif kind == 2 and body.affine_dim == 2:  # along an edge, either side
            a, b = rng.choice(eager_facets(body))
            if rng.random() < 0.5:
                a, b = tuple(-c for c in a), -b
        elif kind == 3:  # below every vertex: empty
            b = min(pg.dot(a, v) for v in verts) - F(1, 7)
        else:
            b = max(pg.dot(a, v) for v in verts) + F(rng.randint(-3, 0), 5)
        out.append((a, b))
    return out


class TestIntegerClipAgainstFractionReference:
    def test_polygons(self):
        rng = random.Random(41)
        for _ in range(150):
            pts = [(F(rng.randint(-8, 8), 4), F(rng.randint(-8, 8), 4)) for _ in range(7)]
            body = pg.hull(pts, 2)
            for count in (1, 2, 4, 6):
                assert_clip_matches_reference(body, random_halfspaces(rng, body, count))

    def test_segments_and_points(self):
        rng = random.Random(43)
        for _ in range(150):
            p = (F(rng.randint(-8, 8), 3), F(rng.randint(-8, 8), 3))
            q = (F(rng.randint(-8, 8), 3), F(rng.randint(-8, 8), 3))
            for body in (pg.hull([p, q], 2), pg.hull([p], 2)):
                for count in (1, 3, 5):
                    assert_clip_matches_reference(body, random_halfspaces(rng, body, count))

    def test_intervals(self):
        rng = random.Random(47)
        for _ in range(150):
            lo, hi = sorted(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2))
            for body in (pg.hull([(lo,), (hi,)], 1), pg.hull([(lo,)], 1)):
                for count in (1, 2, 4):
                    assert_clip_matches_reference(body, random_halfspaces(rng, body, count))

    def test_float_derived_coefficients(self):
        rng = random.Random(53)
        for _ in range(100):
            pts = [(F(rng.uniform(-1, 1)), F(rng.uniform(-1, 1))) for _ in range(6)]
            body = pg.hull(pts, 2)
            halfspaces = random_halfspaces(rng, body, rng.randint(1, 6), floats=True)
            assert_clip_matches_reference(body, halfspaces)
            assert_clip_matches_reference(pg.hull(pts[:2], 2), halfspaces)

    def test_toric_cells_k128_paraboloid(self):
        """Every Laguerre cell of a 128-site paraboloid-lifted envelope is
        the reference clip of Delta by the other sites' half-spaces, and a
        generator is pruned exactly when its reference cell is not
        full-dimensional."""
        from nama import toric as tc

        delta, gens = k128_paraboloid()
        f = tc.ToricPsh(delta, gens)
        kept = dict(zip(f.generators, f.cells))
        for xa, ta in sorted(gens):
            halfspaces = [(pg.sub(xb, xa), tb - ta) for xb, tb in gens if xb != xa]
            want = reference_clip(delta.body, halfspaces)
            if want is not None and want.is_full_dimensional:
                assert kept.pop((xa, ta)) == want
        assert kept == {}
        assert 40 < len(f.cells) < 128


def test_laguerre_cells_one_dimensional():
    body = pg.hull([(F(0),), (F(2),)], 1)
    diagram = laguerre_cells(body, [(F(0),), (F(1),), (F(3),)], [F(0), F(1, 2), F(7, 2)])
    # u(m) = max(0, m - 1/2, 3m - 7/2): breakpoints at 1/2 and 3/2.
    assert diagram.cells == [
        pg.hull([(F(0),), (F(1, 2),)], 1),
        pg.hull([(F(1, 2),), (F(3, 2),)], 1),
        pg.hull([(F(3, 2),), (F(2),)], 1),
    ]
    assert fraction_masses(diagram) == [F(1, 2), F(1), F(1, 2)]
    assert wall_ends(diagram) == [(0, 1, (F(1, 2),), (F(1, 2),)), (1, 2, (F(3, 2),), (F(3, 2),))]
    assert fraction_walls(diagram) == [(0, 1, F(1)), (1, 2, F(1, 2))]
    # A site whose affine piece never attains the max has no cell.
    diagram = laguerre_cells(body, [(F(0),), (F(1),)], [F(0), F(5)])
    assert (diagram.cells, fraction_masses(diagram), fraction_walls(diagram)) == ([body, None], [F(2), F(0)], [])


def test_walls_across_a_degenerate_cell():
    """The middle site's cell is a segment (2-D) or a point (1-D): its two
    neighbours share the wall through it without being neighbours in the
    triangulation of the lifted sites."""
    square = pg.hull([(0, 0), (1, 0), (1, 1), (0, 1)], 2)
    sites = [(F(0), F(0)), (F(1), F(0)), (F(2), F(0))]
    diagram = laguerre_cells(square, sites, [F(0), F(1, 2), F(1)])
    left = pg.hull([(0, 0), (F(1, 2), 0), (F(1, 2), 1), (0, 1)])
    right = pg.hull([(F(1, 2), 0), (1, 0), (1, 1), (F(1, 2), 1)])
    assert diagram.cells == [left, None, right]
    assert wall_ends(diagram) == [(0, 2, (F(1, 2), F(0)), (F(1, 2), F(1)))]
    assert fraction_walls(diagram) == [(0, 2, F(1, 2))]
    segment = pg.hull([(F(0),), (F(1),)], 1)
    diagram = laguerre_cells(segment, [(F(2),), (F(0),), (F(1),)], [F(1), F(0), F(1, 2)])
    assert diagram.cells == [pg.hull([(F(1, 2),), (F(1),)]), pg.hull([(F(0),), (F(1, 2),)]), None]
    assert wall_ends(diagram) == [(0, 1, (F(1, 2),), (F(1, 2),))]
    assert fraction_walls(diagram) == [(0, 1, F(1, 2))]


def shared_edges(cells, dim):
    """(i, j, u, v) for i < j and each edge u -> v of cell i's
    counterclockwise loop that cell j runs as v -> u (in 1-D each end u
    the two cells share, as u -> u), sorted."""
    edges = lambda loop: list(zip(loop, loop)) if dim == 1 else list(zip(loop, loop[1:] + loop[:1]))
    out = []
    for i, j in combinations([a for a, cell in enumerate(cells) if cell is not None], 2):
        theirs = {(v, u) for u, v in edges(cells[j].loop)}
        out += [(i, j, u, v) for u, v in edges(cells[i].loop) if (u, v) in theirs]
    return sorted(out)


@pytest.mark.parametrize("dim", [1, 2])
def test_walls_are_the_edges_the_cells_share(dim):
    """`_ends` and `walls` against a pairwise match of the final cells'
    edges, read before and after `cells`, on random diagrams
    with repeated sites and a site between two others at their mean value,
    whose cell is at most a segment (a point in 1-D)."""
    rng = random.Random(89 + dim)
    squeezed = 0
    for _ in range(80):
        if dim == 2:
            body = random_polygon(rng)
        else:
            body = pg.hull([(F(rng.randint(-8, 0), 3),), (F(rng.randint(1, 8), 5),)], 1)
        sites = [tuple(F(rng.randint(-6, 6), 2) for _ in range(dim)) for _ in range(rng.randint(2, 7))]
        values = [F(rng.randint(-9, 9), 4) for _ in sites]
        a, b = rng.sample(range(len(sites)), 2)
        mid = len(sites)
        sites.append(tuple((p + q) / 2 for p, q in zip(sites[a], sites[b])))
        values.append((values[a] + values[b]) / 2)
        for c in rng.choices(range(len(sites)), k=rng.randint(0, 3)):
            sites.append(sites[c])
            values.append(values[c] + F(rng.randint(0, 2), 4))
        walls_first = laguerre_cells(body, sites, values)
        walls, ends = fraction_walls(walls_first), list(walls_first._ends)
        cells_first = laguerre_cells(body, sites, values)
        cells = cells_first.cells
        assert walls_first.cells == cells and fraction_walls(cells_first) == walls and cells_first._ends == ends
        assert ends == shared_edges(cells, dim)
        point = lambda h: pg._from_homogeneous(h, dim)
        squared = []
        for i, j, u, v in ends:
            d, n = pg.sub(point(v), point(u)), pg.sub(sites[i], sites[j])
            squared.append((i, j, (pg.dot(d, d) if dim == 2 else 1) / pg.dot(n, n)))
        assert [(i, j, w * w) for i, j, w in walls] == squared
        if cells[mid] is None and (min(a, b), max(a, b)) in [w[:2] for w in walls]:
            squeezed += 1
    assert squeezed > 5


def assert_canonical(h, dim, a, b):
    """Every constructor makes h's one canonical loop, with equal values and
    hashes; a cut {<a, m> <= b} of h is checked against the hull of its
    own vertices."""
    a, w0 = a[:dim], h.loop[0][2]
    top = max(pg.dot(a, v) for v in h.vertices)
    same = [pg.hull(h.vertices, dim), pg.hull(h.vertices[::-1], dim), pg.clip(h, [(a, top + 1)])]
    same.append(h.scaled(F(6 * w0, 35)).scaled(F(35, 6 * w0)))  # s shares factors with W
    if h.is_full_dimensional:
        same.append(laguerre_cells(h, [a], [F(0)]).cells[0])
        same.append(pg.lower_hull([(v, pg.dot(v, v)) for v in h.vertices]).base)
    pairs = [(h, q) for q in same]
    cut = pg.clip(h, [(a, b)])
    for p, q in pairs if cut.is_empty else pairs + [(cut, pg.hull(cut.vertices, dim))]:
        assert (q.loop, q, hash(q)) == (p.loop, p, hash(p))
        assert all(w > 0 and gcd(x, y, w) == 1 and (dim == 2 or y == 0) for x, y, w in q.loop)


@settings(max_examples=60, deadline=None)
@given(st.lists(pt2(), min_size=1, max_size=12), pt2())
def test_hull_idempotent_property(pts, a):
    h = pg.hull(pts, 2)
    assert pg.hull(h.vertices, 2) == h
    assert_canonical(h, 2, a if a != (0, 0) else (F(1), F(2)), F(1, 3))


@settings(max_examples=30, deadline=None)
@given(st.lists(frac(), min_size=1, max_size=6), frac())
def test_segments_are_canonical(xs, b):
    assert_canonical(pg.hull([(x,) for x in xs], 1), 1, (F(1), F(0)), b)


@settings(max_examples=60, deadline=None)
@given(st.lists(pt2(), min_size=3, max_size=10), frac(), frac(), frac(-6, 6, 2))
def test_split_additivity_property(pts, ax, ay, b):
    if (ax, ay) == (0, 0):
        return
    h = pg.hull(pts, 2)
    left = pg.clip(h, [((ax, ay), b)])
    right = pg.clip(h, [((-ax, -ay), -b)])
    assert pg.volume(left) + pg.volume(right) == pg.volume(h)


# --------------------------------------------------------------------------
# Cells and clips built straight from the integer loop, against the loop's
# points re-hulled; containment against the eager facet construction.
# --------------------------------------------------------------------------


def primitive(a):
    """A rational vector scaled to a primitive integer vector, same direction."""
    ints, _ = integers(a)
    g = gcd(*ints) or 1
    return tuple(F(v // g) for v in ints)


def eager_facets(p):
    """The Fraction half-spaces (a, b), {<a, m> <= b}, that once cut out
    every Polytope: both sides of the carrier plus end caps for a point or
    segment, and <0, m> <= -1 for the empty polytope."""
    if p.is_empty:
        return ((tuple(F(0) for _ in range(p.dim)), F(-1)),)
    v = p.vertices
    if p.dim == 1:
        return (((F(1),), v[-1][0]), ((F(-1),), -v[0][0]))
    if p.affine_dim == 0:
        out = []
        for a in ((F(1), F(0)), (F(0), F(1))):
            out += [(a, pg.dot(a, v[0])), (tuple(-c for c in a), -pg.dot(a, v[0]))]
        return tuple(out)
    if p.affine_dim == 1:
        q, r = v
        d = pg.sub(r, q)
        n, t = primitive((d[1], -d[0])), primitive(d)
        return (
            (n, pg.dot(n, q)),
            (tuple(-c for c in n), -pg.dot(n, q)),
            (t, pg.dot(t, r)),
            (tuple(-c for c in t), -pg.dot(t, q)),
        )
    out = []
    for q, r in zip(v, v[1:] + v[:1]):
        d = pg.sub(r, q)
        a = primitive((d[1], -d[0]))
        out.append((a, pg.dot(a, q)))
    return tuple(out)


def assert_same_polytope(got, want):
    assert (got.dim, got.vertices, got.affine_dim) == (want.dim, want.vertices, want.affine_dim)
    assert all(type(c) is F for v in got.vertices for c in v)


def hull_clip(p, halfspaces):
    """`clip` as it was: the same integer Sutherland-Hodgman loop, with its
    surviving points handed to `hull`."""
    n = p.dim
    loop = p.loop
    for a, b in halfspaces:
        loop = pg._cut(loop, *integers(pg._planar(tuple(a)) + (b,))[0])
        if not loop:
            return pg._empty(n)
    return pg.hull([pg._from_homogeneous(h, n) for h in loop], n)


def hull_laguerre_cells(body, sites, values):
    cells = []
    for xa, ta in zip(sites, values):
        cell = hull_clip(body, [(pg.sub(xb, xa), tb - ta) for xb, tb in zip(sites, values) if xb != xa])
        cells.append(cell if cell.is_full_dimensional else None)
    return cells


def wall_ends(diagram):
    """The private wall end points of a `laguerre_cells` result as points."""
    point = lambda h: pg._from_homogeneous(h, diagram.body.dim)
    return [(i, j, point(u), point(v)) for i, j, u, v in diagram._ends]


def hull_walls(sites, values, cells):
    """(i, j, v0, v1) for each pair of full cells whose common points, cut
    out of cell i by `hull_clip`, span a facet [v0, v1], with the outward
    normal x_j - x_i of cell i on the right of v0 -> v1."""
    walls = []
    for i, j in combinations(range(len(cells)), 2):
        if cells[i] is not None and cells[j] is not None:
            wall = hull_clip(cells[i], [(pg.sub(sites[i], sites[j]), values[i] - values[j])])
            if wall.affine_dim == wall.dim - 1:
                v0, v1 = wall.vertices[0], wall.vertices[-1]
                if wall.dim == 2 and cross(pg.sub(sites[j], sites[i]), pg.sub(v1, v0)) < 0:
                    v0, v1 = v1, v0
                walls.append((i, j, v0, v1))
    return walls


def assert_cells_match_hull(body, sites, values):
    """Cells, masses, wall end points and squared wall weights against
    `hull_laguerre_cells` and `hull_walls`."""
    diagram = laguerre_cells(body, sites, values)
    want = hull_laguerre_cells(body, sites, values)
    assert [c is None for c in diagram.cells] == [c is None for c in want]
    for g, w in zip(diagram.cells, want):
        if w is not None:
            assert_same_polytope(g, w)
    assert fraction_masses(diagram) == [F(0) if w is None else pg.volume(w) for w in want]
    assert sum(fraction_masses(diagram)) == pg.volume(body)
    walls = hull_walls(sites, values, want)
    assert wall_ends(diagram) == walls
    squared = []
    for i, j, v0, v1 in walls:
        d, n = pg.sub(v1, v0), pg.sub(sites[i], sites[j])
        squared.append((i, j, (pg.dot(d, d) if body.dim == 2 else 1) / pg.dot(n, n)))
    assert [(i, j, w * w) for i, j, w in fraction_walls(diagram)] == squared


def random_polygon(rng, den=4, count=7):
    while True:
        body = pg.hull([(F(rng.randint(-8, 8), den), F(rng.randint(-8, 8), den)) for _ in range(count)], 2)
        if body.affine_dim == 2:
            return body


@pytest.mark.parametrize("dim", [1, 2])
def test_loop_volume_is_the_volume_of_the_loop(dim):
    """The integer mass of each `laguerre_cells` loop, read off
    `integer_masses`, equals the volume of its polytope, on cells cut by
    several walls, whose points have different W."""
    rng = random.Random(71 + dim)
    mixed = 0
    for _ in range(60):
        if dim == 2:
            body = random_polygon(rng)
        else:
            body = pg.hull([(F(rng.randint(-8, 0), 3),), (F(rng.randint(1, 8), 5),)], 1)
        sites = list({tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim)) for _ in range(8)})
        values = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in sites]
        diagram = laguerre_cells(body, sites, values)
        masses, den = diagram.integer_masses
        for loop, mass in zip(diagram._loops, masses):
            if loop is not None:
                assert F(mass, den) == pg.volume(pg._from_loop(loop, dim))
                mixed += len({w for _, _, w in loop}) > 1
    assert mixed > 50


@pytest.mark.parametrize("dim", [1, 2])
def test_integer_walls_are_the_fraction_walls(dim):
    """`integer_walls` puts the wall weights over the lcm of their reduced
    denominators, which is what `linalg.integers` makes of the Fraction
    weights, and the weights are those of `hull_walls`."""
    rng = random.Random(2727 + dim)
    count = 0
    for _ in range(40):
        if dim == 2:
            body = random_polygon(rng)
        else:
            body = pg.hull([(F(rng.randint(-8, 0), 3),), (F(rng.randint(1, 8), 5),)], 1)
        sites = list({tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim)) for _ in range(8)})
        values = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in sites]
        diagram = laguerre_cells(body, sites, values)
        walls, den = diagram.integer_walls
        weights = [w for _, _, w in fraction_walls(diagram)]
        assert [(i, j) for i, j, _ in walls] == [(i, j) for i, j, _ in fraction_walls(diagram)]
        assert ([v for _, _, v in walls], den) == integers(weights)
        ends = hull_walls(sites, values, hull_laguerre_cells(body, sites, values))
        for (i, j, v0, v1), (_, _, v) in zip(ends, walls):
            d, n = pg.sub(v1, v0), pg.sub(sites[i], sites[j])
            assert F(v, den) ** 2 == (pg.dot(d, d) if dim == 2 else 1) / pg.dot(n, n)
        count += len(walls)
    assert count > 40 * dim


class TestCellsWithoutSecondHull:
    def test_clip_through_a_vertex_and_along_an_edge(self):
        rng = random.Random(61)
        for _ in range(150):
            body = random_polygon(rng)
            cuts = []
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.5:  # through a vertex
                    a = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3), rng.randint(1, 3)))
                    if a == (0, 0):
                        a = (F(1), F(0))
                    cuts.append((a, pg.dot(a, rng.choice(body.vertices))))
                else:  # along an edge, keeping either side
                    a, b = rng.choice(eager_facets(body))
                    cuts.append((a, b) if rng.random() < 0.5 else (tuple(-c for c in a), -b))
            assert_same_polytope(pg.clip(body, cuts), hull_clip(body, cuts))

    def test_clip_slivers(self):
        rng = random.Random(67)
        for _ in range(150):
            body = random_polygon(rng)
            a = (F(rng.randint(-3, 3)), F(rng.randint(1, 3)))
            top = max(pg.dot(a, v) for v in body.vertices)
            eps = F(1, 10 ** rng.randint(3, 9))
            for cuts in ([(a, top - eps)], [(tuple(-c for c in a), eps - top)]):
                assert_same_polytope(pg.clip(body, cuts), hull_clip(body, cuts))

    def test_laguerre_cells_near_ties_and_exact_ties(self):
        """Paraboloid values put many walls through common points; a noise
        of 1e-9 moves them apart by a hair."""
        rng = random.Random(71)
        for trial in range(60):
            body = random_polygon(rng)
            sites = sorted({(F(rng.randint(-6, 6), 2), F(rng.randint(-6, 6), 2)) for _ in range(rng.randint(2, 9))})
            noise = F(rng.randint(-1, 1), 10**9) if trial % 2 else F(0)
            values = [(x * x + y * y) / 2 + noise * rng.randint(-1, 1) for x, y in sites]
            assert_cells_match_hull(body, sites, values)

    def test_laguerre_sliver_cells(self):
        """Pairs of sites a hair apart with almost equal values cut thin
        strips out of each other's cells."""
        rng = random.Random(73)
        for _ in range(60):
            body = random_polygon(rng)
            sites, values = [], []
            for _ in range(rng.randint(1, 4)):
                x = (F(rng.randint(-6, 6), 3), F(rng.randint(-6, 6), 3))
                d = (F(rng.randint(-2, 2), 10**6), F(1, 10**6))
                t = F(rng.randint(-4, 4), 4)
                sites += [x, pg.add(x, d)]
                values += [t, t + F(rng.randint(-2, 2), 10**7)]
            if len(set(sites)) == len(sites):
                assert_cells_match_hull(body, sites, values)

    def test_one_dimensional_cells_and_clips(self):
        rng = random.Random(79)
        for _ in range(150):
            lo = F(rng.randint(-9, 9), rng.randint(1, 4))
            hi = lo + F(rng.randint(1, 9), rng.randint(1, 4))
            body = pg.hull([(lo,), (hi,)], 1)
            sites = sorted({(F(rng.randint(-6, 6), 2),) for _ in range(rng.randint(1, 5))})
            values = [F(rng.randint(-8, 8), 4) for _ in sites]
            assert_cells_match_hull(body, sites, values)
            cuts = random_halfspaces(rng, body, rng.randint(1, 3))
            assert_same_polytope(pg.clip(body, cuts), hull_clip(body, cuts))


def test_integer_facets_are_the_eager_facets_times_positive_factors():
    rng = random.Random(103)
    for _ in range(200):
        dim = rng.choice((1, 2))
        p = pg.hull([tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim)) for _ in range(5)], dim)
        if p.is_full_dimensional:
            got = [(a0, a1, b, gcd(a0, a1)) for a0, a1, b in p.integer_facets]
            assert {((F(a0 // g), F(a1 // g))[:dim], F(b, g)) for a0, a1, b, g in got} == set(eager_facets(p))
            assert len(got) == len(eager_facets(p))


def test_contains_matches_the_eager_facets_on_every_kind_of_polytope():
    """`contains` on the empty polytope, 1-D points and segments and 2-D
    points, segments and polygons with rational and negative vertices,
    against the half-spaces of `eager_facets`: at the vertices, edge
    midpoints and the vertex mean, between the mean and each vertex, just
    off each vertex, on the carrier beyond each end and at random points."""
    rng = random.Random(101)
    coord = lambda: F(rng.randint(-9, 9), rng.randint(1, 4))
    shapes = [pg._empty(1), pg._empty(2)]
    for _ in range(60):
        pts = [(coord(), coord()) for _ in range(rng.randint(3, 7))]
        shapes += [pg.hull(pts, 2), pg.hull(pts[:2], 2), pg.hull(pts[:1], 2)]
        shapes += [pg.hull([p[:1] for p in pts], 1), pg.hull([pts[0][:1]], 1)]
    kinds, answers = set(), set()
    for p in shapes:
        kinds.add((p.dim, p.affine_dim))
        v = list(p.vertices)
        probes = [tuple(coord() for _ in range(p.dim)) for _ in range(8)]
        if v:
            c = tuple(sum(q[k] for q in v) / len(v) for k in range(p.dim))
            probes += v + [c] + [tuple((a + b) / 2 for a, b in zip(q, r)) for q, r in zip(v, v[1:] + v[:1])]
            for q in v:
                probes += [tuple((a + b) / 2 for a, b in zip(q, c)), tuple(2 * a - b for a, b in zip(q, c))]
                for k in range(p.dim):
                    for eps in (F(1, 1000), F(-1, 1000)):
                        probes.append(tuple(a + eps * (i == k) for i, a in enumerate(q)))
        facets = eager_facets(p)
        for q in probes:
            inside = all(pg.dot(a, q) <= b for a, b in facets)
            assert contains(p, q) == inside
            answers.add(inside)
    assert kinds == {(1, -1), (1, 0), (1, 1), (2, -1), (2, 0), (2, 1), (2, 2)}
    assert answers == {False, True}


def test_integer_volume_centroid_moment_match_fractions():
    rng = random.Random(97)
    for _ in range(100):
        body = random_polygon(rng, den=rng.randint(1, 7))
        v = body.vertices
        fan = [(v[0], v[i], v[i + 1]) for i in range(1, len(v) - 1)]
        areas = [cross(pg.sub(q, p), pg.sub(r, p)) / 2 for p, q, r in fan]
        area = sum(areas)
        c = tuple(sum(a * (p[k] + q[k] + r[k]) / 3 for a, (p, q, r) in zip(areas, fan)) / area for k in range(2))
        a, off = (F(rng.randint(-5, 5), 3), F(rng.randint(-5, 5), 2)), F(rng.randint(-5, 5), 7)
        assert pg.volume(body) == area
        assert pg.centroid(body) == c
        assert pg.moment(body, a, off) == area * (pg.dot(a, c) + off)


# --------------------------------------------------------------------------
# Laguerre cells cut by the neighbours of the regular triangulation of the
# lifted sites, on degenerate inputs, against cells cut by every other site
# (`hull_laguerre_cells`); the triangulation's certificates on bad input.
# --------------------------------------------------------------------------


class TestLaguerreCellsFromTriangulation:
    def test_coarse_grid_sites(self):
        """Sites on a 5 x 5 grid: collinear triples, collinear prefixes and
        sites collinear with hull edges."""
        rng = random.Random(137)
        for _ in range(80):
            body = random_polygon(rng)
            sites = sorted({(F(rng.randint(-2, 2)), F(rng.randint(-2, 2))) for _ in range(rng.randint(2, 18))})
            values = [F(rng.randint(-2, 2), 2) for _ in sites]
            assert_cells_match_hull(body, sites, values)

    def test_paraboloid_ties_give_coplanar_lifts(self):
        """Sites s on a half-integer grid with values |s|^2 / 2: every four
        co-circular sites lift to one plane."""
        rng = random.Random(139)
        for _ in range(60):
            body = random_polygon(rng)
            sites = sorted({(F(rng.randint(-6, 6), 2), F(rng.randint(-6, 6), 2)) for _ in range(rng.randint(3, 24))})
            assert_cells_match_hull(body, sites, [(x * x + y * y) / 2 for x, y in sites])

    def test_all_sites_collinear(self):
        rng = random.Random(149)
        for trial in range(80):
            body = random_polygon(rng)
            (a, b), c = rng.choice([(1, 0), (0, 1), (1, 1), (2, -1)]), F(rng.randint(-3, 3), 4)
            ts = sorted({F(rng.randint(-8, 8), 4) for _ in range(rng.randint(2, 8))})
            sites = [(a * t + c, b * t - c) for t in ts]
            if trial % 3 == 0:  # lifts on one line: the middle sites lie on a segment
                values = [3 * t + c for t in ts]
            else:
                values = [F(rng.randint(-6, 6), 4) for _ in ts]
            assert_cells_match_hull(body, sites, values)

    def test_single_site(self):
        body = random_polygon(random.Random(151))
        diagram = laguerre_cells(body, [(F(1, 3), F(-2))], [F(5)])
        assert (diagram.cells, fraction_masses(diagram), fraction_walls(diagram)) == ([body], [pg.volume(body)], [])
        segment = pg.hull([(F(0),), (F(2),)], 1)
        diagram = laguerre_cells(segment, [(F(7),)], [F(0)])
        assert (diagram.cells, fraction_masses(diagram), fraction_walls(diagram)) == ([segment], [F(2)], [])

    def test_unsorted_sites(self):
        """Cells come back in input order, whatever that order is."""
        rng = random.Random(157)
        for _ in range(60):
            body = random_polygon(rng)
            sites = sorted({(F(rng.randint(-6, 6), 2), F(rng.randint(-6, 6), 2)) for _ in range(rng.randint(2, 12))})
            values = [F(rng.randint(-8, 8), 4) for _ in sites]
            by_site = dict(zip(sites, laguerre_cells(body, sites, values).cells))
            pairs = list(zip(sites, values))
            rng.shuffle(pairs)
            shuffled = [s for s, _ in pairs]
            assert laguerre_cells(body, shuffled, [t for _, t in pairs]).cells == [by_site[s] for s in shuffled]
            assert_cells_match_hull(body, shuffled, [t for _, t in pairs])

    def test_repeated_site_counts_at_its_lowest_value(self):
        """Copies of sites at lower, equal and higher values, shuffled: one
        lowest copy of each site gets exactly the cell the site gets with
        the other copies removed, the other copies get None, and the walls
        and masses are those of the diagram without them."""
        rng = random.Random(163)
        for _ in range(60):
            body = random_polygon(rng)
            sites = sorted({(F(rng.randint(-6, 6), 2), F(rng.randint(-6, 6), 2)) for _ in range(rng.randint(2, 8))})
            values = [F(rng.randint(-8, 8), 4) for _ in sites]
            copies = rng.choices(range(len(sites)), k=rng.randint(1, 2 * len(sites)))
            given = list(enumerate(values)) + [(a, values[a] + F(rng.randint(-2, 2), 4)) for a in copies]
            rng.shuffle(given)
            lowest = [min(t for b, t in given if b == a) for a in range(len(sites))]
            want = laguerre_cells(body, sites, lowest)
            got = laguerre_cells(body, [sites[a] for a, _ in given], [t for _, t in given])
            owner = {}
            for a, cell in enumerate(want.cells):
                mine = [i for i, (b, _) in enumerate(given) if b == a]
                kept = [i for i in mine if got.cells[i] is not None]
                assert len(kept) == (cell is not None)
                if kept:
                    (owner[a],) = kept
                    assert given[owner[a]][1] == lowest[a] and got.cells[owner[a]] == cell
            walls, masses = fraction_walls(want), fraction_masses(want)
            assert sorted(fraction_walls(got)) == sorted((*sorted((owner[a], owner[b])), w) for a, b, w in walls)
            assert fraction_masses(got) == [masses[a] if owner.get(a) == i else 0 for i, (a, _) in enumerate(given)]

    def test_k128_cuts_by_neighbours_only(self, monkeypatch):
        """A work counter free of timing noise: cutting every cell of the
        128-site instance by all other sites took 12,433 `_cut` calls;
        cutting it by its triangulation neighbours takes 582."""
        delta, gens = k128_paraboloid()
        gens = sorted(gens)
        calls = []
        cut = pg._cut
        monkeypatch.setattr(pg, "_cut", lambda *args: calls.append(args) or cut(*args))
        laguerre_cells(delta.body, [x for x, _ in gens], [t for _, t in gens])
        assert len(calls) <= 1000

    def test_potentials_read_cells_only(self, monkeypatch):
        """Building a ToricPsh sums each loop once, its diagram's cells and
        Delta, for the mass-sum certificate; the cells keep those sums, and
        no wall end, so no wall weight, is computed."""
        from nama import toric as tc

        delta, gens = k128_paraboloid()
        diagrams, sums = [], []
        power_diagram, moment_sums = pg.power_diagram, pg._moment_sums
        monkeypatch.setattr(pg, "power_diagram", lambda *args: diagrams.append(power_diagram(*args)) or diagrams[-1])
        monkeypatch.setattr(pg, "_moment_sums", lambda *args: sums.append(args) or moment_sums(*args))
        f = tc.ToricPsh(delta, gens)
        assert len(diagrams) == 1 and list(f.cells) == [c for c in diagrams[0].cells if c is not None]
        assert not {"walls", "integer_walls", "_ends"} & set(vars(diagrams[0]))
        loops = [tuple(loop) for loop in diagrams[0]._loops if loop is not None]
        assert sorted(tuple(loop) for loop, _ in sums) == sorted(loops + [delta.body.loop])
        assert [vars(c)["moment_sums"] for c in f.cells] == [moment_sums(c.loop, 2) for c in f.cells]

    def test_an_energy_op_computes_each_quantity_once(self, tmp_path, monkeypatch):
        """A work counter free of timing noise: one `energy` op on the
        128-site instance builds one power diagram, for the potential (g_Delta
        is Delta's own cell), matches no wall end, and sums each loop once,
        wherever the loop starts: the diagram's cut loops, whose sums its
        cells keep for the potential's energy and MA measure, and Delta,
        shared by g_Delta's energy and the volume."""
        import json

        from nama import cli

        delta, gens = k128_paraboloid()
        doc = {
            "kind": "toric-envelope",
            "mode": "rational",
            "polytope": {"vertices": [[str(c) for c in v] for v in delta.body.vertices]},
            "constraints": [{"site": [str(c) for c in x], "value": str(t)} for x, t in gens],
        }
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(doc))
        diagrams, sums = [], []
        power_diagram, moment_sums = pg.power_diagram, pg._moment_sums
        monkeypatch.setattr(pg, "power_diagram", lambda *args: diagrams.append(power_diagram(*args)) or diagrams[-1])
        monkeypatch.setattr(pg, "_moment_sums", lambda *args: sums.append(args) or moment_sums(*args))
        assert cli.main(["energy", str(inst), "-o", str(tmp_path / "out.json"), "--no-timestamp"]) == 0
        assert len(diagrams) == 1 and "_ends" not in vars(diagrams[0])
        cells = [c for c in diagrams[0].cells if c is not None]
        assert 40 < len(cells) < 128
        assert sorted(map(rotated, (loop for loop, _ in sums))) == sorted(map(rotated, [c.loop for c in cells] + [delta.body.loop]))


def rotated(loop):
    """A loop started at its least point: the same for every start."""
    i = loop.index(min(loop))
    return tuple(loop[i:] + loop[:i])


SMALL_GRID_BODY = pg.hull([(F(-3, 2), F(-1)), (F(2), F(-3, 2)), (F(1), F(2)), (F(-2), F(1))], 2)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-3, 3)),
        min_size=1,
        max_size=14,
        unique_by=lambda p: p[:2],
    )
)
def test_laguerre_cells_on_small_grids_property(points):
    sites = [(F(x), F(y)) for x, y, _ in points]
    assert_cells_match_hull(SMALL_GRID_BODY, sites, [F(h, 2) for _, _, h in points])


# Planted triangulation faults.  `power_diagram` certifies what it builds
# on a triangulation by the cells' mass sum and by a walk to each removed
# site, so each test hands it a broken `_regular_triangulation` result:
# every fault must raise ConsistencyError or leave the cells exact.
#
# The square (0, 0), (0, 2), (2, 0), (2, 2) as points 0, 1, 2, 3 in
# lexicographic order, cut along the diagonal 0-3 into the counterclockwise
# triangles (0, 2, 3) and (0, 3, 1), each under its three directed edges.
SQUARE_TRIANGLES = {(0, 2): 3, (2, 3): 0, (3, 0): 2, (0, 3): 1, (3, 1): 0, (1, 0): 3}
SQUARE = [(0, 0), (0, 2), (2, 0), (2, 2)]
UNIT_BOX = pg.hull([(F(-1), F(-1)), (F(1), F(-1)), (F(1), F(1)), (F(-1), F(1))], 2)


def planted(monkeypatch, apex, removed):
    monkeypatch.setattr(pg, "_regular_triangulation", lambda pts: (dict(apex), dict(removed)))


def integer_diagram(body, sites, heights):
    """The power diagram of integer sites (X, Y) with integer values."""
    return pg.power_diagram(body, pg.IntegerSites(list(sites), 1, list(heights), 1))


def assert_reference_cells(body, sites, heights, diagram):
    points = [tuple(F(c) for c in x[: body.dim]) for x in sites]
    assert diagram.cells == hull_laguerre_cells(body, points, [F(h) for h in heights])


class TestTriangulationCertificates:
    def test_a_valid_triangulation_passes(self, monkeypatch):
        assert pg._regular_triangulation([(x, y, h) for (x, y), h in zip(SQUARE, [0, 1, 1, 0])]) == (
            SQUARE_TRIANGLES,
            {},
        )
        planted(monkeypatch, SQUARE_TRIANGLES, {})
        assert_reference_cells(UNIT_BOX, SQUARE, [0, 1, 1, 0], integer_diagram(UNIT_BOX, SQUARE, [0, 1, 1, 0]))

    def test_edge_not_locally_convex(self, monkeypatch):
        # Lifting the diagonal's ends above the other corners folds it
        # upward: the cells of 1 and 2, never cut by each other, overlap.
        planted(monkeypatch, SQUARE_TRIANGLES, {})
        with pytest.raises(ConsistencyError, match="cells cover mass"):
            integer_diagram(UNIT_BOX, SQUARE, [1, 0, 0, 1])

    def test_gap_in_the_cover(self, monkeypatch):
        # Without the triangle (0, 3, 1), corner 1 is cut by nothing.
        planted(monkeypatch, {(0, 2): 3, (2, 3): 0, (3, 0): 2}, {})
        with pytest.raises(ConsistencyError, match="cells cover mass"):
            integer_diagram(UNIT_BOX, SQUARE, [0, 1, 1, 0])

    def test_removed_point_below_its_triangle(self, monkeypatch):
        # The centre (1, 1) is point 2 between the corners; the point that
        # removed it is corner 4.  Below the corners' plane it is visible,
        # and the corners' cells still tile the box: only the walk sees it.
        sites = [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)]
        planted(monkeypatch, {(0, 3): 4, (3, 4): 0, (4, 0): 3, (0, 4): 1, (4, 1): 0, (1, 0): 4}, {2: 4})
        assert_reference_cells(UNIT_BOX, sites, [0, 0, 1, 0, 0], integer_diagram(UNIT_BOX, sites, [0, 0, 1, 0, 0]))
        with pytest.raises(ConsistencyError, match="removed point 2"):
            integer_diagram(UNIT_BOX, sites, [0, 0, -1, 0, 0])

    @pytest.mark.parametrize("kind", ["degenerate", "clockwise"])
    def test_walk_must_end_on_a_counterclockwise_triangle(self, kind, monkeypatch):
        """A walk to a removed point must stop at a counterclockwise triangle.
        Degenerate: point 2 = (1, 0), visible, lies on the line of the flat
        triangle (4, 0, 3) where the walk from 4 starts, and no lifted plane
        is below it there; the cells of 0, 1 and 4 tile the box without it.
        Clockwise: the square's triangles listed backwards, with the centre
        2 above them: the cells are right, but no walk ever stops."""
        if kind == "degenerate":
            sites, heights = [(0, 0), (0, 2), (1, 0), (2, 0), (3, 0)], [0, 0, -5, 0, 0]
            apex = {(0, 4): 1, (4, 1): 0, (1, 0): 4, (0, 3): 4, (3, 4): 0, (4, 0): 3}
        else:
            sites, heights = [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)], [0, 0, 1, 0, 0]
            apex = {(0, 1): 4, (1, 4): 0, (4, 0): 1, (0, 4): 3, (4, 3): 0, (3, 0): 4}
        planted(monkeypatch, apex, {2: 4})
        with pytest.raises(ConsistencyError, match="removed point 2"):
            integer_diagram(UNIT_BOX, sites, heights)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_a_chain_that_drops_a_visible_site(self, dim, monkeypatch):
        """Collinear sites (0, 0), (1, d - 1), (2, 2 d - 2): a lower chain
        that removes the middle one is certified only above it."""
        body = UNIT_BOX if dim == 2 else pg.hull([(F(-1),), (F(1),)], 1)
        sites = [(k, (dim - 1) * k) for k in range(3)]
        planted(monkeypatch, {(0, 2): None}, {1: 2})
        assert_reference_cells(body, sites, [0, 1, 0], integer_diagram(body, sites, [0, 1, 0]))
        with pytest.raises(ConsistencyError, match="removed point 1"):
            integer_diagram(body, sites, [0, -1, 0])

    def test_random_faults_on_small_grids(self, monkeypatch):
        """The small-grid generator with one planted fault per case: an edge
        pair dropped, or a kept vertex marked removed by another."""
        rng = random.Random(167)
        triangulate, outcomes = pg._regular_triangulation, {"raised": 0, "exact": 0}
        for _ in range(300):
            grid = rng.sample([(x, y) for x in range(-2, 3) for y in range(-2, 3)], rng.randint(2, 14))
            sites, heights = sorted(grid), [rng.randint(-3, 3) for _ in grid]
            apex, removed = triangulate([(2 * x, 2 * y, h) for (x, y), h in zip(sites, heights)])
            edges = sorted({tuple(sorted(e)) for e in apex})
            kept = sorted({v for e in apex for v in e})
            if rng.random() < 0.5 and len(edges) > 1:
                i, j = rng.choice(edges)
                for edge in ((i, j), (j, i)):
                    apex.pop(edge, None)
            else:
                v, p = rng.sample(kept, 2)
                removed[v] = p
            planted(monkeypatch, apex, removed)
            try:
                diagram = integer_diagram(SMALL_GRID_BODY, [(2 * x, 2 * y) for x, y in sites], heights)
            except ConsistencyError:
                outcomes["raised"] += 1
                continue
            points = [(F(x), F(y)) for x, y in sites]
            assert diagram.cells == hull_laguerre_cells(SMALL_GRID_BODY, points, [F(h, 2) for h in heights])
            outcomes["exact"] += 1
        assert outcomes["raised"] > 200 and outcomes["exact"] > 0, outcomes


# One integer form for sites with values: the same rationals reach the same
# (xs, d, ts, e) from (site, value) pairs, from a Dirac problem's sites and
# weights and from the parser's literals.
INTEGER_FORM_PAIRS = {
    1: [((F(1, 2),), F(3, 4)), ((F(-2),), F(1, 4)), ((F(5, 3),), F(2)), ((F(1, 2),), F(-7, 6))],
    2: [((F(1, 2), F(-3)), F(1, 3)), ((F(-2, 3), F(0)), F(5, 2)), ((F(4), F(7, 4)), F(7, 6)), ((F(1, 2), F(-3)), F(-1, 4))],
}


def integer_form(pairs):
    """The converter's integer form of rational (site, value) pairs."""
    return tuple(pg.integer_sites(pairs))


@pytest.mark.parametrize("dim", [1, 2])
def test_sites_reach_one_integer_form_by_every_route(dim):
    """Repeated sites, negative, integer and rational coordinates: the
    converter, `DiracProblem._integers` (its weights as the values) and
    `decode_generators` of the equivalent literals agree."""
    from nama import instance_io as io
    from nama import solver as sv
    from nama import toric as tc

    pairs = INTEGER_FORM_PAIRS[dim]
    want = integer_form(pairs)
    literal = lambda x: x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    objs = [{"site": [literal(c) for c in x], "value": literal(t)} for x, t in pairs]
    assert tuple(io.decode_generators(objs, "rational", "constraints", dim)) == want
    distinct = pairs[:3]  # a problem's sites are distinct and its weights positive
    total = sum(w for _, w in distinct)
    delta = tc.newton_polytope([(0,), (total,)] if dim == 1 else [(0, 0), (total, 0), (total, 1), (0, 1)], dim)
    p = sv.DiracProblem(delta, tuple(x for x, _ in distinct), tuple(w for _, w in distinct))
    assert tuple(p._integers) == integer_form(distinct)


def test_integer_form_by_hand():
    assert integer_form(INTEGER_FORM_PAIRS[2]) == ([(6, -36), (-8, 0), (48, 21), (6, -36)], 12, [4, 30, 14, -3], 12)
    assert integer_form(INTEGER_FORM_PAIRS[1]) == ([(3, 0), (-12, 0), (10, 0), (3, 0)], 6, [9, 3, 24, -14], 12)
