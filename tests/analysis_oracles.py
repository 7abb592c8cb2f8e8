"""Per-point readings of the comparison table, for the tests: a lower convex hull
built and evaluated in `Fraction` memory, one bisection per grid entry, and the table
that :func:`macc.comparison_table` must reproduce from them row for row.  Also the SR1
claim's memory sharing searched pair by pair, which :func:`macc.analysis.check_sr1_rate`
reads off an envelope instead."""

import bisect
import itertools
import operator
from fractions import Fraction
from math import gcd

from macc import achievable_rate, analysis


def fraction_hull(points) -> tuple[tuple[Fraction, Fraction], ...]:
    """Lower convex hull of (memory, rate) pairs in `Fraction` memory: per memory the
    lowest rate, collinear points dropped."""
    hull: list[tuple[Fraction, Fraction]] = []
    for x, y in sorted((Fraction(mem), Fraction(rate)) for mem, rate in points):
        if hull and hull[-1][0] == x:
            continue
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2:]
            if (y1 - y0) * (x - x1) >= (y - y1) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append((x, y))
    return tuple(hull)


def rate_on(hull, memory) -> Fraction:
    """The hull's rate at one memory: bisect for its segment, then interpolate."""
    x = Fraction(memory)
    if x >= hull[-1][0]:
        return hull[-1][1]
    hi = bisect.bisect_right(hull, x, key=operator.itemgetter(0))
    (m0, r0), (m1, r1) = hull[hi - 1], hull[hi]
    return r0 + (r1 - r0) * (x - m0) / (m1 - m0)


def oracle_table(k: int, z: int, grid) -> list[tuple]:
    """(memory, scheme, rate, kind, subpacketization) per grid entry and scheme, from
    the corner maps re-keyed from j = K*M/N to `Fraction` memory j/K and a per-point
    evaluation of each scheme's hull."""
    grid = [Fraction(mem) for mem in grid]
    tparams = sorted(set(range(1, k // z + 1))
                     | {int(mem * k) for mem in grid if (mem * k).denominator == 1})
    by_j = {"ours": analysis.our_corners(k, z)} | {
        scheme: analysis.rival_corners(scheme, k, z, tparams)
        for scheme in analysis.SCHEME_ORDER[1:]}
    corners = {scheme: {Fraction(j, k): corner for j, corner in cmap.items()}
               for scheme, cmap in by_j.items()}
    hulls = {}
    for scheme in ("ours", *analysis.RATE_SCHEMES):
        pts = [(Fraction(0), Fraction(k))] + [(mem, rate) for mem, (rate, _) in
                                              corners[scheme].items()]
        if scheme != "ours":
            pts = [p for p in pts if p[0] * k <= k // z]
            pts.append((Fraction(-(-k // z), k), Fraction(0)))
        hulls[scheme] = fraction_hull(pts)
    rows = []
    for mem in grid:
        for scheme in analysis.SCHEME_ORDER:
            corner_rate, sub = corners[scheme].get(mem, (None, None))
            rate = rate_on(hulls[scheme], mem) if scheme in hulls else None
            kind = ("external" if rate is None
                    else "corner" if corner_rate == rate else "interpolated")
            rows.append((mem, scheme, rate, kind, sub))
    return rows


def sr1_best_pair(k: int, z: int, tpp: int):
    """(rate, m1, m2): the lowest rate at M/N = t''/K on a chord between two of our t = 1
    corners (m/K, achievable_rate(K/m, m, z, 1)), over every pair of group counts
    m1 < m2 with K/m >= z and m1 <= t'' <= m2; None where the SR1 claim does not apply
    (gcd(t'', K) != 1, t''z = K - 1, t''z outside 1..K) or no pair reaches t''."""
    if gcd(tpp, k) != 1 or tpp * z == k - 1 or not 1 <= tpp * z <= k:
        return None
    ms = [m for m in analysis.divisors(k) if k // m >= z]
    best = None
    for m1, m2 in itertools.combinations(ms, 2):
        if m1 <= tpp <= m2:
            r1, r2 = achievable_rate(k // m1, m1, z, 1), achievable_rate(k // m2, m2, z, 1)
            shared = r1 + Fraction(tpp - m1, m2 - m1) * (r2 - r1)
            if best is None or shared < best[0]:
                best = (shared, m1, m2)
    return best
