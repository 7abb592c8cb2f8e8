"""Rate/memory trade-off analysis and comparisons against rival schemes.

Every scheme is reduced to one corner map, from each exactly-achievable memory
M/N, keyed by the integer j = K*M/N, to its (rate, subpacketization):
:func:`our_corners` and :func:`rival_corners`.  Intermediate memory sizes are served
by memory sharing, i.e. the lower convex envelope of the (M/N, rate) pairs, which one
rule builds from any scheme's map.  All arithmetic is exact (Fraction / big int); floats
appear only in CSV/log10 output.

Rival schemes are keyed RK, NT, SICPS, SPE, SR1, SR2, MR.  ``rival_corner``
states each one's corner at M/N = t/K once: where it applies, its rate and
its subpacketization.  SPE and SICPS rates come from outside formulas and are
emitted as "external".  SR1's subpacketization is only known to lie in
[K, K**2] and is reported as that interval.  The paper's five comparison claims are the
predicates ``check_*``: None where a claim does not apply, else whether its threshold holds.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from math import gcd, lcm

from .designs import require_ints
from .engine import achievable_rate

SCHEME_ORDER = ("ours", "RK", "NT", "SICPS", "SPE", "SR1", "SR2", "MR")
RATE_SCHEMES = ("RK", "NT", "SR1", "SR2", "MR")


class ApplicabilityError(ValueError):
    """Scheme formula does not apply at the requested parameters."""


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _check_users(k_users: int, z: int) -> None:
    """Ints K >= 1 and 1 <= z <= K, else a ValueError no ``ApplicabilityError`` handler swallows."""
    if type(k_users) is not int or type(z) is not int or not 1 <= z <= k_users:
        raise ValueError(f"need K >= 1 and 1 <= z <= K, got K={k_users!r}, z={z!r} (ints only)")


def divisors(n: int) -> list[int]:
    out = [d for d in range(1, int(math.isqrt(n)) + 1) if n % d == 0]
    return sorted(set(out + [n // d for d in out]))


@dataclass(frozen=True)
class Curve:
    """Lower convex envelope of (memory, rate) corners, held at strictly increasing
    integers js = memory * scale; evaluation by interpolation."""

    scale: int
    js: tuple[int, ...]
    rates: tuple[Fraction, ...]

    @property
    def points(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(zip((Fraction(j, self.scale) for j in self.js), self.rates))

    def rate_at(self, memory) -> Fraction:
        x = Fraction(memory)
        return next(self._walk([(x.numerator * self.scale, x.denominator)]))

    def _walk(self, positions):
        """The rate at each p/q on the js axis, for (p, q) whose floors p // q do not
        decrease: one pass forward, and between two vertices one Fraction of integers."""
        js, rates, hi = self.js, self.rates, 0
        for p, q in positions:
            hi = bisect.bisect_right(js, p // q, hi)  # js[hi - 1] <= p/q < js[hi]
            if hi == 0 or p > q * self.scale:
                raise ValueError(f"memory {Fraction(p, q * self.scale)} outside curve domain "
                                 f"[{Fraction(js[0], self.scale)}, 1]")
            j0, r0 = js[hi - 1], rates[hi - 1]
            if hi == len(js) or p == j0 * q:
                yield r0
                continue
            j1, (n0, d0), (n1, d1) = js[hi], r0.as_integer_ratio(), rates[hi].as_integer_ratio()
            yield Fraction(n0 * d1 * (j1 * q - p) + n1 * d0 * (p - j0 * q),
                           d0 * d1 * (j1 - j0) * q)


def envelope(points) -> Curve:
    """Lower convex hull of (memory, rate) pairs; per memory the lowest rate is kept
    and collinear points are dropped."""
    pts = [(Fraction(mem), Fraction(rate)) for mem, rate in points]
    if not pts:
        raise ValueError("need at least one point")
    if not 0 <= min(mem for mem, _ in pts) <= max(mem for mem, _ in pts) <= 1:
        raise ValueError("memory fraction must lie in [0, 1]")
    if min(rate for _, rate in pts) < 0:
        raise ValueError("rate must be >= 0")
    scale = lcm(*(mem.denominator for mem, _ in pts))
    return _hull(scale, [(mem.numerator * (scale // mem.denominator), rate) for mem, rate in pts])


def _hull(scale: int, points) -> Curve:
    """:func:`envelope` of (j, rate) pairs at j = memory * scale, turns tested in integers."""
    hull: list[tuple[int, int, int, Fraction]] = []  # (j, numerator, denominator, rate)
    for j, rate in sorted(points):
        if hull and hull[-1][0] == j:  # a higher rate at the same memory
            continue
        n, d = rate.as_integer_ratio()
        while len(hull) >= 2:
            (j0, n0, d0, _), (j1, n1, d1, _) = hull[-2:]
            if (n1 * d0 - n0 * d1) * d * (j - j1) < (n * d1 - n1 * d) * d0 * (j1 - j0):
                break
            hull.pop()
        hull.append((j, n, d, rate))
    return Curve(scale, tuple(h[0] for h in hull), tuple(h[3] for h in hull))


def our_corners(k_users: int, z: int) -> dict:
    """j = K*t/b = m*t -> (rate, b**m) of our corners for K users, j ascending: every
    group shape m*b = K with b >= z, every integer t up to the first zero rate.  At one
    memory the lowest rate wins, and among equal rates the smallest b; that tie-break is
    a FOUND line of CHANGES.md (ROADMAP item 1): the smallest b**m should win."""
    _check_users(k_users, z)
    corners: dict[int, tuple[Fraction, int]] = {}
    for b in divisors(k_users):
        if b < z:
            continue
        m = k_users // b
        for t in itertools.count(1):
            rate = achievable_rate(b, m, z, t)
            if m * t not in corners or rate < corners[m * t][0]:
                corners[m * t] = (rate, b**m)
            if not rate:
                break
    return dict(sorted(corners.items()))


def our_envelope(k_users: int, z: int) -> Curve:
    return _curve("ours", k_users, z, our_corners(k_users, z))


def rival_corner(scheme: str, k_users: int, z: int, tparam: int):
    """(rate, subpacketization) of a rival scheme at its own corner M/N = tparam/K.

    The rate is exact, or None for SICPS and SPE, whose rates are external.  The
    subpacketization is an int or Fraction, or for SR1 the interval (K, K**2) it is known
    to lie in.  Raises ``ApplicabilityError`` where the scheme has no corner at tparam."""
    _check_users(k_users, z)
    return _rival_corner(scheme, k_users, z, tparam, [1])


def _rival_corner(scheme: str, k: int, z: int, t: int, walk: list[int]):
    """:func:`rival_corner` with walk[u - 1] = C(K - uz + u - 1, u - 1), extended up to u = t."""
    require_ints("t'", t)  # a plain ValueError, which rival_corners does not swallow
    if scheme in ("RK", "SICPS", "NT"):
        _require(1 <= t <= k // z, f"{scheme} needs 1 <= t' <= floor(K/z)")
        for u in range(len(walk) + 1, t + 1):  # C(n, r) -> C(n - z + 1, r + 1), exactly
            g = k - u * z  # n = g + u - 1 and r = u - 1 at t' = u
            walk.append(walk[-1] * math.prod(range(g + 1, g + z + 1))
                        // math.prod(range(g + u, g + u + z - 1), start=u - 1))
        if scheme == "NT":  # C(K - t'z + t', t') = C(K - t'z + t' - 1, t' - 1) (K - t'z + t')/t'
            return Fraction(k - t * z, t + 1), k * (walk[t - 1] * (k - t * z + t) // t)
        sub = _whole(Fraction(k, t) * walk[t - 1])
        return (Fraction((k - t * z) ** 2, k) if scheme == "RK" else None), sub
    if scheme == "SPE":
        _require(t == 2, "SPE is fixed at M/N = 2/K")
        _require(k > 2 * z - 2, "SPE needs K > 2z - 2")
        return None, _whole(Fraction(k * (k - 2 * z + 2), 4))
    if scheme == "SR1":
        _require(gcd(t, k) == 1, "SR1 needs gcd(t'', K) = 1")
        _require(1 <= t <= k, "SR1 needs 1 <= t'' <= K")
        return _sr1_sum(k, z, t), (k, k * k)
    if scheme == "SR2":
        _require(t >= 1 and k % t == 0, "SR2 needs t'' dividing K")
        rem = k - t * z + t  # > 0 and t | K make K - t''z = t''(K/t'' - z) >= 0
        _require(rem > 0 and k % rem == 0, "SR2 needs (K - t''z + t'') dividing K")
        return Fraction((k - t * z) * rem, 2 * k), k
    if scheme == "MR":
        _require(t == 1, "MR is fixed at M/N = 1/K")
        denom = 2 + z // (k - z + 1) + (z - 1) // (k - z + 1)
        return Fraction(_ceil_div(k * (k - z), denom), k), k
    raise ApplicabilityError(f"unknown scheme {scheme!r}")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ApplicabilityError(msg)


def _whole(val: Fraction):
    return int(val) if val.denominator == 1 else val


def _sr1_sum(k: int, z: int, tpp: int) -> Fraction:
    """SR1 rate: the sum of 2/(1 + ceil(t''z/r)) over g/2 < r <= g, g = K - t''z, with
    half weight at r = (g+1)/2; zero once memory covers all (g <= 0).  Each run of r
    that shares one ceiling v is added at once: O(sqrt(t''z)) runs."""
    tz, g = tpp * z, k - tpp * z
    total, r = Fraction(0), g // 2 + 1
    while r <= g:
        v = _ceil_div(tz, r)
        end = min(g, (tz - 1) // (v - 1)) if v > 1 else g  # the last r with this ceiling
        total += Fraction(2 * (end - r + 1) - (2 * r == g + 1), 1 + v)
        r = end + 1
    return total


def sr1_lower_bound(k_users: int, z: int, tparam: int) -> Fraction:
    """Closed-form lower bound on the SR1 rate, valid for K - t''z > 1.

    Bounding each of the (K - t''z)/2 sum terms below by the first one gives
    (K - t''z)(K - t''z + 2) / (2(K + 2)).
    """
    g = k_users - tparam * z
    return Fraction(g * (g + 2), 2 * (k_users + 2))


def rival_corners(scheme: str, k_users: int, z: int, tparams=None) -> dict:
    """j = t'' (memory t''/K) -> ``rival_corner`` at each t'' of ``tparams`` (default
    1..floor(K/z)) where it applies; RK, SICPS and NT share one walk of their binomials."""
    _check_users(k_users, z)
    if scheme not in SCHEME_ORDER[1:]:  # or each t'' would swallow rival_corner's refusal
        raise ApplicabilityError(f"unknown scheme {scheme!r}")
    if tparams is None:
        tparams = range(1, k_users // z + 1)
    corners, walk = {}, [1]
    for t in tparams:
        try:
            corners[t] = _rival_corner(scheme, k_users, z, t, walk)
        except ApplicabilityError:
            pass
    return corners


def _curve(scheme: str, k: int, z: int, corners: dict) -> Curve | None:
    """The envelope of one scheme's corner map keyed by j = K*M/N, from (0, K): ours adds
    all its corners, a rival its corners at j <= floor(K/z) and rate 0 at ceil(K/z), where
    full local coverage leaves nothing to send.  SICPS and SPE rates are external: None."""
    if scheme not in ("ours", *RATE_SCHEMES):
        return None
    pts = [(0, Fraction(k))] + [(j, rate) for j, (rate, _) in corners.items()]
    if scheme != "ours":
        pts = [p for p in pts if p[0] <= k // z]
        pts.append((_ceil_div(k, z), Fraction(0)))
    return _hull(k, pts)


def rival_envelope(scheme: str, k_users: int, z: int) -> Curve:
    if scheme not in RATE_SCHEMES:
        raise ApplicabilityError(f"no rate corners for scheme {scheme!r}")
    return _curve(scheme, k_users, z, rival_corners(scheme, k_users, z))


def check_rk_rate(k_users: int, z: int, m: int, b: int, t: int) -> bool | None:
    """The RK rate claim at M/N = t/b = t'/K, t' = mt: ours is strictly lower below floor(b/z)/b,
    floor(K/z)/K and (K - b)/(Kz).  None unless K = mb, b >= z >= 1, 1 <= t' <= floor(K/z)."""
    require_ints("K, z, m, b and t", k := k_users, z, m, b, t)
    if not (k == m * b and b >= z >= 1 and t >= 1 and 1 <= m * t <= k // z):
        return None
    return Fraction(t, b) < min(Fraction(b // z, b), Fraction(k // z, k), Fraction(k - b, k * z))


def check_subpacketization(k_users: int, z: int, m: int, b: int) -> bool | None:
    """The subpacketization claim at M/N = 1/b: b**m lies below RK's (so SICPS's) and NT's
    once (b - 1)**2 >= K(z - 1).  None unless K = mb, b > z >= 1 and 2 <= m <= floor(K/z):
    with a single group both sides equal K."""
    require_ints("K, z, m and b", k_users, z, m, b)
    applicable = k_users == m * b and b > z >= 1 and 2 <= m <= k_users // z
    return (b - 1) ** 2 >= k_users * (z - 1) if applicable else None


def check_sr1_rate(k_users: int, z: int, tpp: int) -> bool | None:
    """The SR1 rate claim at M/N = t''/K: sharing memory between two of our t = 1 corners
    (m/K, K/m - z), K/m >= z, reaches at most SR1's closed-form lower bound; K/m - z is convex,
    so the best pair straddles t'': read it off their envelope.  None where gcd(t'', K) != 1,
    t''z = K - 1, t''z is outside 1..K, or no two group counts straddle t''."""
    require_ints("K, z and t''", k := k_users, z, tpp)
    ms = [m for m in divisors(k) if k // m >= z] if 1 <= tpp * z <= k else []
    if gcd(tpp, k) != 1 or tpp * z == k - 1 or len(ms) < 2 or tpp > ms[-1]:
        return None
    shared = _hull(k, [(m, Fraction(k // m - z)) for m in ms]).rate_at(Fraction(tpp, k))
    return shared <= sr1_lower_bound(k, z, tpp)


def check_sr2_rate(k_users: int, z: int, m: int, b: int, t: int) -> bool | None:
    """The SR2 rate claim at matching corners M/N = t/b = t''/K, t'' = mt: ours is at most
    SR2's rate once M/N <= (m - 2)/(m(z - 1)).  None unless K = mb >= 1, z >= 2, 1 <= t <=
    floor(b/z), and both t and b - tz + t divide b."""
    require_ints("K, z, m, b and t", k_users, z, m, b, t)
    applicable = (k_users == m * b >= 1 and z >= 2 and 1 <= t <= b // z and b % t == 0
                  and b % (b - t * z + t) == 0)
    return Fraction(t, b) <= Fraction(m - 2, m * (z - 1)) if applicable else None


def check_mr_rate(k_users: int, z: int, m: int, b: int) -> bool | None:
    """The MR rate claim at M/N = 1/b: with three or more groups ours lies strictly below
    MR's memory-shared curve, with no threshold.  None unless K = mb, b > z >= 1 and m >= 3:
    at m = 2 the rates can coincide (K = 100, z = 5: both 45), and at b = z both are 0."""
    require_ints("K, z, m and b", k_users, z, m, b)
    return True if k_users == m * b and b > z >= 1 and m >= 3 else None


@dataclass(frozen=True)
class TableRow:
    memory: Fraction
    scheme: str
    rate: Fraction | None
    kind: str  # corner | interpolated | external
    subpacketization: object | None  # int | Fraction | (lo, hi) interval
    log10_subpacketization: float | None  # None for None or an interval

    def to_json_dict(self) -> dict:
        """The row for :func:`json_default`; an SR1 interval goes in its own key."""
        s = self.subpacketization
        doc = {"mn": self.memory, "scheme": self.scheme, "kind": self.kind, "rate": self.rate,
               "subpacketization": s, "log10_subpacketization": self.log10_subpacketization}
        if isinstance(s, tuple):
            doc["subpacketization"], doc["subpacketization_interval"] = None, s
        return doc


def log10_of(x) -> float:
    """log10 of a positive int/Fraction of any size, each integer read as its first 15
    decimal digits, found by integer division, and a power of ten: the float as ever."""
    num, den = (x.numerator, x.denominator) if isinstance(x, Fraction) else (int(x), 1)
    if num <= 0:
        raise ValueError("log10 needs a positive value")
    logs = []
    for n in (num, den):
        shift = max(0, (n.bit_length() - 1) * 3 // 10 - 14)  # 0.3 < log10(2): never too many
        head = n // 10**shift
        while head >= 10**15:  # down to the first 15 digits
            head, shift = head // 10, shift + 1
        logs.append(math.log10(head) + shift)
    return logs[0] - logs[1]


def comparison_table(k_users: int, z: int, grid) -> list[TableRow]:
    """One row per (memory, scheme) in grid order: envelope rate, corner subpacketization.

    Each scheme's corner map is computed once, keyed by j = K*M/N; a rival's covers
    t = 1..floor(K/z) and each whole j of the grid.  Each envelope is read in one walk
    over the grid, sorted once.  A row takes its subpacketization from the map, and is
    a "corner" when the envelope meets that corner's rate."""
    _check_users(k_users, z)
    k = k_users
    grid = [Fraction(mem) for mem in grid]
    axis = [(mem.numerator * k, mem.denominator) for mem in grid]  # M/N at j = p/q
    lattice = [p // q if p % q == 0 else None for p, q in axis]
    tparams = sorted(set(range(1, k // z + 1)) | {j for j in lattice if j is not None})
    corners = {"ours": our_corners(k, z)} | {
        scheme: rival_corners(scheme, k, z, tparams) for scheme in SCHEME_ORDER[1:]}
    order = sorted(range(len(grid)), key=lambda i: axis[i][0] // axis[i][1])
    walks = {scheme: curve._walk(axis[i] for i in order) for scheme in SCHEME_ORDER
             if (curve := _curve(scheme, k, z, corners[scheme])) is not None}

    rows: list[list[TableRow]] = [[] for _ in grid]
    for i in order:
        for scheme in SCHEME_ORDER:
            corner_rate, sub = corners[scheme].get(lattice[i], (None, None))
            rate = next(walks[scheme]) if scheme in walks else None
            kind = ("external" if rate is None
                    else "corner" if corner_rate == rate else "interpolated")
            log_s = None if sub is None or isinstance(sub, tuple) else log10_of(sub)
            rows[i].append(TableRow(memory=grid[i], scheme=scheme, rate=rate, kind=kind,
                                    subpacketization=sub, log10_subpacketization=log_s))
    return [row for block in rows for row in block]


CSV_HEADER = "mn_num,mn_den,scheme,rate,log10_subpacketization"


def rows_to_csv(rows) -> list[str]:
    """The CSV as chunks: the header line, then one line per row."""
    lines = [CSV_HEADER + "\n"]
    for r in rows:
        rate = "" if r.rate is None else f"{float(r.rate):.6f}"
        log_s = "" if (s := r.log10_subpacketization) is None else f"{s:.6f}"
        lines.append(f"{r.memory.numerator},{r.memory.denominator},{r.scheme},{rate},{log_s}\n")
    return lines


def json_default(obj):
    """``json.dumps`` hook: a Fraction as {"num", "den"}, a dataclass as its
    top-level fields (nested values must be JSON-ready or handled here)."""
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


_ROW_ENCODER = json.JSONEncoder(sort_keys=True, default=json_default)


def rows_to_json(rows) -> list[str]:
    """The rows' JSON array as chunks: "[", runs of 32 rows, one encoder call each, "]"."""
    chunks, rows = ["["], iter(rows)
    while part := [r.to_json_dict() for r in itertools.islice(rows, 32)]:
        chunks.append((", " if len(chunks) > 1 else "") + _ROW_ENCODER.encode(part)[1:-1])
    return chunks + ["]"]
