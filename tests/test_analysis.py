import math
import sys
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from analysis_oracles import fraction_hull, oracle_table, rate_on, sr1_best_pair
from macc import (
    ApplicabilityError,
    achievable_rate,
    comparison_table,
    envelope,
    our_corners,
    our_envelope,
    rival_corner,
    rival_corners,
    rival_envelope,
)
from macc import analysis
from macc.analysis import (
    check_mr_rate,
    check_rk_rate,
    check_sr1_rate,
    check_sr2_rate,
    check_subpacketization,
    log10_of,
    rows_to_csv,
    sr1_lower_bound,
)

F = Fraction


def _corner_rates(k, z):
    return {(F(j, k), rate) for j, (rate, _) in our_corners(k, z).items()}


def test_corner_points_k100():
    pts = _corner_rates(100, 5)
    # the trivial (0, K) is no corner of the map, but every envelope starts there
    assert our_envelope(100, 5).points[0] == (F(0), F(100))
    for expected in [(F(1, 50), F(45)), (F(1, 25), F(20)),
                     (F(1, 20), F(15)), (F(1, 10), F(5)), (F(1, 5), F(0))]:
        assert expected in pts


def test_corner_points_k8():
    assert (F(1, 4), F(2)) in _corner_rates(8, 2)


def test_corner_point_full_access():
    assert (F(1, 6), F(0)) in _corner_rates(6, 6)


@pytest.mark.xfail(strict=True, reason="ties at one memory go to the smallest b, not the "
                   "smallest b**m: the tie-break FOUND line in CHANGES.md, ROADMAP item 1")
def test_our_corners_break_rate_ties_by_subpacketization():
    # m = 1, b = 12, t = 6 reaches rate 0 at M/N = 1/2 (j = 6) with 12 subfiles; m = 6,
    # b = 2 needs 64
    assert our_corners(12, 2)[6] == (0, 12)


def test_impossible_user_counts_are_plain_value_errors():
    # K < 1, z < 1 or z > K: no per-corner ApplicabilityError, no ZeroDivisionError, no rows
    calls = [lambda: comparison_table(10, 0, [F(1, 2)]), lambda: comparison_table(0, 1, [F(1, 2)]),
             lambda: comparison_table(3, 4, []), lambda: rival_corners("RK", 10, 0),
             lambda: rival_envelope("RK", 10, 0), lambda: rival_corner("MR", 3, 4, 1),
             lambda: rival_corner("SR1", 10, 0, 3), lambda: our_envelope(0, 1),
             lambda: our_corners(3, 4), lambda: our_corners(10, 0)]
    for call in calls:
        with pytest.raises(ValueError, match=r"^need K >= 1 and 1 <= z <= K, got K=") as info:
            call()
        assert type(info.value) is ValueError
    assert rival_corner("MR", 4, 4, 1) == (0, 4) and our_corners(4, 4) == {1: (0, 4)}


def test_envelope_vertices_k100():
    curve = our_envelope(100, 5)
    assert list(curve.points) == [
        (F(0), F(100)),
        (F(1, 50), F(45)),
        (F(1, 25), F(20)),
        (F(1, 20), F(15)),
        (F(1, 10), F(5)),
        (F(1, 5), F(0)),
    ]


def test_envelope_table_values():
    curve = our_envelope(100, 5)
    grid = [F("0.16"), F("0.17"), F("0.18"), F("0.19"), F("0.2")]
    assert [curve.rate_at(x) for x in grid] == [F(2), F(3, 2), F(1), F(1, 2), F(0)]
    # a corner evaluates to its own rate
    assert curve.rate_at(F(1, 20)) == 15


def test_envelope_drops_dominated_and_collinear():
    with pytest.raises(ValueError, match="^need at least one point$"):
        envelope([])
    pts = [
        (F(0), F(10)),
        (F(1, 4), F(4)),
        (F(1, 4), F(6)),      # duplicate memory, higher rate
        (F(1, 8), F(7)),      # collinear between (0,10) and (1/4,4)
        (F(3, 8), F(5)),      # above the hull
        (F(3, 8), F(2)),
        (F(1, 2), F(3, 2)),
    ]
    curve = envelope(pts)
    assert list(curve.points) == [
        (F(0), F(10)),
        (F(1, 4), F(4)),
        (F(3, 8), F(2)),
        (F(1, 2), F(3, 2)),
    ]


@pytest.mark.parametrize("point, message", [((F(2), F(0)), "memory fraction must lie in"),
                                            ((F(1, 2), F(-1)), "rate must be >= 0")])
def test_envelope_refuses_points_off_the_plane(point, message):
    with pytest.raises(ValueError, match=message):
        envelope([(F(0), F(1)), point])


def test_curves_refuse_memory_outside_their_domain():
    # the envelopes hold memory in [0, 1]; past 1 a curve would read its last rate
    ours, curve = our_envelope(10, 2), envelope([(F(1, 4), F(3)), (F(1, 2), F(1))])
    calls = {"-1": lambda: ours.rate_at(F(-1)), "3": lambda: ours.rate_at(F(3)),
             "11/10": lambda: ours.rate_at(F(11, 10)),
             "2": lambda: comparison_table(10, 2, [F(2)]),
             "-1/2": lambda: comparison_table(10, 2, [F(1, 2), F(-1, 2)]),
             "101/100": lambda: comparison_table(10, 2, [F(1, 2), F(101, 100), F(1, 3)])}
    for memory, call in calls.items():
        with pytest.raises(ValueError, match=rf"^memory {memory} outside curve domain \[0, 1\]$"):
            call()
    with pytest.raises(ValueError, match=r"^memory 1/8 outside curve domain \[1/4, 1\]$"):
        curve.rate_at(F(1, 8))
    with pytest.raises(ValueError, match=r"^memory 5/4 outside curve domain \[1/4, 1\]$"):
        curve.rate_at(F(5, 4))
    assert ours.rate_at(F(1)) == 0 and curve.rate_at(F(1)) == 1  # 1 is inside; 1/2's rate holds
    assert [r.rate for r in comparison_table(10, 2, [F(1)])][:2] == [0, 0]


def corner_rate(scheme, k, z, t):
    return rival_corner(scheme, k, z, t)[0]


def corner_sub(scheme, k, z, t):
    return rival_corner(scheme, k, z, t)[1]


def test_rival_rate_rk():
    assert corner_rate("RK", 100, 5, 16) == 4
    assert corner_rate("RK", 100, 5, 17) == F(9, 4)
    assert corner_rate("RK", 100, 5, 20) == 0
    with pytest.raises(ApplicabilityError):
        rival_corner("RK", 100, 5, 21)


def test_rival_rate_nt():
    assert corner_rate("NT", 100, 5, 10) == F(50, 11)
    with pytest.raises(ApplicabilityError):
        rival_corner("NT", 100, 5, 0)


def test_rival_rate_sr1():
    assert corner_rate("SR1", 100, 5, 7) == 32
    assert corner_rate("SR1", 100, 5, 1) == F(95, 2)
    with pytest.raises(ApplicabilityError):
        rival_corner("SR1", 100, 5, 16)  # gcd(16,100) != 1
    with pytest.raises(ApplicabilityError, match="1 <= t''"):
        rival_corner("SR1", 1, 1, 0)  # gcd(0, 1) = 1, but M/N = 0 is no corner


def test_sr1_lower_bound_holds():
    for tpp in [1, 3, 7, 9, 11, 13, 17, 19]:
        g = 100 - tpp * 5
        if g > 1:
            assert corner_rate("SR1", 100, 5, tpp) >= sr1_lower_bound(100, 5, tpp)


def _sr1_sum_term_by_term(k, z, tpp):
    """SR1's rate one term at a time, forked on the parity of g = K - t''z: the oracle
    of the grouped ``_sr1_sum``."""
    g = k - tpp * z
    if g <= 0:
        return F(0)
    if g % 2 == 0:
        return sum((F(2, 1 + -(-tpp * z // r)) for r in range((g + 2) // 2, g + 1)), F(0))
    head = F(1, 1 + -(-2 * tpp * z // (g + 1)))
    return head + sum((F(2, 1 + -(-tpp * z // r)) for r in range((g + 3) // 2, g + 1)), F(0))


def test_sr1_sum_matches_the_term_by_term_sum():
    # every coprime t'' (g <= 0 and both parities of g), every t'' up to K/z, and long sums
    cases = [(k, z, t) for k in range(1, 61) for z in range(1, k + 1)
             for t in range(1, k + 1) if gcd(t, k) == 1]
    cases += [(k, z, t) for k in range(1, 121) for z in range(1, k + 1)
              for t in range(1, k // z + 1)]
    cases += [(k, z, t) for k in (840, 3000) for z in (1, 5)
              for t in (1, 2, 3, 7, 11, 13, 97, 101, k // (3 * z), k // (2 * z), k // z - 1, k // z)]
    for k, z, t in cases:
        assert analysis._sr1_sum(k, z, t) == _sr1_sum_term_by_term(k, z, t), (k, z, t)


def test_rival_rate_sr2():
    assert corner_rate("SR2", 120, 5, 15) == F(45, 4)
    with pytest.raises(ApplicabilityError) as err:
        rival_corner("SR2", 100, 5, 16)
    assert "dividing" in str(err.value)


def test_rival_rate_mr():
    assert corner_rate("MR", 100, 5, 1) == F(95, 2)
    with pytest.raises(ApplicabilityError):
        rival_corner("MR", 100, 5, 2)


def test_rival_rate_unknown_scheme():
    assert corner_rate("SPE", 100, 5, 2) is None
    assert corner_rate("SICPS", 100, 5, 1) is None
    for scheme in ("ours", "XX"):
        with pytest.raises(ApplicabilityError, match=f"unknown scheme '{scheme}'"):
            rival_corner(scheme, 100, 5, 10)
        # refused once for the whole map, not swallowed at each t'' into an empty one
        with pytest.raises(ApplicabilityError, match=f"unknown scheme '{scheme}'"):
            rival_corners(scheme, 100, 5)


def test_rival_binomial_walk_matches_comb():
    # every t' of every (K, z) with K <= 120, then t' in {1, 2, floor(K/z)/2, floor(K/z)} at
    # the cost model's edges, whose binomials have thousands of bits
    shapes = [(k, z, range(1, k // z + 1)) for k in range(1, 121) for z in range(1, k + 1)]
    shapes += [(k, z, (1, 2, k // z // 2, k // z)) for k, z in ((5449, 1), (6975, 2), (17728, 8))]
    for k, z, tparams in shapes:
        walk = [1]
        for t in tparams:
            analysis._rival_corner("RK", k, z, t, walk)
            assert walk[t - 1] == comb(k - t * z + t - 1, t - 1), (k, z, t)
    # a map over t'' in any order reads the walk it shares as a lone corner reads its own
    for scheme in ("RK", "NT", "SICPS"):
        tparams = [9, 1, 33, 4, 32, 4]  # 33 > floor(97/3) has no corner
        assert rival_corners(scheme, 97, 3, tparams) == {
            t: rival_corner(scheme, 97, 3, t) for t in tparams if t <= 97 // 3}


def test_rival_subpacketization():
    assert corner_sub("SR2", 100, 5, 20) == 100
    assert corner_sub("MR", 100, 5, 1) == 100
    assert corner_sub("SPE", 100, 5, 2) == 2300
    assert corner_sub("RK", 100, 5, 1) == 100
    assert corner_sub("SICPS", 100, 5, 1) == 100
    nt = corner_sub("NT", 100, 5, 10)
    assert nt == 100 * comb(60, 10)
    assert abs(log10_of(nt) - 12.8) < 0.1
    assert corner_sub("SR1", 100, 5, 7) == (100, 10000)
    assert corner_sub("SPE", 5, 3, 2) == F(5, 4)
    for k, z in [(4, 3), (2, 2), (6, 4), (12, 7)]:  # K <= 2z - 2: K(K - 2z + 2)/4 <= 0
        with pytest.raises(ApplicabilityError):
            rival_corner("SPE", k, z, 2)


# The paper's applicability condition of each rival's corner t/K, 1 <= t <= floor(K/z).
RIVAL_CORNER_CONDITIONS = {
    "RK": lambda k, z, t: True,
    "NT": lambda k, z, t: True,
    "SR1": lambda k, z, t: gcd(t, k) == 1,
    "SR2": lambda k, z, t: k % t == 0 and k % (k - t * z + t) == 0,
    "MR": lambda k, z, t: t == 1,
}


def test_rival_corner_points_match_the_papers_conditions():
    for k in range(1, 41):
        for z in range(1, k + 1):
            for scheme, applies in RIVAL_CORNER_CONDITIONS.items():
                corners = rival_corners(scheme, k, z)
                curve = rival_envelope(scheme, k, z)
                assert curve.points[0] == (0, k)
                assert curve.points[-1] == (F(-(-k // z), k), 0)
                want = [t for t in range(1, k // z + 1) if applies(k, z, t)]
                assert list(corners) == want, (scheme, k, z)
                assert [rate for rate, _ in corners.values()] == [
                    corner_rate(scheme, k, z, t) for t in want]
                for j, (rate, _) in corners.items():
                    assert curve.rate_at(F(j, k)) <= rate, (scheme, k, z, j)
    for scheme in ("SPE", "SICPS", "XX"):
        with pytest.raises(ApplicabilityError, match="no rate corners"):
            rival_envelope(scheme, 12, 2)


def _brute_our_corners(k, z):
    """(rate, b**m) of our lowest-rate corner at each memory t/b: every m, b with
    m*b = K and b >= z, t from 1 to the first zero rate; ties go to the smallest b."""
    best = {}
    for b in range(z, k + 1):
        for m in range(1, k + 1):
            if m * b != k:
                continue
            for t in range(1, b + 1):
                rate = achievable_rate(b, m, z, t)
                if F(t, b) not in best or rate < best[F(t, b)][0]:
                    best[F(t, b)] = (rate, b**m)
                if rate == 0:
                    break
    return best


def test_comparison_table_our_rows_match_brute_force():
    for k in range(1, 41):
        for z in range(1, k + 1):
            corners = _brute_our_corners(k, z)
            grid = sorted(set(corners) | {F(0), F(1, 2 * k), F(1)})
            for row in comparison_table(k, z, grid):
                if row.scheme != "ours":
                    continue
                rate, sub = corners.get(row.memory, (None, None))
                assert row.subpacketization == sub, (k, z, row)
                assert row.kind == ("corner" if rate == row.rate else "interpolated"), (k, z, row)


def _paper_rival_corner(scheme, k, z, t):
    """(rate or None, subpacketization) of a rival at t/K by the paper's formulas,
    or None where the rival has no corner there."""
    g = k - t * z
    if scheme == "SPE":
        return (None, F(k * (k - 2 * z + 2), 4)) if t == 2 and k > 2 * z - 2 else None
    if scheme == "SR1":
        if not (1 <= t <= k and gcd(t, k) == 1):
            return None
        terms = [F(2, 1 + -(-t * z // r)) for r in range(g // 2 + 1, g + 1)]
        if terms and g % 2:  # the middle term r = (g + 1)/2 counts half
            terms[0] /= 2
        return sum(terms, F(0)), (k, k * k)
    applies = RIVAL_CORNER_CONDITIONS["RK" if scheme == "SICPS" else scheme]
    if not (1 <= t <= k // z and applies(k, z, t)):
        return None
    return {
        "RK": lambda: (F(g * g, k), F(k, t) * comb(g + t - 1, t - 1)),
        "SICPS": lambda: (None, F(k, t) * comb(g + t - 1, t - 1)),
        "NT": lambda: (F(g, t + 1), k * comb(g + t, t)),
        "SR2": lambda: (F(g * (g + t), 2 * k), k),
        "MR": lambda: (F(-(-k * g // (2 + z // (g + 1) + (z - 1) // (g + 1))), k), k),
    }[scheme]()


def test_comparison_table_rival_rows_match_the_papers_formulas():
    for k in range(1, 41):
        for z in range(1, k + 1):
            grid = [F(t, k) for t in range(k + 1)] + [F(1, 2 * k), F(1, 7), F(2, 9), F(1, 2)]
            for row in comparison_table(k, z, grid):
                if row.scheme == "ours":
                    continue
                t = row.memory * k
                corner = _paper_rival_corner(row.scheme, k, z, int(t)) if t.denominator == 1 else None
                rate, sub = corner or (None, None)
                assert row.subpacketization == sub, (k, z, row)
                if row.scheme in ("SICPS", "SPE"):
                    assert (row.rate, row.kind) == (None, "external"), (k, z, row)
                else:
                    assert row.kind == ("corner" if rate == row.rate else "interpolated"), (k, z, row)


def test_comparison_table_sums_each_sr1_corner_once(monkeypatch):
    calls = []
    sr1_sum = analysis._sr1_sum
    monkeypatch.setattr(analysis, "_sr1_sum", lambda k, z, t: calls.append(t) or sr1_sum(k, z, t))
    shapes = ((100, 5, [F(t, 100) for t in range(21)]), (30, 4, [F(t, 30) for t in range(31)]),
              (36, 5, [F(1, 2), F(5, 36), F(7, 36), F(1, 7)]))
    for k, z, grid in shapes:
        calls.clear()
        comparison_table(k, z, grid)
        grid_t = {int(x * k) for x in grid if (x * k).denominator == 1}
        want = [t for t in range(1, k + 1) if gcd(t, k) == 1 and (t <= k // z or t in grid_t)]
        assert sorted(calls) == want, (k, z)


def test_comparison_table_computes_each_corner_map_once(monkeypatch):
    calls = []
    ours, rivals = analysis.our_corners, analysis.rival_corners
    monkeypatch.setattr(analysis, "our_corners",
                        lambda k, z: calls.append("ours") or ours(k, z))
    monkeypatch.setattr(analysis, "rival_corners",
                        lambda scheme, *args: calls.append(scheme) or rivals(scheme, *args))
    comparison_table(30, 4, [F(t, 30) for t in range(31)] + [F(1, 7)])
    assert sorted(calls) == sorted(analysis.SCHEME_ORDER)


def test_rk_subpacketization_fraction_when_tp_misses_k():
    val = corner_sub("RK", 100, 5, 7)
    assert val == F(100, 7) * comb(100 - 35 + 6, 6)


def test_check_rk_rate():
    assert check_rk_rate(100, 5, 2, 50, 1) is True
    # t' = mt = 21 lies past floor(K/z) = 20, so the claim does not apply
    assert check_rk_rate(100, 5, 1, 100, 21) is None
    assert achievable_rate(50, 2, 5, 1) == 45 < rival_corner("RK", 100, 5, 2)[0] == 81


def test_check_subpacketization():
    assert check_subpacketization(100, 5, 4, 25) is True
    assert our_corners(100, 5)[4] == (20, 25**4)
    assert 25**4 < rival_corner("RK", 100, 5, 4)[1]
    assert 25**4 < rival_corner("NT", 100, 5, 4)[1]


def test_check_sr1_rate_published_pair():
    # the paper's pair (m1, m2) = (4, 10): the chord between our t = 1 corners at M/N = 1/25
    # and 1/10, read at 7/100, lies under SR1's closed-form bound and SR1's own rate
    assert check_sr1_rate(100, 5, 7) is True
    r4, r10 = achievable_rate(25, 4, 5, 1), achievable_rate(10, 10, 5, 1)
    shared = r4 + F(7 - 4, 10 - 4) * (r10 - r4)
    assert shared == F(25, 2) <= sr1_lower_bound(100, 5, 7)
    assert rival_corner("SR1", 100, 5, 7)[0] == 32


def test_check_sr1_rate_best_pair_search():
    # the best chord is the (m1=5, m2=10) one, below the published pair's 12.5
    assert check_sr1_rate(100, 5, 7) is True
    assert sr1_best_pair(100, 5, 7) == (11, 5, 10)
    r5, r10 = achievable_rate(20, 5, 5, 1), achievable_rate(10, 10, 5, 1)
    assert r5 + F(7 - 5, 10 - 5) * (r10 - r5) == 11 <= rival_corner("SR1", 100, 5, 7)[0]


def test_check_sr1_not_applicable_on_gcd():
    assert check_sr1_rate(100, 5, 16) is None
    with pytest.raises(ApplicabilityError, match="gcd"):
        rival_corner("SR1", 100, 5, 16)


def test_check_sr1_rate_matches_pair_search():
    # the predicate reads the chord between the group counts on either side of t'' off
    # an envelope; the oracle tries every pair of group counts
    applicable = 0
    for k in range(1, 121):
        for z in range(1, k + 1):
            for tpp in range(0, k // z + 2):
                best, verdict = sr1_best_pair(k, z, tpp), check_sr1_rate(k, z, tpp)
                want = None if best is None else best[0] <= sr1_lower_bound(k, z, tpp)
                assert verdict is want, (k, z, tpp, best, verdict)
                applicable += best is not None
    assert applicable == 10045


def test_check_sr2_rate_published_example():
    assert check_sr2_rate(120, 5, 5, 24, 3) is True
    assert achievable_rate(24, 5, 5, 3) == 9
    assert rival_corner("SR2", 120, 5, 15)[0] == F(45, 4)


def test_check_mr_rate():
    # at m = 2 the claim does not apply: there the two rates coincide
    assert check_mr_rate(100, 5, 2, 50) is None
    mr = rival_envelope("MR", 100, 5)
    assert achievable_rate(50, 2, 5, 1) == mr.rate_at(F(1, 50)) == 45
    assert check_mr_rate(100, 5, 4, 25) is True
    assert achievable_rate(25, 4, 5, 1) == 20 < mr.rate_at(F(1, 25)) == 40


def test_sr2_envelope_is_straight_line_for_k100():
    # no interior corner applies, so the curve joins (0,100) and (1/5,0)
    curve = rival_envelope("SR2", 100, 5)
    assert curve.points == ((F(0), F(100)), (F(1, 5), F(0)))


def test_comparison_table_values():
    grid = [F("0.16"), F("0.17"), F("0.18"), F("0.19"), F("0.2")]
    rows = comparison_table(100, 5, grid)
    ours = {r.memory: r.rate for r in rows if r.scheme == "ours"}
    rk = {r.memory: r.rate for r in rows if r.scheme == "RK"}
    sr1 = {r.memory: r.rate for r in rows if r.scheme == "SR1"}
    assert [ours[x] for x in grid] == [F(2), F(3, 2), F(1), F(1, 2), F(0)]
    assert [rk[x] for x in grid] == [F(4), F(9, 4), F(1), F(1, 4), F(0)]
    published = [3.4965, 1.6953, 0.9528, 0.2103, 0.0]
    for x, want in zip(grid, published):
        assert abs(float(sr1[x]) - want) < 1e-3


def test_comparison_table_subpacketization_column():
    rows = comparison_table(100, 5, [F(1, 10)])
    by_scheme = {r.scheme: r for r in rows}
    assert by_scheme["ours"].subpacketization == 10**10
    assert by_scheme["ours"].kind == "corner"
    assert by_scheme["NT"].subpacketization == 100 * comb(60, 10)
    assert by_scheme["SPE"].rate is None and by_scheme["SPE"].kind == "external"
    assert by_scheme["SR2"].subpacketization is None  # t''=10: 60 does not divide 100


def test_comparison_table_zero_memory():
    rows = comparison_table(100, 5, [F(0)])
    for r in rows:
        if r.scheme not in ("SPE", "SICPS"):
            assert r.rate == 100


def test_comparison_table_empty_grid_and_csv():
    rows = comparison_table(100, 5, [])
    assert rows == []
    assert rows_to_csv(rows) == ["mn_num,mn_den,scheme,rate,log10_subpacketization\n"]


def test_csv_shape():
    rows = comparison_table(8, 2, [F(1, 4)])
    lines = [line.removesuffix("\n") for line in rows_to_csv(rows)]
    assert lines[0] == "mn_num,mn_den,scheme,rate,log10_subpacketization"
    assert len(lines) == 1 + 8
    ours = next(l for l in lines if ",ours," in l)
    assert ours.startswith("1,4,ours,2.000000,")


def _str_log10(x) -> float:
    """The former log10 of a positive int or Fraction: per integer, its first 15 digits
    and its length in decimal."""
    def log10_int(n):
        digits = str(n)
        return math.log10(n) if len(digits) <= 15 else (math.log10(int(digits[:15]))
                                                        + (len(digits) - 15))
    x = F(x)
    return log10_int(x.numerator) - log10_int(x.denominator)


def test_log10_of_big_values():
    assert abs(log10_of(10**400) - 400.0) < 1e-9
    assert abs(log10_of(F(10**50, 10**20)) - 30.0) < 1e-9
    # the float the str-based form gave, which the JSON prints whole and the CSV as %.6f,
    # at 10^k - 1, 10^k and 10^k + 1 for k <= 5000 and at every subpacketization of a
    # K = 840 table
    values = [10**k + d for k in range(5001) for d in (-1, 0, 1) if 10**k + d > 0]
    table = comparison_table(840, 5, [F(t, 840) for t in range(841)])
    values += [row.subpacketization for row in table if isinstance(row.subpacketization, (int, F))]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the oracle prints integers of up to 5001 digits
    try:
        assert [log10_of(x) for x in values] == [_str_log10(x) for x in values]
    finally:
        sys.set_int_max_str_digits(limit)
    with pytest.raises(ValueError, match="log10 needs a positive value"):
        log10_of(0)


def test_log10_of_runs_once_per_table_row(monkeypatch):
    calls = []
    monkeypatch.setattr(analysis, "log10_of", lambda x: calls.append(x) or log10_of(x))
    rows = comparison_table(60, 2, [F(j, 120) for j in range(121)])
    analysis.rows_to_csv(rows), analysis.rows_to_json(rows)
    assert calls == [row.subpacketization for row in rows
                     if isinstance(row.subpacketization, (int, F))]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_comparison_table_walk_matches_the_per_point_oracle(data):
    # a grid unsorted, with repeats, on and off the t/K lattice and holding 0 and 1:
    # every row equals the one from a Fraction-memory hull bisected per grid entry
    k = data.draw(st.integers(1, 60))
    z = data.draw(st.integers(1, k))
    entries = data.draw(st.lists(st.one_of(st.integers(0, k).map(lambda j: F(j, k)),
                                            st.fractions(0, 1, max_denominator=4 * k)),
                                  max_size=12))
    grid = data.draw(st.permutations(entries + entries[:3] + [F(0), F(1)]))
    rows = [(r.memory, r.scheme, r.rate, r.kind, r.subpacketization)
            for r in comparison_table(k, z, grid)]
    assert rows == oracle_table(k, z, grid)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_envelope_matches_the_per_point_oracle(data):
    raw = data.draw(st.lists(st.tuples(st.fractions(0, 1, max_denominator=30),
                                       st.fractions(0, 100, max_denominator=30)),
                             min_size=1, max_size=12))
    memories = data.draw(st.lists(st.fractions(0, 1, max_denominator=60), max_size=12))
    curve, hull = envelope(raw), fraction_hull(raw)
    assert curve.points == hull
    for mem in memories:
        if mem >= hull[0][0]:
            assert curve.rate_at(mem) == rate_on(hull, mem), mem


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_envelope_properties(data):
    n = data.draw(st.integers(1, 12))
    raw = data.draw(
        st.lists(
            st.tuples(st.fractions(0, 1), st.fractions(0, 100)),
            min_size=n,
            max_size=n,
        )
    )
    curve = envelope(raw)
    xs = [mem for mem, _ in curve.points]
    assert xs == sorted(set(xs))
    # convex: slopes non-decreasing; every input point sits on or above the curve
    slopes = [(r1 - r0) / (m1 - m0) for (m0, r0), (m1, r1) in zip(curve.points, curve.points[1:])]
    assert all(s1 < s2 for s1, s2 in zip(slopes, slopes[1:]))
    for mem, rate in raw:
        if mem <= curve.points[-1][0]:
            assert curve.rate_at(mem) <= rate


def test_three_way_rate_agreement():
    # formula rate (the brute force) == corner map == every envelope vertex past (0, K)
    for k in range(1, 61):
        for z in range(1, k + 1):
            corners = our_corners(k, z)
            assert {F(j, k): c for j, c in corners.items()} == _brute_our_corners(k, z), (k, z)
            assert list(corners) == sorted(corners)
            for mem, rate in our_envelope(k, z).points[1:]:
                assert corners[mem * k][0] == rate, (k, z, mem)


def test_simulated_rate_meets_envelope_corner(example_a):
    # measured rate == closed form == the envelope corner at the same memory
    from macc import simulate

    top, params = example_a
    report = simulate(top, params)
    assert report.rate == achievable_rate(4, 2, 2, 1) == our_envelope(8, 2).rate_at(F(1, 4))


def test_checks_never_contradict_direct_comparison():
    # wherever a claim's predicate holds, the direct comparison of the two schemes' own
    # rates or subpacketizations agrees, over a broad parameter sweep
    held = dict.fromkeys(("rk", "sub", "sr1", "sr2", "mr"), 0)
    for k in (12, 24, 36, 60, 100):
        for z in (2, 3, 5):
            mr = rival_envelope("MR", k, z)
            for m in analysis.divisors(k):
                b = k // m
                if b < z:
                    continue
                if check_subpacketization(k, z, m, b):
                    held["sub"] += 1
                    rk, nt = rival_corner("RK", k, z, m)[1], rival_corner("NT", k, z, m)[1]
                    assert b**m < rk and b**m < nt, (k, z, m, b)
                if check_mr_rate(k, z, m, b):
                    held["mr"] += 1
                    assert achievable_rate(b, m, z, 1) < mr.rate_at(F(1, b)), (k, z, m, b)
                for t in range(1, b // z + 1):
                    ours = achievable_rate(b, m, z, t)
                    if check_rk_rate(k, z, m, b, t):
                        held["rk"] += 1
                        assert ours < rival_corner("RK", k, z, m * t)[0], (k, z, m, b, t)
                    if check_sr2_rate(k, z, m, b, t):
                        held["sr2"] += 1
                        assert ours <= rival_corner("SR2", k, z, m * t)[0], (k, z, m, b, t)
            for tpp in range(1, k // z + 1):
                if check_sr1_rate(k, z, tpp):
                    held["sr1"] += 1
                    shared = sr1_best_pair(k, z, tpp)[0]
                    assert shared <= rival_corner("SR1", k, z, tpp)[0], (k, z, tpp)
    assert held == {"rk": 156, "sub": 33, "sr1": 50, "sr2": 32, "mr": 57}
