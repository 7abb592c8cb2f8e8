#!/usr/bin/env python3
"""Emit the rate/subpacketization comparison data for a (K, z) problem.

Writes a long-format CSV (one row per memory point per scheme) plus the
envelope corner list for our scheme, and prints the proximal-points table
for the crossover region.

Usage:
    python scripts/comparison_data.py [--K 100] [--z 5] [--outdir data/]
"""

import argparse
from fractions import Fraction
from pathlib import Path

from macc import analysis


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--K", type=int, default=100)
    parser.add_argument("--z", type=int, default=5)
    parser.add_argument("--outdir", default="data")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    grid = [Fraction(t, args.K) for t in range(0, -(-args.K // args.z) + 1)]
    rows = analysis.comparison_table(args.K, args.z, grid)
    csv_path = outdir / f"comparison_K{args.K}_z{args.z}.csv"
    csv_path.write_text("".join(analysis.rows_to_csv(rows)), encoding="utf-8")
    json_path = outdir / f"comparison_K{args.K}_z{args.z}.json"
    json_path.write_text("".join(analysis.rows_to_json(rows)) + "\n", encoding="utf-8")

    curve = analysis.our_envelope(args.K, args.z)
    print(f"K={args.K} z={args.z}")
    print("envelope corners (M/N, rate):")
    for mem, rate in curve.points:
        print(f"  ({mem}, {rate})")

    # crossover region against RK and SR1, five points around M/N = 1/z - 0.04
    probe = [Fraction(t, 100) for t in range(16, 21)] if args.z == 5 and args.K == 100 else grid[-5:]
    rk = analysis.rival_envelope("RK", args.K, args.z)
    sr1 = analysis.rival_envelope("SR1", args.K, args.z)
    print("proximal points (M/N, SR1, RK, ours):")
    for mem in probe:
        print(
            f"  {float(mem):.2f}  {float(sr1.rate_at(mem)):.4f}  "
            f"{float(rk.rate_at(mem)):.4f}  {float(curve.rate_at(mem)):.4f}"
        )
    print(f"wrote {csv_path} and {json_path}")


if __name__ == "__main__":
    main()
