#!/usr/bin/env python3
"""Run the two reference examples end to end and print what happens.

Example A: K=8 users in m=2 groups of b=4, each reading z=2 caches, one
block of memory per cache (t=1).  Example B: K=14, b=7, z=3, t=2.  Both
print the placement, a few transmissions, and the decode summary.
"""

from itertools import islice

from macc import (
    SchemeParams,
    Topology,
    extract_matchings,
    place,
    simulate,
    validate,
)


def run(name, top, params, show=4):
    print(f"=== {name}: K={params.num_users} z={params.z} t={params.t} "
          f"M/N={params.memory_fraction} F={params.subpacketization}")
    report_v = validate(top)
    print("topology:", report_v.summary())
    matching = extract_matchings(top)
    print("matching per group:", matching.to_cache)
    placement = place(top, params)
    for i in range(1, params.m + 1):
        print(f"cache blocks, group {i}:", placement.cache_blocks[i - 1])
    report = simulate(top, params, payload_size=64, seed=0)
    schedule = report.transmissions
    # the first broadcasts of round 1: one subfile per group at each cell's coords
    for coords, files, subfiles in islice(zip(zip(*schedule.cells), zip(*schedule.files),
                                              zip(*schedule.rounds[0])), show):
        terms = " + ".join(f"W^{f}({s})" for f, s in zip(files, subfiles))
        print(f"  Y^1_{coords} = {terms}")
    print(f"  ... {report.transmission_count} transmissions total")
    print(f"rate = {report.rate} (expected {report.expected_rate}), "
          f"decoded {sum(report.users_complete)}/{len(report.users_complete)}, "
          f"coding gain {min(report.beneficiary_counts)}..{max(report.beneficiary_counts)}, "
          f"byte oracle {'ok' if report.byte_oracle_ok else 'FAILED'}")
    print()


def main() -> None:
    top_a = Topology.from_group_slots(
        2, 4, 2,
        [
            [[1, 3], [2, 4], [1, 4], [2, 3]],
            [[1, 4], [2, 3], [2, 4], [1, 3]],
        ],
    )
    run("Example A", top_a, SchemeParams(m=2, b=4, z=2, t=1, n_files=8))

    group = [[1, 3, 5], [2, 3, 5], [2, 3, 5], [2, 4, 5], [2, 3, 5], [2, 3, 6], [2, 3, 7]]
    top_b = Topology.from_group_slots(2, 7, 3, [group, group])
    run("Example B", top_b, SchemeParams(m=2, b=7, z=3, t=2, n_files=14))


if __name__ == "__main__":
    main()
