"""Command-line front end: design / topology / simulate / compare.

Exit codes: 0 success, 1 validation or verification failure, 2 usage error.
All randomness flows from --seed; identical flags and seed give
byte-identical output.  Every output goes out through one writer, :func:`_emit`, in
writes of about 8 KB joined from a stream of text chunks, never built whole in memory.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import operator
import reprlib
import sys
from fractions import Fraction
from pathlib import Path

from . import analysis, designs, engine, topology

_ENCODER = json.JSONEncoder(sort_keys=True, indent=2, default=analysis.json_default)
# users that `compare` accepts: its slowest case, z = 1 on the default grid, takes
# about 5 s at K = 3000 and 9 s at K = 4000 in-process on a 2-vCPU x86-64 VM
MAX_COMPARE_USERS = 3000
# digits that int-to-str conversion allows by default, and so the most that the CSV
# prints of a --grid entry's numerator or denominator
MAX_GRID_DIGITS = sys.int_info.default_max_str_digits


def _emit(chunks, out: str | None) -> None:
    """Write the text chunks to the file ``out``, or to stdout, in writes of about 8 KB:
    each joins up to twice the chunks of the write before, as many as made 8 KB there.
    Larger writes raised the peak RSS of 1 KB payload logs; one per chunk slowed JSON."""
    chunks, step = filter(None, chunks), 1
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
        while piece := "".join(itertools.islice(chunks, step)):
            fh.write(piece)
            step = max(1, min(2 * step, step * 2**13 // len(piece)))


def _json_doc(doc: dict):
    return itertools.chain(_ENCODER.iterencode(doc), "\n")


def cmd_design(args) -> int:
    design = designs.construct_mcrd(args.m, args.b, args.mu)
    report = designs.verify_mcrd(design)
    _emit(_json_doc({"design": design, "verification": report}), args.out)
    return 0 if report.passed else 1


def _read_json(path: str):
    """The JSON document in the file ``path``; nesting too deep to parse is a ValueError."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def _load_topology(args) -> topology.Topology:
    src = args.source
    if src == "canonical":
        return topology.canonical_topology(args.m, args.b, args.z)
    if src == "random":
        return topology.random_topology(args.m, args.b, args.z, seed=args.seed)
    doc = _read_json(src)
    if isinstance(doc, dict) and "topology" in doc:  # the `macc topology --out` document
        doc = doc["topology"]
    if not isinstance(doc, dict) or not {"m", "b", "z", "access"} <= set(doc):
        raise ValueError(f"{src} is not a topology JSON (need m, b, z, access)")
    top = topology.Topology.from_json_dict(doc)
    if (top.m, top.b, top.z) != (args.m, args.b, args.z):
        raise ValueError("topology file shape does not match --m/--b/--z")
    return top


def cmd_topology(args) -> int:
    engine.check_coverage_budget(args.m, args.b)
    top = _load_topology(args)
    report = topology.validate(top)
    _emit(_json_doc({"topology": top, "validation": report}), args.out)
    return 0 if report.passed else 1


def write_log(path: str, schedule: engine.Schedule, m: int) -> None:
    """Write one JSON line per m-group transmission, as ``json.dumps(doc, sort_keys=True)``
    spells it: coords, n, payload_hex (with a payload), then the summands.

    Each cell's coords, files and users are filled into its line template once; a
    round then formats each cell's n, payload hex and subfiles, one line per chunk.
    """
    paid = "" if schedule.payloads is None else '"payload_hex": "%%s", '
    line = ('{"coords": [' + ", ".join(["%d"] * m) + '], "n": %%d, ' + paid + '"summands": ['
            + ", ".join(['{"file": %d, "subfile": %%d, "user": %d}'] * m) + "]}\n")
    templates = list(map(line.__mod__, zip(*schedule.cells, *itertools.chain.from_iterable(
        zip(schedule.files, schedule.users)))))

    def lines():
        for n, summands in enumerate(schedule.rounds, start=1):
            hexes = [map(bytes.hex, schedule.payloads[n - 1])] if paid else []
            yield from map(operator.mod, templates, zip(itertools.repeat(n), *hexes, *summands))

    _emit(lines(), path)


def cmd_simulate(args) -> int:
    if not -(2**63) <= args.seed < 2**63:  # the subfile content generator's key size
        raise ValueError(f"--seed must be a signed 64-bit integer, got {args.seed}")
    n_files = args.files if args.files is not None else args.m * args.b
    params = engine.SchemeParams(m=args.m, b=args.b, z=args.z, t=args.t, n_files=n_files)
    top = _load_topology(args)

    demands = None
    if args.demands:
        demands = _read_json(args.demands)
        if not isinstance(demands, list) or not all(type(d) is int for d in demands):
            raise ValueError(f"{args.demands}: demands must be a JSON list of integer file indices")

    report = engine.simulate(
        top,
        params,
        demands=demands,
        payload_size=args.payload,
        seed=args.seed,
        placement_seed=args.seed if args.placement == "seeded" else None,
    )

    if args.log:
        write_log(args.log, report.transmissions, args.m)
    if args.report:
        _emit(_json_doc(report.to_json_dict()), args.report)

    gains = report.beneficiary_counts
    _emit([
        f"transmissions={report.transmission_count}\n"
        f"rate={report.rate.numerator}/{report.rate.denominator}\n"
        f"subpacketization={report.subpacketization}\n"
        f"decoded={sum(report.users_complete)}/{len(report.users_complete)}\n"
        f"coding_gain_min={min(gains) if gains else 0}\n"
        f"coding_gain_max={max(gains) if gains else 0}\n"
        f"byte_oracle={'skipped' if report.byte_oracle_ok is None else ('ok' if report.byte_oracle_ok else 'FAIL')}\n"
    ], None)
    ok = report.all_complete() and report.byte_oracle_ok is not False
    return 0 if ok else 1


def _parse_grid(text: str | None, k: int, z: int) -> list[Fraction]:
    if text is None:
        return [Fraction(t, k) for t in range(0, -(-k // z) + 1)]
    text = text.strip()
    if not text:
        return []
    parts = [part.strip() for part in text.split(",")]
    for part in parts:
        # an entry of d characters before its exponent e has at most d + |e| digits; nine
        # digits of e, the first not 0, already exceed the limit
        mantissa, _, exponent = part.lower().partition("e")
        exponent = exponent.lstrip("+-").lstrip("0") or "0"
        if exponent.isdecimal() and len(mantissa) + int(exponent[:9]) > MAX_GRID_DIGITS:
            raise ValueError(f"--grid: {reprlib.repr(part)} has more digits than the CSV "
                             f"prints ({MAX_GRID_DIGITS})")
    try:
        grid = [Fraction(part) for part in parts]
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--grid: {text!r} is not a comma-separated list of fractions") from None
    for mem in grid:
        if not 0 <= mem <= 1:
            raise ValueError(f"--grid: memory fraction {mem} is outside [0, 1]")
    return grid


def cmd_compare(args) -> int:
    if not 1 <= args.z <= args.K:
        raise ValueError(f"need 1 <= --z <= --K, got --z {args.z} and --K {args.K}")
    if args.K > MAX_COMPARE_USERS:
        raise designs.PointBudgetError(f"--K {args.K} exceeds the compare budget of "
                                       f"{MAX_COMPARE_USERS} users")
    grid = _parse_grid(args.grid, args.K, args.z)
    rows = analysis.comparison_table(args.K, args.z, grid)
    _emit([analysis.rows_to_csv(rows)], args.out)
    if args.json:
        _emit([analysis.rows_to_json(rows), "\n"], args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macc",
        description="Multi-access coded caching: designs, topologies, simulation, comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="construct and verify a block design")
    p.add_argument("--m", type=int, required=True, help="parallel classes / groups")
    p.add_argument("--b", type=int, required=True, help="blocks per class")
    p.add_argument("--mu", type=int, default=1, help="cross intersection size")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("topology", help="generate or check a user-to-cache graph")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--z", type=int, required=True, help="caches per user")
    p.add_argument("--source", default="canonical",
                   help="canonical | random | path to topology JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_topology)

    p = sub.add_parser("simulate", help="run placement, delivery, and decode checks")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--t", type=int, required=True, help="memory units (M = tN/b)")
    p.add_argument("--files", type=int, help="library size N (default: one per user)")
    p.add_argument("--topology", dest="source", metavar="TOPOLOGY", default="canonical",
                   help="canonical | random | path to topology JSON")
    p.add_argument("--demands", help="JSON file with one file index per user")
    p.add_argument("--payload", type=int, nargs="?", const=engine.DEFAULT_PAYLOAD_SIZE,
                   help="attach XOR payloads of this many bytes and run the byte oracle")
    p.add_argument("--placement", choices=("deterministic", "seeded"),
                   default="deterministic", help="extra-block selection mode")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log", help="write transmissions as JSON lines here")
    p.add_argument("--report", help="write the simulation report JSON here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="emit rate/subpacketization comparison data")
    p.add_argument("--K", type=int, required=True, help="number of users and caches")
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--grid", help="comma-separated memory fractions (default: t/K grid)")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.add_argument("--json", help="also write exact-rational JSON here")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, designs.PointBudgetError,
            topology.MatchingError, topology.GenerationError, analysis.ApplicabilityError,
            OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
