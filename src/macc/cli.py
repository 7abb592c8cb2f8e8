"""Command-line front end: design / topology / simulate / compare.

Exit codes: 0 success, 1 validation or verification failure, 2 usage error.
All randomness flows from --seed; identical flags and seed give
byte-identical output.  Every output goes out through one writer, :func:`_emit`, in
writes of at most 32 KB joined from a stream of text chunks, never built whole in memory.
Two producers feed it the large outputs: :func:`_json_doc` walks a design, topology or
report document and hands each run of scalars, or of rows of numbers, to the C JSON
encoder a slice at a time, and :func:`write_log` splices each transmission line from
pieces of text built once per cell and once per subfile.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import reprlib
import sys
from fractions import Fraction
from pathlib import Path

from . import analysis, designs, engine, topology

# items per slice of a scalar list that one C-encoder call writes (1-5 KB of ints), and the
# most text in one write: `_emit` joins whole slices, and `write_log` whole lines, into 32 KB
_SLICE, _WRITE = 256, 2**15
_SCALARS = frozenset({str, int, float, bool, type(None)})
# digits that int-to-str conversion allows by default, and so the most that the CSV
# prints of a --grid entry's numerator or denominator
MAX_GRID_DIGITS = sys.int_info.default_max_str_digits


def _emit(chunks, out: str | None) -> None:
    """Write the text chunks to the file ``out``, or to stdout, joined into writes of at most
    ``_WRITE``; a longer chunk goes alone (one write per chunk slowed JSON).  8 KB writes took a
    22 MB log 14-23 ms, 32 KB 9-13 ms; 128 KB, glibc's mmap threshold, raised peak RSS 0.5 MB."""
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
        batch, size = [], 0
        for chunk in chunks:
            if size and size + len(chunk) > _WRITE:
                fh.write("".join(batch))
                batch, size = [], 0
            batch.append(chunk)
            size += len(chunk)
        if size:
            fh.write("".join(batch))


def _json_doc(doc: dict):
    """``doc`` as chunks of the text ``json.JSONEncoder(sort_keys=True, indent=2,
    default=analysis.json_default)`` writes, then a newline; dict keys must be str.

    With ``indent`` set the stdlib encodes in pure Python, token by token.  This walk
    writes dicts in key order and lists item by item, but a slice of a list that holds
    only str, int, float, bool and None goes to one C-encoder call whose item separator
    carries the slice's newline and indent; so does a slice of rows of numbers (:func:`_rows`)."""
    return itertools.chain(_walk(doc, 0), "\n")


@functools.cache
def _run_encoder(level: int) -> json.JSONEncoder:
    """The C-path encoder of a scalar list whose items sit at indent ``level``."""
    return json.JSONEncoder(separators=(",\n" + "  " * level, ": "))


def _walk(obj, level: int):
    """The chunks of ``obj`` at indent ``level``, as :func:`_json_doc` writes them."""
    outer = "\n" + "  " * level
    inner = outer + "  "
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            yield sep + json.encoder.encode_basestring_ascii(key) + ": "
            yield from _walk(value, level + 1)
            sep = "," + inner
        yield outer + "}"
    elif (isinstance(obj, (list, tuple)) and obj and type(obj[0]) in (list, tuple)
          and set(map(type, obj)) <= {list, tuple} and 0 < min(map(len, obj))
          and max(map(len, obj)) <= _SLICE
          and set(map(type, itertools.chain.from_iterable(obj))) <= _SCALARS - {str}):
        yield from _rows(obj, inner, outer, _run_encoder(level + 2).encode)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        sep, encode = "[" + inner, _run_encoder(level + 1).encode
        for start in range(0, len(obj), _SLICE):
            part = obj[start:start + _SLICE]
            if set(map(type, part)) <= _SCALARS:
                yield sep + encode(part)[1:-1]
                sep = "," + inner
                continue
            for item in part:
                yield sep
                yield from _walk(item, level + 1)
                sep = "," + inner
        yield outer + "]"
    elif isinstance(obj, (str, int, float)) or obj is None:  # bool is an int
        yield json.dumps(obj)
    else:
        yield from _walk(analysis.json_default(obj), level)


def _rows(rows, inner: str, outer: str, encode):
    """The chunks of rows of 1 to ``_SLICE`` numbers at indent ``inner``: ``encode`` writes
    up to ``_SLICE`` numbers a call at the rows' item separator; row boundaries are respelled."""
    head = inner + "[" + inner + "  "  # the text before a row's first number
    step, sep, boundary = _SLICE // max(map(len, rows)), "[" + head, inner + "]," + head
    for start in range(0, len(rows), step):
        yield sep + encode(rows[start:start + step])[2:-2].replace("]," + inner + "  [", boundary)
        sep = boundary
    yield inner + "]" + outer + "]"


def cmd_design(args) -> int:
    design = designs.construct_mcrd(args.m, args.b, args.mu)
    report = designs.verify_mcrd(design)
    _emit(_json_doc({"design": design, "verification": report}), args.out)
    return 0 if report.passed else 1


def _read_json(path: str):
    """The JSON document in the file ``path``; one that does not parse is a ValueError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
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
    designs.check_terms("topology", *engine.user_terms(args.m, args.b, args.z))
    top = _load_topology(args)
    report = topology.validate(top)
    _emit(_json_doc({"topology": top, "validation": report}), args.out)
    return 0 if report.passed else 1


def write_log(path: str, schedule: engine.Schedule) -> None:
    """Write one JSON line per m-group transmission, as ``json.dumps(doc, sort_keys=True)``
    spells it: coords, n, payload_hex (with a payload), then the summands.

    Each cell's fixed text is cut once into pieces around what changes by round: its
    coords head before n, the lead before group 1's subfile, the join between groups i
    and i+1's subfiles and the close after group m's.  A piece is formatted once per
    distinct (user, file) key in it, and the cells of one key share that string.  The
    pieces sit in one list, a line's worth per cell; each round writes its n and its
    subfiles into their slots, from a string table by subfile id that grows only when an id
    passes the cell count (F for ``deliver``'s schedules).  Chunks of about 32 KB of lines are
    joined from the list; with payloads, each fills in its own hexes, held one chunk at a time.
    """
    def chunks():
        if not len(schedule):
            return
        m = len(schedule.cells)
        paid = schedule.payloads is not None

        def pieces(form, *columns):
            text = {key: form % key for key in set(zip(*columns))}
            return list(map(text.__getitem__, zip(*columns)))

        lead = ('", "summands": [' if paid else ', "summands": [') + '{"file": %d, "subfile": '
        fixed = [pieces(lead, schedule.files[0])]
        fixed += [pieces(', "user": %d}, {"file": %d, "subfile": ', users, files)
                  for users, files in zip(schedule.users, schedule.files[1:])]
        fixed.append(pieces(', "user": %d}]}\n', schedule.users[m - 1]))

        # slots per line: head, n, [hex,] fixed[0], subfile 1, fixed[1], ..., subfile m, fixed[m]
        width, cells = 2 * m + 3 + paid, len(schedule.cells[0])
        subfiles = list(map(str, range(cells + 1)))
        lines = [None] * (width * cells)
        lines[::width] = map(('{"coords": [' + ", ".join(["%d"] * m) + '], "n": ').__mod__,
                             zip(*schedule.cells))
        for k, column in enumerate(fixed):
            lines[2 + paid + 2 * k::width] = column

        def text(start, stop, hexes):
            part = lines[start:stop]
            if paid:
                part[2::width] = map(bytes.hex, hexes[start // width:stop // width])
            return "".join(part)

        step = 0
        for n, summands in enumerate(schedule.rounds, start=1):
            lines[1::width] = itertools.repeat(f'{n}, "payload_hex": "' if paid else str(n), cells)
            for k, column in enumerate(summands):
                try:
                    lines[3 + paid + 2 * k::width] = map(subfiles.__getitem__, column)
                except IndexError:  # the slice assigned nothing: grow the table to fit, retry
                    subfiles += map(str, range(len(subfiles), max(column) + 1))
                    lines[3 + paid + 2 * k::width] = map(subfiles.__getitem__, column)
            hexes = schedule.payloads[n - 1] if paid else None
            # slots per chunk: as many lines as the first line fits into _WRITE
            step = step or width * max(1, _WRITE // len(text(0, width, hexes)))
            for start in range(0, len(lines), step):
                yield text(start, start + step, hexes)

    _emit(chunks(), path)


def cmd_simulate(args) -> int:
    if not -(2**63) <= args.seed < 2**63:  # the subfile content generator's key size
        raise ValueError(f"--seed must be a signed 64-bit integer, got {args.seed}")
    n_files = args.files if args.files is not None else args.m * args.b
    params = engine.SchemeParams(m=args.m, b=args.b, z=args.z, t=args.t, n_files=n_files)
    engine.check_cost(args.m, args.b, args.z, args.t, args.payload)  # before any topology
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
        write_log(args.log, report.transmissions)
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


def check_compare_cost(k: int, z: int, grid: str | None) -> None:
    """Refuse z outside 1..K, then price in O(1): 8 table rows per grid entry (commas + 1),
    ours' sigma(K)/z < K*(1+bitlen(K))/z corners (whose term also covers the divisor scan)
    and the big integers, a binomial per t' <= K/z and 3 per entry, each of at most about
    K*bitlen(z)/z bits, on which int-to-str and log10_of take about bits^2/6144 steps,
    deliberately not refit for the binomials' linear walk, so each argv keeps its exit code."""
    if not 1 <= z <= k:
        raise ValueError(f"need 1 <= --z <= --K, got --z {z} and --K {k}")
    entries = -(-k // z) + 1 if grid is None else grid.count(",") + 1
    bits = k * z.bit_length() // z
    designs.check_terms("compare", {
        "table rows 140*8*entries": 140 * 8 * entries,
        "ours' corners 16*K*(1+bitlen(K)/z)": 16 * (k + k * k.bit_length() // z),
        "big integers (K/z+entries)*bits^2/6144": (k // z + entries) * bits * bits // 6144},
        {"table rows 650*8*entries": 650 * 8 * entries,
         "big integers (K/z+3*entries)*bits": (k // z + 3 * entries) * bits})


def cmd_compare(args) -> int:
    check_compare_cost(args.K, args.z, args.grid)
    grid = _parse_grid(args.grid, args.K, args.z)
    rows = analysis.comparison_table(args.K, args.z, grid)
    try:  # the JSON before the CSV, so that a refusal writes no file
        chunks = [*analysis.rows_to_json(rows), "\n"] if args.json else None
    except ValueError:  # int-to-str conversion refuses a rate's terms past that many digits
        raise ValueError(f"--json: an exact rate has more than {MAX_GRID_DIGITS} digits") from None
    _emit(analysis.rows_to_csv(rows), args.out)
    if chunks:
        _emit(chunks, args.json)
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
    except (ValueError, OSError) as exc:  # every refusal of the package is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
