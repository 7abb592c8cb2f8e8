"""Output checks for every `macc` invocation the benchmark makes.

The expected values come from closed forms and from the documented subfile
content generator, re-implemented here, never from `macc` itself, so a
wrong fast path in the program cannot agree with its own check.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

SCHEMES_PER_GRID_POINT = 8
CSV_HEADER = "mn_num,mn_den,scheme,rate,log10_subpacketization"


@dataclass
class Outcome:
    """What one operation left behind: exit code, captured streams, output files."""

    rc: int | None
    stdout: str = ""
    stderr: str = ""
    error: str | None = None  # repr of an exception that escaped `main`
    files: dict[str, Path] = field(default_factory=dict)


def rate_in_files(b: int, z: int, t: int) -> int:
    """r = b - t'(z-1) - t_z, the scheme's rate in files."""
    x = b // z
    return b - min(t, x) * (z - 1) - min(t, b - (z - 1) * x)


def subfile_content(seed: int, file: int, subfile: int, size: int) -> bytes:
    """Ground-truth subfile bytes: keyed BLAKE2b-512 blocks of b"file:subfile:counter"."""
    key = seed.to_bytes(8, "big", signed=True)
    blocks = [
        hashlib.blake2b(b"%d:%d:%d" % (file, subfile, counter), key=key, digest_size=64).digest()
        for counter in range(-(-size // 64))
    ]
    return b"".join(blocks)[:size]


def _load_json(path: Path, problems: list[str]):
    try:
        return json.loads(path.read_bytes())
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: unreadable JSON ({exc})")
        return None


def _count_lines(path: Path) -> int:
    count = 0
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            count += chunk.count(b"\n")
    return count


def _check_payloads(path: Path, m: int, seed: int, size: int, problems: list[str]) -> None:
    contents: dict[tuple[int, int], int] = {}
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            tx = json.loads(line)
            if len(tx["summands"]) != m:
                problems.append(f"log line {lineno}: {len(tx['summands'])} summands, expected {m}")
                return
            want = 0
            for s in tx["summands"]:
                key = (s["file"], s["subfile"])
                if key not in contents:
                    contents[key] = int.from_bytes(subfile_content(seed, *key, size), "big")
                want ^= contents[key]
            if tx.get("payload_hex") != want.to_bytes(size, "big").hex():
                problems.append(f"log line {lineno}: payload is not the XOR of its summands")
                return


def check_simulate(p: dict, out: Outcome) -> list[str]:
    problems: list[str] = []
    m, b = p["m"], p["b"]
    users, r = m * b, rate_in_files(b, p["z"], p["t"])
    transmissions = r * b**m
    stdout = dict(line.split("=", 1) for line in out.stdout.splitlines() if "=" in line)
    expected = {
        "transmissions": str(transmissions),
        "rate": f"{r}/1",
        "subpacketization": str(b**m),
        "decoded": f"{users}/{users}",
        "byte_oracle": "skipped" if p["payload"] is None else "ok",
    }
    for key, want in expected.items():
        if stdout.get(key) != want:
            problems.append(f"stdout {key}={stdout.get(key)!r}, expected {want!r}")

    lines = _count_lines(out.files["log"])
    if lines != transmissions:
        problems.append(f"log has {lines} lines, expected {transmissions}")
    elif p["payload"] is not None:
        _check_payloads(out.files["log"], m, p["seed"], p["payload"], problems)

    report = _load_json(out.files["report"], problems)
    if report is not None:
        if report.get("transmission_count") != transmissions:
            problems.append(f"report transmission_count={report.get('transmission_count')}")
        if report.get("rate") != {"num": r, "den": 1}:
            problems.append(f"report rate={report.get('rate')}, expected {r}/1")
        complete = report.get("users_complete") or []
        if len(complete) != users or not all(complete):
            problems.append("report: some user does not decode its file")
        oracle = None if p["payload"] is None else True
        if report.get("byte_oracle_ok") is not oracle:
            problems.append(f"report byte_oracle_ok={report.get('byte_oracle_ok')}")
    return problems


def check_design(p: dict, out: Outcome) -> list[str]:
    problems: list[str] = []
    doc = _load_json(out.files["out"], problems)
    if doc is not None:
        if not doc["verification"]["passed"] or doc["verification"]["measured_mu"] != 1:
            problems.append("design verification did not pass with mu = 1")
        if (doc["design"]["m"], doc["design"]["b"]) != (p["m"], p["b"]):
            problems.append("design has the wrong shape")
    return problems


def check_topology(p: dict, out: Outcome) -> list[str]:
    problems: list[str] = []
    doc = _load_json(out.files["out"], problems)
    if doc is not None:
        if not doc["validation"]["passed"]:
            problems.append("topology validation did not pass")
        top = doc["topology"]
        if (top["m"], top["b"], top["z"]) != (p["m"], p["b"], p["z"]) or \
                len(top["access"]) != p["m"] * p["b"]:
            problems.append("topology has the wrong shape")
    return problems


def check_compare(p: dict, out: Outcome) -> list[str]:
    problems: list[str] = []
    grid_points = -(-p["K"] // p["z"]) + 1
    rows = SCHEMES_PER_GRID_POINT * grid_points
    lines = out.files["out"].read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER or len(lines) != 1 + rows:
        problems.append(f"CSV has {len(lines)} lines, expected header + {rows} rows")
    doc = _load_json(out.files["json"], problems)
    if doc is not None and len(doc) != rows:
        problems.append(f"JSON has {len(doc)} rows, expected {rows}")
    return problems


CHECKS = {
    "simulate": check_simulate,
    "design": check_design,
    "topology": check_topology,
    "compare": check_compare,
}


def check(command: str, params: dict, out: Outcome) -> list[str]:
    """Problems with one operation's outcome; empty means it succeeded."""
    if out.error is not None:
        return [f"raised {out.error}"]
    if out.rc != 0:
        return [f"exit code {out.rc}: {out.stderr.strip()[:200]}"]
    missing = [role for role, path in out.files.items() if not path.is_file()]
    if missing:
        return [f"missing output {', '.join(missing)}"]
    try:
        return CHECKS[command](params, out)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]


def digests(out: Outcome) -> dict[str, str]:
    """sha256 of stdout and of every output file, by role."""
    found = {"stdout": hashlib.sha256(out.stdout.encode()).hexdigest()}
    for role, path in sorted(out.files.items()):
        h = hashlib.sha256()
        with path.open("rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        found[role] = h.hexdigest()
    return found
