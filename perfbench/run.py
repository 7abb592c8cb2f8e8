"""Run one workload of the macc benchmark and print its metrics.

    python3 perfbench/run.py --workload simulate-large --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from its ``src/``.  One process, one thread, a closed loop with one
client: each operation is an in-process ``macc.cli.main(argv)`` call, and
the next starts when the previous one has been checked.  Human-readable
lines come first; the last line of stdout is the JSON result.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from a run
in which every other operation is traced.  The bounded timings are divided
by a reference probe run between operations (reference.py), because the
shared host's speed changes by up to 1.7x during a run.  NOTES.md explains
the choices.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from checks import Outcome, check, digests  # noqa: E402
from reference import PROBE_NOMINAL_S, HostSpeed  # noqa: E402
from tracing import ROOT, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WARMUP_OPS, WORKLOADS, Op  # noqa: E402

REPO = HERE.parent
SRC = REPO / "src"
WORK = HERE / ".work"
GOLDEN = HERE / "golden.json"
SETUP_LAUNCHES = 15
SETUP_CODE = "import macc.cli; macc.cli.build_parser()"
P90_MIN_OPS = 100  # so that ten samples lie beyond the 90th percentile


@dataclass
class Record:
    seconds: float
    problems: list[str]
    output_bytes: int
    shape: str
    traced: bool = False
    warmup: bool = False
    reference: float = 0.0  # mean probe time while the op ran; 0 when not probed


def launch_setup() -> float:
    """Wall time of a fresh interpreter that imports macc.cli and builds its parser.

    Bytecode caching is left on whatever the environment says, so that the
    launches after the first read ``src/macc/__pycache__`` as an installed
    package's users would, instead of compiling every module each time.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=REPO, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, check=False)
    seconds = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up launch failed: {proc.stderr.decode()[-500:]}")
    return seconds


def run_op(main, op: Op, tracer: Tracer | None = None, index: int = 0) -> tuple[Outcome, float]:
    """Write the op's inputs, call ``main(op.argv)`` with captured streams, time it."""
    for path, data in op.inputs.items():
        path.write_bytes(data)
    for path in op.outputs.values():
        path.unlink(missing_ok=True)
    gc.collect()
    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            if tracer is None:
                rc = main(op.argv)
            else:
                with tracer.installed(index):
                    rc = tracer.call(ROOT, main, op.argv)[0]
    except SystemExit as exc:  # argparse rejects a usage error this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an uncaught exception is a failed operation
        error = repr(exc)
    seconds = perf_counter() - start
    outcome = Outcome(rc, stdout.getvalue(), stderr.getvalue(), error, dict(op.outputs))
    return outcome, seconds


def execute(main, op: Op, expected: dict | None = None, tracer: Tracer | None = None,
            index: int = 0, warmup: bool = False) -> Record:
    """Run and check one op; ``expected`` holds recorded output digests, if any."""
    out, seconds = run_op(main, op, tracer, index)
    problems = check(op.command, op.params, out)
    if expected is not None and not problems:
        found = digests(out)
        problems += [f"{role} differs from its recorded digest"
                     for role in sorted(set(expected) | set(found))
                     if found.get(role) != expected.get(role)]
    if tracer is not None and problems and tracer.root is not None:
        tracer.root.error = True
    size = len(out.stdout.encode())
    size += sum(path.stat().st_size for path in op.outputs.values() if path.is_file())
    for path in [*op.outputs.values(), *op.inputs]:
        path.unlink(missing_ok=True)
    return Record(seconds, problems, size, op.shape, tracer is not None, warmup)


def load_golden(workload: str) -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))[workload]


def run_workload(main, workload: str, seed: int, seconds: float,
                 tracer: Tracer | None = None, speed: HostSpeed | None = None,
                 between_ops=None) -> list[Record]:
    """Warm-up ops, then the closed loop for ``seconds``; every op is checked.

    The warm-up ops are the first ops of DEFAULT_SEED, untimed and always
    compared with the recorded digests; timed ops are compared too when
    ``seed`` is DEFAULT_SEED.  With a tracer, ops 0, 2, 4, ... are traced.
    With ``speed``, a probe batch follows each timed op.
    ``between_ops(progress)`` runs after each timed op with the share of
    ``seconds`` used so far.  The loop's clock runs through probes and
    ``between_ops`` too, so a run lasts ``seconds`` whatever it measures.
    """
    golden = load_golden(workload)
    records = []
    warm = islice(WORKLOADS[workload](DEFAULT_SEED, WORK), WARMUP_OPS[workload])
    for index, op in enumerate(warm):
        records.append(execute(main, op, golden[index] if index < len(golden) else None,
                               warmup=True))
    expected = golden if seed == DEFAULT_SEED else []
    min_ops = 1 if tracer is None else 2
    if speed is not None:
        speed.start()
    timed, start = 0, perf_counter()
    for index, op in enumerate(WORKLOADS[workload](seed, WORK)):
        traced = tracer if index % 2 == 0 else None
        record = execute(main, op, expected[index] if index < len(expected) else None,
                         traced, index)
        if speed is not None:
            record.reference = speed.after(record.seconds)
        records.append(record)
        timed += 1
        if between_ops is not None:
            between_ops((perf_counter() - start) / seconds if seconds else 1.0)
        if timed >= min_ops and perf_counter() - start >= seconds:
            return records


def _rate(records: list[Record]) -> float:
    """Operations completed without a problem per second of operation time."""
    busy = sum(r.seconds for r in records)
    return sum(1 for r in records if not r.problems) / busy if busy else 0.0


def setup_time(launches: list[tuple[float, float]]) -> float:
    """Median launch time, each launch as a multiple of the probe around it, in
    seconds of the reference host speed (PROBE_NOMINAL_S per probe)."""
    return statistics.median(s / ref for s, ref in launches) * PROBE_NOMINAL_S


def reference_op_time(records: list[Record]) -> float:
    """Mean op time at the reference host speed.

    Each op's time is divided by the probe time around it.  Each op then
    counts at the median ratio of its shape in the run, which keeps a few
    disturbed ops from moving the mean.
    """
    ratios: dict[str, list[float]] = {}
    for r in records:
        ratios.setdefault(r.shape, []).append(r.seconds / r.reference)
    median = {shape: statistics.median(values) for shape, values in ratios.items()}
    return statistics.fmean(median[r.shape] for r in records) * PROBE_NOMINAL_S


def end_to_end(records: list[Record],
               setup: list[tuple[float, float]]) -> tuple[dict, dict, list[str]]:
    """The metrics BENCHMARK.json bounds, the figures only shown, and notes.

    ``setup`` holds (launch seconds, probe seconds around it) pairs.
    """
    timed = [r for r in records if not r.warmup]
    seconds = [r.seconds for r in timed]
    metrics = {
        "setup_s": (setup_time(setup), "s"),
        "op_ref_s": (reference_op_time(timed), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    failed = sum(1 for r in records if r.problems)
    shown = {
        "setup_raw_s": (statistics.median(s for s, _ in setup), "s"),
        "probe_s": (statistics.median(r.reference for r in timed), "s"),
        "ops_per_s": (_rate(timed), "1/s"),
        "op_p50_s": (statistics.median(seconds), "s"),
        "error_rate": (failed / len(records), "ratio"),
    }
    if len(seconds) >= P90_MIN_OPS:
        shown["op_p90_s"] = (statistics.quantiles(seconds, n=10)[-1], "s")
    notes = [
        f"setup_s: {len(setup)} fresh interpreter launches, each divided by the "
        f"probe around it, median times {PROBE_NOMINAL_S} s; setup_raw_s: their median time",
        f"op_ref_s: {len(timed)} timed ops of {len({r.shape for r in timed})} shapes, "
        f"each at the median op/probe ratio of its shape, times {PROBE_NOMINAL_S} s; "
        "probe_s: median probe time around an op",
        f"op_p50_s, op_p90_s: over {len(seconds)} timed ops"
        + ("" if len(seconds) >= P90_MIN_OPS else f"; op_p90_s omitted, < {P90_MIN_OPS} ops"),
        f"error_rate: {failed} of {len(records)} ops, "
        f"{len(records) - len(timed)} of them untimed warm-up",
        "shown figures are not bounded in BENCHMARK.json (see NOTES.md)",
    ]
    return metrics, shown, notes


def per_layer(records: list[Record], tracer: Tracer) -> tuple[dict, dict, list[str]]:
    timed = [r for r in records if not r.warmup]
    traced = [r for r in timed if r.traced]
    plain = [r for r in timed if not r.traced]
    metrics = tracer.metrics(len(traced))
    metrics["cli.output_bytes"] = (statistics.fmean(r.output_bytes for r in traced), "B/op")
    traced_rate, plain_rate = _rate(traced), _rate(plain)
    metrics["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.ops_per_s_untraced"] = (plain_rate, "1/s")
    metrics["trace.overhead"] = (1 - traced_rate / plain_rate if plain_rate else 0.0, "ratio")
    op_s = metrics[f"{ROOT}.busy_s"][0]
    notes = [f"{len(traced)} traced and {len(plain)} untraced timed ops"]
    notes += [f"share of op time: {name} {value / op_s:.1%}"
              for name, (value, _) in metrics.items()
              if name.endswith((".busy_s", ".self_s")) and value and op_s]
    return metrics, {}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "macc" / "cli.py").is_file():
        sys.stderr.write(f"error: no macc sources under {SRC}; run inside a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    from macc import analysis, cli, designs, engine, topology

    # Ops, probes and set-up launches all run on one CPU.  The two vCPUs of
    # the host are slowed by different neighbours at different times, so a
    # probe only tells the speed an op saw if both ran on the same one.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    setup: list[tuple[float, float]] = []
    speed = None

    def probe_setup(progress: float) -> None:
        # Launches are spread over the timed loop, between operations, and
        # each is followed by a probe batch like an operation.
        while len(setup) < SETUP_LAUNCHES * min(progress, 1.0):
            seconds = launch_setup()
            setup.append((seconds, speed.after(seconds)))

    WORK.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        tracer = Tracer({"designs": designs, "topology": topology, "engine": engine,
                         "analysis": analysis})
    else:
        speed = HostSpeed()
        launch_setup()  # untimed: writes the bytecode cache
    records = run_workload(cli.main, args.workload, args.seed, args.seconds, tracer,
                           speed, None if tracer else probe_setup)

    if tracer is None:
        probe_setup(1.0)
        metrics, shown, notes = end_to_end(records, setup)
    else:
        metrics, shown, notes = per_layer(records, tracer)
        path = WORK / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed})
        notes.append(f"spans written to {path}")

    failed = [r for r in records if r.problems]
    missing = tracer.missing if tracer is not None else []
    if missing:
        # A traced function that was renamed or moved would read as zero,
        # i.e. as a saving: the run fails until SPAN_TARGETS is updated.
        notes.append("traced bindings not found: " + ", ".join(missing))
    correct = not failed and not missing
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ops={len(records)} failed={len(failed)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6f} {unit}")
    for name, (value, unit) in shown.items():
        print(f"  {name:<36} {value:>14.6f} {unit}  (shown)")
    for note in notes:
        print(f"  # {note}")
    for record in failed[:5]:
        print(f"  ! {'; '.join(record.problems)[:300]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
