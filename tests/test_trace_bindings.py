"""The benchmark's tracer (perfbench/tracing.py) swaps wrappers in at named
module attributes; every binding it names must exist and carry the calls."""

import importlib.util
import inspect
import sys
from pathlib import Path

from macc import analysis, cli, designs, engine, topology

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_traced_bindings_exist_and_carry_the_calls(monkeypatch, tmp_path, capsys):
    tracing = _load_tracing(monkeypatch)
    modules = {"designs": designs, "topology": topology, "engine": engine,
               "analysis": analysis}
    for mod, attr, _ in tracing.SPAN_TARGETS + (tracing.COUNTED,):
        assert hasattr(modules[mod], attr), f"{mod}.{attr}"
    assert list(inspect.signature(engine.subfile_bytes).parameters) == \
        ["seed", "file", "subfile", "size"]

    tracer = tracing.Tracer(modules)
    assert tracer.missing == []
    argv = ["simulate", "--m", "2", "--b", "4", "--z", "2", "--t", "1", "--payload", "8",
            "--topology", "random", "--seed", "3", "--log", str(tmp_path / "tx.jsonl")]
    with tracer.installed(0):
        rc, _ = tracer.call(tracing.ROOT, cli.main, argv)
    capsys.readouterr()
    assert rc == 0
    spans = {s.name: s for s in tracer.spans}
    assert set(spans) >= {"topology.random_topology", "topology.validate",
                          "topology.extract_matchings", "engine.simulate", "engine.place",
                          "engine.deliver"}
    assert spans["engine.deliver"].count == 2 * 4**2
    assert tracer.counted["calls"] > 0

    # simulate numbers subfiles without a design; `macc design` still builds one
    with tracer.installed(1):
        rc, _ = tracer.call(tracing.ROOT, cli.main, ["design", "--m", "2", "--b", "4"])
    capsys.readouterr()
    assert rc == 0
    assert {s.name for s in tracer.spans if s.op == 1} >= {"designs.construct_mcrd",
                                                          "designs.verify_mcrd"}


def test_traced_deliver_count_is_the_schedule_length(monkeypatch):
    # the tracer reads the count through len(), which a generator would not have
    tracing = _load_tracing(monkeypatch)
    top = topology.canonical_topology(3, 4, 2)
    params = engine.SchemeParams(m=3, b=4, z=2, t=1, n_files=12)
    schedule = engine.deliver(engine.place(top, params),
                              topology.extract_matchings(top), range(1, 13))
    assert hasattr(schedule, "__len__")
    tracer = tracing.Tracer({"designs": designs, "topology": topology, "engine": engine,
                             "analysis": analysis})
    with tracer.installed(0):
        report, _ = tracer.call(tracing.ROOT, engine.simulate, top, params)
    (span,) = [s for s in tracer.spans if s.name == "engine.deliver"]
    assert span.count == report.transmission_count == len(schedule) == 2 * 4**3
