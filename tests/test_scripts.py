"""The experiment scripts under scripts/ run to completion."""

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from macc import cli

ROOT = Path(__file__).resolve().parent.parent
# sha256 of scripts/worked_examples.py's stdout
WORKED_EXAMPLES_GOLDEN = "f4289cebf1c06073835cde3f59e842fc51af19d4044881b87627af257a90f279"
# sha256 of scripts/comparison_data.py's stdout (its output directory written as OUT) and
# of the CSV and JSON it writes, for the default run and for --K 12 --z 7
COMPARISON_DATA_GOLDEN = "db05e2cb40260e30b332e0c5a897de454fa434f568cf4c734cbbb9cce4e1be9c"
# sha256 of scripts/cli_digests.py's output: one digest line per run of its sweep
CLI_DIGESTS_GOLDEN = "daefb4499142bb032772f01589fa3dda87bc9d33e7d41fac828a156d02a97c42"


def _run(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def _load_script(name):
    """The module scripts/<name>.py, loaded in-process."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_worked_examples_script():
    proc = _run("scripts/worked_examples.py")
    assert proc.returncode == 0, proc.stderr
    assert "decoded 8/8" in proc.stdout and "decoded 14/14" in proc.stdout
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == WORKED_EXAMPLES_GOLDEN


def test_comparison_data_script(tmp_path):
    digest = hashlib.sha256()
    # K <= 2z - 2 in the second run, where SPE has no corner
    for argv, stem in (([], "comparison_K100_z5"), (["--K", "12", "--z", "7"], "comparison_K12_z7")):
        proc = _run("scripts/comparison_data.py", *argv, "--outdir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        digest.update(proc.stdout.replace(str(tmp_path), "OUT").encode())
        for suffix in (".csv", ".json"):
            digest.update((tmp_path / (stem + suffix)).read_bytes())
    assert digest.hexdigest() == COMPARISON_DATA_GOLDEN


def test_cli_digests_sweep_and_temporary_paths(tmp_path):
    cli_digests = _load_script("cli_digests")
    runs = cli_digests.sweep()
    assert len(runs) >= 2000
    # one run that writes two files, one that reads shared demands and one that reads a
    # shuffled topology, both written by the script, and one whose error names its output path
    picked = [["simulate", "--m", "2", "--b", "3", "--z", "2", "--t", "1", "--payload", "8",
               "--log", "TMP/tx.jsonl", "--report", "TMP/report.json"],
              ["simulate", "--m", "2", "--b", "3", "--z", "2", "--t", "1", "--files", "2",
               "--demands", "TMP/demands.json", "--payload", "8",
               "--log", "TMP/tx.jsonl", "--report", "TMP/report.json"],
              ["simulate", "--m", "2", "--b", "4", "--z", "2", "--t", "1",
               "--topology", "TMP/shuffled.json", "--seed", "2", "--payload", "8",
               "--log", "TMP/tx.jsonl", "--report", "TMP/report.json"],
              ["design", "--m", "2", "--b", "2", "--out", "TMP/missing/out"]]
    short, long = tmp_path / "a", tmp_path / "a-longer-directory"
    short.mkdir()
    long.mkdir()
    for argv in picked:
        assert argv in runs
        assert cli_digests.digest(argv, short) == cli_digests.digest(argv, long)
    assert not any(short.iterdir()) and not any(long.iterdir())


def test_readme_quotes_the_sweep_size():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (quoted,) = re.findall(r"sweep\s+of\s+(\d+)\s+argvs", readme)
    assert int(quoted) == len(_load_script("cli_digests").sweep())


def test_cli_digests_sweep_output_is_pinned():
    # every byte each swept run writes, in-process; a change to any of them fails here
    cli_digests = _load_script("cli_digests")
    digest = hashlib.sha256()
    for line in cli_digests.lines():
        digest.update(line.encode())
    assert digest.hexdigest() == CLI_DIGESTS_GOLDEN


def test_budget_edges_refused_runs_exit_2_fast(tmp_path, capsys):
    # only the refused edges, in-process; the accepted ones take seconds each.  The
    # modelled edges are searched by the script, so each refusal names the term it was
    # searched for, one step past the largest accepted value
    budget_edges = _load_script("budget_edges")
    edges = budget_edges.edges()
    assert len(edges) == len(budget_edges.MODELLED) + len(budget_edges.HAND)
    refused = [(argv, message) for _, _, argv, message in edges]
    assert len(refused) >= 12
    for _, argv, _, _ in edges[:len(budget_edges.MODELLED)]:
        assert budget_edges.accepted(argv), argv
    for argv, message in refused:
        start = time.perf_counter()
        code = cli.main(argv.replace(budget_edges.TMP, str(tmp_path)).split())
        took = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and message in err, (argv[:200], err)
        assert took < 0.1, (argv[:200], took)
    assert not any(tmp_path.iterdir())


def test_schedule_rank_script():
    # the grouped demands' ranks are the rates this placement and delivery reach there
    proc = _run("scripts/schedule_rank.py", "--shape", "3", "6", "2", "1",
                "--shape", "3", "10", "2", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("| shape | demands | rows | rank |\n"
                           "|---|---|---|---|\n"
                           "| (3,6,2,1) | distinct | 864 | 864 |\n"
                           "| (3,6,2,1) | group i wants file i | 864 | 534 |\n"
                           "| (3,10,2,1) | distinct | 8 000 | 8 000 |\n"
                           "| (3,10,2,1) | group i wants file i | 8 000 | 2 808 |\n")
