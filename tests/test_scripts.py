"""The experiment scripts under scripts/ run to completion."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# sha256 of scripts/worked_examples.py's stdout
WORKED_EXAMPLES_GOLDEN = "f4289cebf1c06073835cde3f59e842fc51af19d4044881b87627af257a90f279"
# sha256 of scripts/comparison_data.py's stdout (its output directory written as OUT) and
# of the CSV and JSON it writes, for the default run and for --K 12 --z 7
COMPARISON_DATA_GOLDEN = "db05e2cb40260e30b332e0c5a897de454fa434f568cf4c734cbbb9cce4e1be9c"


def _run(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


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
    script = ROOT / "scripts" / "cli_digests.py"
    spec = importlib.util.spec_from_file_location("cli_digests", script)
    cli_digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_digests)
    runs = cli_digests.sweep()
    assert len(runs) >= 2000
    # one run that writes two files, one that reads shared demands the script writes, and
    # one whose error names its output path
    picked = [["simulate", "--m", "2", "--b", "3", "--z", "2", "--t", "1", "--payload", "8",
               "--log", "TMP/tx.jsonl", "--report", "TMP/report.json"],
              ["simulate", "--m", "2", "--b", "3", "--z", "2", "--t", "1", "--files", "2",
               "--demands", "TMP/demands.json", "--payload", "8",
               "--log", "TMP/tx.jsonl", "--report", "TMP/report.json"],
              ["design", "--m", "2", "--b", "2", "--out", "TMP/missing/out"]]
    short, long = tmp_path / "a", tmp_path / "a-longer-directory"
    short.mkdir()
    long.mkdir()
    for argv in picked:
        assert argv in runs
        assert cli_digests.digest(argv, short) == cli_digests.digest(argv, long)
    assert not any(short.iterdir()) and not any(long.iterdir())
