"""Every argv ends in exit 0, 1 or 2, and a refusal costs nothing: a fixed, seeded set of
in-process ``macc`` runs over all four commands, with integer flags drawn from small
values, the edges of the shape checks and values past every budget."""

import random
import time

from macc import cli

VALUES = (-3, -1, 0, 1, 2, 3, 4, 5, 2**63, 10**30)
# each command's required and optional integer flags
FLAGS = {"design": (("--m", "--b"), ("--mu",)),
         "topology": (("--m", "--b", "--z"), ("--seed",)),
         "simulate": (("--m", "--b", "--z", "--t"), ("--files", "--payload", "--seed")),
         "compare": (("--K", "--z"), ("--grid",))}
# argvs that exit 2 fast only if the shape and the budgets are checked before any work or
# allocation that grows with b or z
NAMED = [f"simulate --m 3 --b {10**30} --z 3 --t 4",
         "simulate --m 6 --b 10 --z 1 --t 1",
         f"simulate --m 1 --b {10**7} --z {10**7} --t 1",
         f"simulate --m 1 --b {10**8} --z {10**8} --t 1",
         f"topology --m 0 --b {10**30} --z 4",
         f"topology --m -3 --b {10**6} --z {10**6}",
         f"topology --m -3 --b {10**8} --z {10**8}"]


def fuzz_argvs(count: int = 1000, seed: int = 9) -> list[list[str]]:
    """The named argvs, then ``count`` drawn with ``random.Random(seed)``."""
    rng = random.Random(seed)
    runs = [line.split() for line in NAMED]
    for _ in range(count):
        command = rng.choice(sorted(FLAGS))
        required, optional = FLAGS[command]
        argv = [command]
        for flag in required:
            argv += [flag, str(rng.choice(VALUES))]
        for flag in optional:
            if rng.random() < 0.3:
                argv += [flag, str(rng.choice(VALUES))]
        if command in ("topology", "simulate") and rng.random() < 0.3:
            argv += ["--source" if command == "topology" else "--topology", "random"]
        runs.append(argv)
    return runs


def test_every_argv_exits_0_1_or_2_and_refuses_fast(capsys):
    failures, start = [], time.perf_counter()
    for argv in fuzz_argvs():
        begin = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - every escape is the failure under test
            code = repr(exc)
        took = time.perf_counter() - begin
        capsys.readouterr()
        if code not in (0, 1, 2) or (code == 2 and took >= 0.1):
            failures.append((" ".join(argv), code, round(took, 3)))
    assert not failures
    assert time.perf_counter() - start <= 3
