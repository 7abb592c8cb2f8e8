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
         f"topology --m -3 --b {10**8} --z {10**8}",
         "design --m 1 --b 1 --mu " + "9" * 4300,
         "topology --m " + "9" * 4300 + " --b 1 --z 1",
         f"compare --K {10**30} --z 1 --grid 0",
         f"compare --K {2**63} --z 3 --grid 1"]
# the refusals of the last four, whose totals have more digits than int-to-str prints or
# would make the divisor scan and the binomials run for ages
MESSAGES = {
    NAMED[-4]: "design needs about 10^4300 steps, over 60000000; its largest term is points "
               "4*mu*b^m = 10^4300",
    NAMED[-3]: "topology needs about 10^4302 steps, over 60000000; its largest term is user "
               "work K*(250+20*z+5*b) = 10^4302",
    NAMED[-2]: "compare needs about 162760416666666666666666666666829427083333333333333334949"
               "333333333333333333333333334453 steps, over 60000000; its largest term is big "
               "integers (K/z+entries)*bits^2/6144 = 16276041666666666666666666666682942708333"
               "3333333333333333333333333333333333333333333333",
    NAMED[-1]: "compare needs about 18919698035381343930349963298155261047968679604105769 "
               "steps, over 60000000; its largest term is big integers "
               "(K/z+entries)*bits^2/6144 = 18919698035381343930349963298151965229694176830882601",
}


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


def test_named_refusals_name_their_limit(capsys):
    for argv, message in MESSAGES.items():
        start = time.perf_counter()
        assert cli.main(argv.split()) == 2
        assert time.perf_counter() - start < 0.1
        assert capsys.readouterr().err == f"error: {message}\n"


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


# malformed --topology/--source and --demands files, each read where a (1, 2, 1) topology
# or its demands belong; the ones that do not parse must be named in the message
TOPOLOGY = '{"m": 1, "b": 2, "z": 1, "access": [[1], [2]]}'
FILES = {"non-utf8.json": (b'{"m": 1, "b": 2, "z": 1, "access": [[1], [\xff]]}', True),
         "deep.json": (b"[" * 10**5 + b"]" * 10**5, True),
         "bool-m.json": (TOPOLOGY.replace('"m": 1', '"m": true').encode(), False),
         "string-access.json": (TOPOLOGY.replace("[[1], [2]]", '"[[1], [2]]"').encode(), False),
         "cache-out-of-range.json": (TOPOLOGY.replace("[2]]", "[3]]").encode(), False),
         "digits.json": (TOPOLOGY.replace('"b": 2', '"b": ' + "2" * 5000).encode(), True),
         "nan.json": (TOPOLOGY.replace('"z": 1', '"z": NaN').encode(), False)}


def test_malformed_input_files_exit_2_fast(tmp_path, capsys):
    for name, (content, _) in FILES.items():
        (tmp_path / name).write_bytes(content)
    (tmp_path / "nan-demands.json").write_text("[1, NaN]")
    (tmp_path / "digit-demands.json").write_text("[1, " + "2" * 5000 + "]")
    (tmp_path / "directory.json").mkdir()
    named = {*(name for name, (_, parse) in FILES.items() if parse), "digit-demands.json",
             "directory.json"}
    failures = []
    for path in sorted(tmp_path.iterdir()):
        for argv in (["topology", "--m", "1", "--b", "2", "--z", "1", "--source", str(path)],
                     ["simulate", "--m", "1", "--b", "2", "--z", "1", "--t", "1",
                      "--topology", str(path)],
                     ["simulate", "--m", "1", "--b", "2", "--z", "1", "--t", "1",
                      "--demands", str(path)]):
            begin = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - every escape is the failure under test
                code = repr(exc)
            took = time.perf_counter() - begin
            err = capsys.readouterr().err
            if (code != 2 or took >= 0.1 or not err.startswith("error: ")
                    or (path.name in named and str(path) not in err)):
                failures.append((path.name, argv[0], code, round(took, 3), err[:200]))
    assert not failures
