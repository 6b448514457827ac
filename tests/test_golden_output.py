"""One SHA-256 pins the exact bytes of about fifty in-process CLI calls.

Every command prints exact rationals, so a kernel change that keeps its results
keeps the output byte for byte. The digest covers each call's argv, exit code,
stdout and stderr: the presets through classify, recurrence and moments in all
three formats at depths 0, 3 and 12; `verify --suite all` on each preset; the
identities suite on the default frames and on one frame; eight random pairs
regular to depth 20, one on each of the benchmark's frame kinds, one of them
with a corrupted moment; and moments and recurrence on one pair with tall,
unrelated denominators in csv and human at depth 24; four calls that exit 2
with JSON on stderr, one for each way a command can fail on its pair; two csv
calls whose cells hold commas and double quotes; and `--n` given to a suite
that does not read it.
"""

import hashlib
import json

from hahnpoly.classical import PRESETS
from hahnpoly.cli import DEPTH_ENV, main

FORMATS = ("json", "csv", "human")
DEPTHS = (0, 3, 12)
# (a, b, c, d, e), (q, omega) and the command; the first four frames are kinds of the generate workload,
# the last four of the gram workload
PAIRS = [
    (("1", "2", "3/2", "1/3", "1/3"), ("1", "-1"), ["moments"]),
    (("-2/3", "1/3", "-1/3", "1", "0"), ("1/2", "0"), ["moments"]),
    (("2/3", "-3/2", "0", "1", "-1"), ("2", "2"), ["moments"]),
    (("1/3", "1", "3/2", "-1/3", "1"), ("5/2", "0"), ["moments"]),
    (("-2", "3", "-1/2", "-2", "1"), ("1", "3/2"), ["verify", "--suite", "gram"]),
    (("-1", "-1", "1/2", "-1", "-1/3"), ("1/2", "-2/3"), ["verify", "--suite", "gram"]),
    (("1", "1/2", "0", "3", "-3/2"), ("2/3", "1/3"), ["verify", "--suite", "gram"]),
    (("1", "2/3", "1", "-3", "-3"), ("3/2", "-1/2"), ["verify", "--suite", "gram", "--fuzz-moment=7"]),
]
# a pair and frame with tall, unrelated denominators, regular to depth 30
TALL_FLAGS = ["--a=7/11", "--b=-5/13", "--c=3/17", "--d=-19/23", "--e=2/29", "--q=31/37", "--omega=5/41"]
# moments on an inadmissible pair, recurrence on an irregular one, and the gram and rodrigues suites on pairs
# that classify's scan accepts at their depth but whose moment tables reach a d_m = 0
NEGATIVE_CALLS = [
    ["moments", "--a=1", "--c=1", "--d=-3/4", "--e=1", "--q=2", "--omega=0"],
    ["recurrence", "--b=1", "--d=-1", "--q=1", "--omega=1"],
    ["verify", "--suite", "gram", "--a=1", "--c=1", "--d=-15", "--e=1", "--q=1", "--omega=1", "--n", "6"],
    ["verify", "--suite", "rodrigues", "--a=1", "--b=0", "--c=1", "--d=-1", "--e=1", "--q=1", "--omega=1"],
]
# csv cells quoted per RFC 4180 (a fuzzed Gram run, an irregular pair's report), and a depth no chosen suite reads
QUOTING_AND_UNREAD_CALLS = [
    ["verify", "--suite", "gram", "--preset", "charlier", "--fuzz-moment", "3", "--format", "csv"],
    ["classify", "--b=1", "--d=-1", "--q=1", "--omega=1", "--format", "csv"],
    ["verify", "--suite", "norms", "--preset", "charlier", "--n", "3"],
]
# the digest of golden_calls(); change it only with a change of output that is meant
GOLDEN_SHA256 = "d376eac2ed302f86240583d8eb8ad01cbc7431968d09bef2ebe6fc19ca8d2199"


def golden_calls() -> list[list[str]]:
    calls = []
    for i, name in enumerate(sorted(PRESETS)):
        for command in ("classify", "recurrence", "moments"):
            # each preset takes each format at a different depth, so every (format, depth) is covered
            calls += [[command, "--preset", name, f"--format={fmt}", f"--n={DEPTHS[(k + i) % 3]}"]
                      for k, fmt in enumerate(FORMATS)]
        calls.append(["verify", "--suite", "all", "--preset", name])
    calls += [["verify", "--suite", "identities"], ["verify", "--suite", "identities", "--q", "3/5", "--omega", "-1/3"]]
    for pear, (q, omega), command in PAIRS:
        flags = [f"--{k}={v}" for k, v in zip("abcde", pear)]
        calls.append([*command, *flags, f"--q={q}", f"--omega={omega}", "--n=20"])
    calls += [[command, *TALL_FLAGS, f"--format={fmt}", "--n=24"]
              for command in ("moments", "recurrence") for fmt in ("csv", "human")]
    return calls + NEGATIVE_CALLS + QUOTING_AND_UNREAD_CALLS


def test_cli_output_digest(capsys, monkeypatch):
    monkeypatch.delenv(DEPTH_ENV, raising=False)
    digest = hashlib.sha256()
    for argv in golden_calls():
        code = main(list(argv))
        captured = capsys.readouterr()
        digest.update(json.dumps([argv, code, captured.out, captured.err]).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_SHA256
