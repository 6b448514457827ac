"""The three benchmark workloads: how each op's inputs are drawn from the
seed, how the op drives hahnpoly, and how its result is judged.

Each workload is a fixed cycle of slots. A slot fixes the op's shape (depth,
frame kind, expected verdict); the seed draws the frame and the Pearson pair
inside it. So every run sees the same mix, and seeds differ only in values,
which keeps run-to-run spread low while the inputs stay fresh.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import oracle

F = Fraction
OMEGA_SMALL = (F(1), F(-1), F(2), F(-2))
OMEGA_WIDE = (F(1), F(-1), F(2), F(-2), F(3), F(-3), F(1, 2), F(-1, 2),
              F(3, 2), F(-3, 2), F(1, 3), F(-1, 3), F(2, 3), F(-2, 3))
Q_LIGHT = (F(2), F(1, 2))
Q_HEAVY = (F(2, 3), F(3, 2))
ONE, ZERO = (F(1),), (F(0),)

# Exit codes of the hahnpoly CLI (see hahnpoly.cli).
EXIT_OK, EXIT_NEGATIVE, EXIT_MISMATCH = 0, 2, 3
# Python refuses str() of an int above 4300 digits; hahnpoly renders every
# rational with str(), so deep q != 1 tables die here (a known defect).
DIGIT_LIMIT_MARK = "Exceeds the limit"


@dataclass
class Op:
    index: int
    slot: str
    depth: int
    pear: tuple
    frame: tuple
    fuzz: int | None = None
    suite_seed: int | None = None

    def pair_flags(self) -> list[str]:
        names = ("a", "b", "c", "d", "e")
        flags = [f"--{n}={v}" for n, v in zip(names, self.pear)]
        return flags + [f"--q={self.frame[0]}", f"--omega={self.frame[1]}"]


@dataclass
class Result:
    latency_s: float
    scaled_s: float = 0.0  # latency_s at the nominal machine speed (see run.Speed)
    ok: bool = True
    kind: str = ""  # "", "exception", "exit_code" or "output"
    wrong_answer: bool = False
    known_defect: bool = False
    detail: str = ""
    exit_codes: list = field(default_factory=list)
    bits: dict = field(default_factory=dict)


def _small(rng) -> Fraction:
    return F(rng.randint(-3, 3), rng.randint(1, 3))


def _nonzero(rng) -> Fraction:
    return F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def _frame(rng, qs, omegas) -> tuple:
    return (rng.choice(qs), rng.choice(omegas))


def _regular_pair(rng, frame, depth: int) -> tuple:
    """A random small-height pair, regular (and so admissible) to `depth`."""
    while True:
        pear = (_small(rng), _small(rng), _small(rng), _nonzero(rng), _small(rng))
        if oracle.classify(pear, frame, depth)[0]:
            return pear


def _inadmissible_pair(rng, frame, depth: int) -> tuple:
    """d_m = 0 for a random m < depth, by solving d q^m + a [m]_q = 0 for a."""
    m = rng.randint(1, depth - 1)
    d = _nonzero(rng)
    a = -d * frame[0] ** m / oracle.bracket(m, frame[0])
    return (a, _small(rng), _small(rng), d, _small(rng))


def _irregular_pair(rng, frame, depth: int) -> tuple:
    """Admissible, but phi(-e_n / d_2n) = 0 at a random n <= 8, by solving for e."""
    q, omega = frame
    while True:
        a, r, s, d = _nonzero(rng), _small(rng), _small(rng), _nonzero(rng)
        b, c = -a * (r + s), a * r * s
        n = rng.randint(1, 8)
        ds, _ = oracle.sequences((a, b, c, d, F(0)), frame, 2 * depth + 1)
        if any(dn == 0 for dn in ds):
            continue
        e = (-r * ds[2 * n] - (omega * ds[n] + b) * oracle.bracket(n, q)) / q**n
        return (a, b, c, d, e)


class Workload:
    """Base: a seeded, lazily extended list of ops over a fixed slot cycle."""

    name = ""
    cycle: tuple = ()
    # Whole cycles a 30-second run measures; about 30 s of ops at the seed
    # commit. The count is fixed, so two commits measure the same ops.
    cycles_per_30s = 1

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops: list[Op] = []

    def window(self, seconds: float) -> int:
        """Ops measured after the first, in whole cycles."""
        return len(self.cycle) * max(1, round(self.cycles_per_30s * seconds / 30))

    def op(self, i: int) -> Op:
        while len(self.ops) <= i:
            j = len(self.ops)
            self.ops.append(self.make(j, self.cycle[j % len(self.cycle)]))
        return self.ops[i]

    def make(self, i: int, slot) -> Op:
        raise NotImplementedError

    def run(self, op: Op, cli, verify) -> Result:
        raise NotImplementedError


def call_cli(cli, argv):
    """Run `hahnpoly <argv>` in-process; returns (exit code, stdout).

    `cli.main` is looked up on every call, so a traced run sees its wrapper.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_text(argv) -> str:
    return "hahnpoly " + " ".join(argv)


def _exception_result(latency: float, call: str, exc: BaseException) -> Result:
    msg = f"{type(exc).__name__}: {exc}"
    return Result(latency, ok=False, kind="exception",
                  known_defect=isinstance(exc, ValueError) and DIGIT_LIMIT_MARK in str(exc),
                  detail=f"{call} raised {msg[:200]}")


def _judge_exit(res: Result, argv, code: int, want: int) -> bool:
    """Record a wrong exit code; a wrong verdict (0/2/3 mixed up) is a wrong answer."""
    if code == want:
        return True
    res.ok, res.kind = False, "exit_code"
    res.wrong_answer = code in (EXIT_OK, EXIT_NEGATIVE, EXIT_MISMATCH)
    res.detail = f"{_cli_text(argv)} exited {code}, expected {want}"
    return False


def _judge_output(res: Result, problem: str | None, what: str):
    if problem is not None:
        res.ok, res.kind, res.wrong_answer = False, "output", True
        res.detail = f"{what}: {problem}"


class Generate(Workload):
    """classify + recurrence + moments for one fresh pair per op.

    Depth cycles through 20, 40 and 80 over four frame kinds; two slots per
    cycle carry an inadmissible and an irregular pair, which must exit 2.
    Each kind fixes q, so that ops of one slot cost about the same on every
    seed. At N = 80 nearly every q = 5/2 table exceeds the digit limit.
    """

    name = "generate"
    kinds = {"q1": (ONE, OMEGA_SMALL), "q1/2,w0": ((F(1, 2),), ZERO),
             "q2": ((F(2),), OMEGA_SMALL), "q5/2,w0": ((F(5, 2),), ZERO)}
    cycle = tuple(
        [(n, kind, "regular") for n in (20, 40) for kind in ("q1", "q1/2,w0", "q2", "q5/2,w0")]
        + [(40, "q1", "inadmissible"), (40, "q2", "irregular")]
        + [(80, kind, "regular") for kind in ("q1", "q1/2,w0", "q2", "q5/2,w0")]
    )
    # Four cycles put the tail rank (ten ops beyond) among the cheaper N = 80
    # slots rather than at the edge between two slot costs.
    cycles_per_30s = 4

    def make(self, i, slot):
        depth, kind, shape = slot
        frame = _frame(self.rng, *self.kinds[kind])
        draw = {"regular": _regular_pair, "inadmissible": _inadmissible_pair,
                "irregular": _irregular_pair}[shape]
        return Op(i, f"{shape}:{kind}:N{depth}", depth, draw(self.rng, frame, depth), frame)

    commands = ("classify", "recurrence", "moments")

    def run(self, op, cli, verify):
        flags = op.pair_flags() + [f"--n={op.depth}"]
        results, latency, crash = {}, 0.0, None
        for cmd in self.commands:
            t0 = time.perf_counter()
            try:
                results[cmd] = call_cli(cli, [cmd, *flags])
            except Exception as exc:  # counted as a failed op; the other calls still run
                crash = crash or ([cmd, *flags], exc)
            latency += time.perf_counter() - t0
        if crash is not None:
            return _exception_result(latency, _cli_text(crash[0]), crash[1])
        return self.judge(op, latency, results)

    def judge(self, op, latency, results) -> Result:
        regular, failure = oracle.classify(op.pear, op.frame, op.depth)
        admissible = all(dn != 0 for dn in oracle.sequences(op.pear, op.frame, op.depth - 1)[0])
        want = {"classify": EXIT_OK if regular else EXIT_NEGATIVE,
                "recurrence": EXIT_OK if regular else EXIT_NEGATIVE,
                "moments": EXIT_OK if admissible else EXIT_NEGATIVE}
        res = Result(latency, exit_codes=[results[cmd][0] for cmd in self.commands])
        for cmd in self.commands:
            if not _judge_exit(res, [cmd, *op.pair_flags(), f"--n={op.depth}"], results[cmd][0], want[cmd]):
                return res
        # classify prints its report on either verdict; the others only on success
        payload = {cmd: json.loads(out) if code == EXIT_OK or cmd == "classify" else None
                   for cmd, (code, out) in results.items()}
        _judge_output(res, oracle.check_classify(payload["classify"], regular, failure, op.depth), "classify")
        if res.ok and payload["moments"] is not None:
            _judge_output(res, oracle.check_moments(payload["moments"], op.pear, op.frame, op.depth), "moments")
            res.bits["moment_max"] = oracle.max_bits(payload["moments"]["moments"] + payload["moments"]["powerMoments"])
        if res.ok and payload["recurrence"] is not None:
            _judge_output(res, oracle.check_recurrence(payload["recurrence"], payload["moments"],
                                                       op.pear, op.frame, op.depth), "recurrence")
            res.bits["gamma_max"] = oracle.max_bits(payload["recurrence"]["gamma"])
            res.bits["poly_max"] = oracle.max_bits(payload["recurrence"]["polynomials"][-1])
        return res


class Gram(Workload):
    """`verify --suite gram` at N = 12 or 20 on a fresh pair and frame.

    Every fourth op corrupts one moment inside the residual window and must
    exit 3. Frames are not reused while the pool lasts, so caches stay cold.
    """

    name = "gram"
    kinds = {"q1": (ONE, OMEGA_WIDE), "qlight": (Q_LIGHT, OMEGA_WIDE + ZERO), "qheavy": (Q_HEAVY, OMEGA_WIDE)}
    cycle = tuple(
        (20 if i % 4 == 3 else 12, ("q1", "qlight", "qheavy")[i % 3], i % 4 == 1) for i in range(12)
    )
    cycles_per_30s = 3

    def __init__(self, seed):
        super().__init__(seed)
        self.used = set()

    def make(self, i, slot):
        depth, kind, fuzzed = slot
        for _ in range(50):
            frame = _frame(self.rng, *self.kinds[kind])
            if frame not in self.used:
                break
        self.used.add(frame)
        fuzz = self.rng.randint(1, 20) if fuzzed else None
        return Op(i, f"{'fuzz' if fuzzed else 'clean'}:{kind}:N{depth}", depth,
                  _regular_pair(self.rng, frame, depth), frame, fuzz=fuzz)

    def run(self, op, cli, verify):
        argv = ["verify", "--suite", "gram", f"--n={op.depth}", *op.pair_flags()]
        if op.fuzz is not None:
            argv.append(f"--fuzz-moment={op.fuzz}")
        t0 = time.perf_counter()
        try:
            code, out = call_cli(cli, argv)
        except Exception as exc:
            return _exception_result(time.perf_counter() - t0, _cli_text(argv), exc)
        res = Result(time.perf_counter() - t0, exit_codes=[code])
        # N >= 12 here, so the d-scan of classify covers the whole moment table
        if not oracle.classify(op.pear, op.frame, op.depth)[0]:
            want = EXIT_NEGATIVE
        else:
            want = EXIT_MISMATCH if op.fuzz is not None else EXIT_OK
        if _judge_exit(res, argv, code, want):
            _judge_output(res, oracle.check_verify(json.loads(out), oracle.GRAM_CHECKS, op.fuzz is not None),
                          "verify --suite gram")
        return res


class Calculus(Workload):
    """identities_suite over the 14 default frames, then `verify --suite
    rodrigues --test-degree 12` on a random pair over one of those frames.

    The frame set is fixed, so the caches are warm after the first cycle.
    """

    name = "calculus"
    cycle = tuple(range(14))
    cycles_per_30s = 2

    def __init__(self, seed, frames):
        super().__init__(seed)
        self.frames = frames

    def make(self, i, slot):
        frame = self.frames[slot]
        return Op(i, f"rodrigues:frame{slot}", 20, _regular_pair(self.rng, frame, 20), frame,
                  suite_seed=self.rng.randrange(2**32))

    def run(self, op, cli, verify):
        argv = ["verify", "--suite", "rodrigues", "--test-degree=12", *op.pair_flags()]
        t0 = time.perf_counter()
        try:
            checks = verify.identities_suite(frames=verify.default_frames(), cases=14, seed=op.suite_seed)
        except Exception as exc:
            return _exception_result(time.perf_counter() - t0, f"identities_suite(seed={op.suite_seed})", exc)
        try:
            code, out = call_cli(cli, argv)
        except Exception as exc:
            return _exception_result(time.perf_counter() - t0, _cli_text(argv), exc)
        res = Result(time.perf_counter() - t0, exit_codes=[code])
        _judge_output(res, oracle.check_identities(checks), "identities_suite")
        if res.ok and _judge_exit(res, argv, code, EXIT_OK):
            _judge_output(res, oracle.check_verify(json.loads(out), oracle.RODRIGUES_CHECKS, False),
                          "verify --suite rodrigues")
        return res


def build(name: str, seed: int, verify) -> Workload:
    if name == "calculus":
        return Calculus(seed, [(f.q, f.omega) for f in verify.default_frames()])
    return {"generate": Generate, "gram": Gram}[name](seed)
