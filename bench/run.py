"""hahnpoly benchmark: one command, three workloads, exact-result checks.

Run from the root of a source checkout:

    python3 bench/run.py --workload generate --seed 1 --seconds 30 --trace 0

Ops drive `hahnpoly.cli.main` in-process (or a library entry point the CLI
cannot express) as a closed loop with one client on one thread. Each op is
timed alone, and the time is scaled to a nominal machine speed (see Speed);
its result is checked after the clock stops. The last stdout line is the
result object; the line before it is a report with the workload's
properties, the unscaled times and every failure. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("generate", "gram", "calculus")
# Fresh interpreters started per run, each timing set-up and a first op.
PROBES = 7
# Stop starting ops after this long, so a run ends within three minutes
# even if the program under test has become much slower.
WALL_LIMIT_S = 140.0
TRACE_OUT = ".bench_out"
# reference_work() takes this long on an unloaded 2-core Xeon under Python
# 3.11; reported times are scaled to that speed (see Speed).
REF_NOMINAL_S = 0.002
# Share of each op's time spent re-measuring the reference after it.
REF_SHARE = 0.1


def reference_work() -> float:
    """Seconds taken by a fixed stretch of Fraction arithmetic, as a speed probe."""
    t0 = time.perf_counter()
    x = Fraction(1)
    for i in range(1, 400):
        x = x * Fraction(i, i + 1) + Fraction(1, i)
    return time.perf_counter() - t0


class Speed:
    """Machine speed, from a reference computation timed between ops.

    The machine is shared: over tens of seconds its speed swings by up to
    40%, and the same work then takes that much longer. The reference is
    plain Fraction arithmetic that does not touch hahnpoly, timed right
    before and after each op, so scaling an op's time by nominal/reference
    cancels the swing and leaves any change in hahnpoly itself.
    """

    def __init__(self):
        self.history: list[float] = []
        self.last = self.sample(0.0)

    def sample(self, busy_s: float) -> float:
        """Median reference time over a burst of REF_SHARE * busy_s (three calls at least)."""
        times = []
        while len(times) < 3 or sum(times) < REF_SHARE * busy_s:
            times.append(reference_work())
        self.history.append(statistics.median(times))
        return self.history[-1]

    def scale(self, elapsed: float) -> float:
        """`elapsed` at nominal speed, from the reference on both sides of it."""
        before, self.last = self.last, self.sample(elapsed)
        return elapsed * REF_NOMINAL_S / ((before + self.last) / 2)


def load_program(root: Path):
    """Import hahnpoly from root/src, refusing any other copy."""
    src = root / "src"
    if not (src / "hahnpoly" / "__init__.py").is_file():
        raise SystemExit(f"bench: no hahnpoly sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import hahnpoly
    import hahnpoly.cli
    import hahnpoly.verify

    if Path(hahnpoly.__file__).resolve().parent != (src / "hahnpoly").resolve():
        raise SystemExit(f"bench: imported hahnpoly from {hahnpoly.__file__}, not {src}")
    return hahnpoly.cli, hahnpoly.verify


def probe(args) -> int:
    """Child of a set-up probe: get ready, say so, then run the first op."""
    cli, verify = load_program(Path.cwd())
    import workloads

    work = workloads.build(args.workload, args.seed, verify)
    op = work.op(0)
    print("ready", flush=True)
    speed = Speed()
    res = work.run(op, cli, verify)
    print(json.dumps({"latency_s": res.latency_s, "scaled_s": speed.scale(res.latency_s), "ok": res.ok,
                      "wrong_answer": res.wrong_answer, "failure": failure_record(op, res)}), flush=True)
    return 0


def run_probes(args, speed: Speed):
    """Set-up times (raw, scaled) and first ops, each from a fresh interpreter.

    Probe k uses seed * PROBES + k, so the first-op sample spans
    several inputs of the same slot instead of repeating one. Set-up is
    scaled by the reference measured just before the probe starts.
    """
    setups, firsts = [], []
    for k in range(PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed * PROBES + k), "--probe"]
        speed.last = speed.sample(0.0)
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - t0
                setups.append((elapsed, elapsed * REF_NOMINAL_S / speed.last))
                out, _ = child.communicate(timeout=120)
            except BaseException:
                child.kill()
                child.wait()
                raise
        if line.strip() != "ready" or child.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed (exit {child.returncode})")
        firsts.append(json.loads(out.strip().splitlines()[-1]))
    return setups, firsts


def failure_record(op, res):
    if res.ok:
        return None
    return {"op": op.index, "slot": op.slot, "kind": res.kind, "known_defect": res.known_defect,
            "wrong_answer": res.wrong_answer, "detail": res.detail}


def run_ops(work, indices, cli, verify, speed, tracer=None, deadline=None):
    """Run ops in order; returns [(op, result)]. Inputs are drawn before timing."""
    done = []
    for i in indices:
        if deadline is not None and time.perf_counter() > deadline:
            break
        op = work.op(i)
        res = tracer.call(work.run, op, cli, verify) if tracer else work.run(op, cli, verify)
        res.scaled_s = speed.scale(res.latency_s)
        done.append((op, res))
    return done


def tail(latencies):
    """(value, percentile): the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - 11, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def environment(root: Path, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((ln.split(":", 1)[1].strip() for ln in info if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": git_commit(root), "seed": seed}


def git_commit(root: Path):
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def properties(done) -> dict:
    """Workload properties: frame reuse, exit-code shares, bit heights."""
    seen, reused = set(), 0
    for op, _ in done:
        reused += op.frame in seen
        seen.add(op.frame)
    codes = Counter(c for _, res in done for c in res.exit_codes)
    total = sum(codes.values()) or 1
    bits = defaultdict(dict)
    for op, res in done:
        for key, value in res.bits.items():
            bits[f"bits.{key}"][f"N{op.depth}"] = max(value, bits[f"bits.{key}"].get(f"N{op.depth}", 0))
    return {"frames.reuse_share": reused / len(done),
            "exit_code_shares": {str(k): v / total for k, v in sorted(codes.items())},
            **bits}


def summarize(done):
    failures = [failure_record(op, res) for op, res in done if not res.ok]
    return {
        "attempted": len(done),
        "failed": len(failures),
        "correct": not any(f["wrong_answer"] for f in failures),
        "failures": failures,
    }


def measure(args) -> int:
    root = Path.cwd()
    cli, verify = load_program(root)
    import tracing
    import workloads

    if args.trace:
        return measure_traced(args, root, cli, verify, tracing, workloads)

    started = time.perf_counter()
    speed = Speed()
    setups, firsts = run_probes(args, speed)
    work = workloads.build(args.workload, args.seed, verify)
    size = work.window(args.seconds)
    first = run_ops(work, [0], cli, verify, speed)
    done = run_ops(work, range(1, size + 1), cli, verify, speed, deadline=started + WALL_LIMIT_S)
    summary = summarize(first + done)
    probe_failures = [f["failure"] for f in firsts if f["failure"]]
    summary["attempted"] += len(firsts)
    summary["failed"] += len(probe_failures)
    summary["correct"] = summary["correct"] and not any(f["wrong_answer"] for f in firsts)
    ok = sum(res.ok for _, res in done)

    def timings(setup, first_op, latencies):
        tail_s, tail_pct = tail(latencies)
        return {
            "setup_s": (statistics.median(setup), "s"),
            "first_op_s": (statistics.median(first_op), "s"),
            "throughput_ops_s": (ok / sum(latencies), "1/s"),
            "latency_p50_s": (statistics.median(latencies), "s"),
            "latency_tail_s": (tail_s, "s"),
        }, tail_pct

    metrics, tail_pct = timings([s for _, s in setups], [f["scaled_s"] for f in firsts] + [first[0][1].scaled_s],
                                [res.scaled_s for _, res in done])
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    raw, _ = timings([r for r, _ in setups], [f["latency_s"] for f in firsts] + [first[0][1].latency_s],
                     [res.latency_s for _, res in done])
    report = {
        "workload": args.workload, "seconds": args.seconds, "window_ops": size, "samples": len(done),
        "truncated": len(done) < size, "latency_tail_percentile": tail_pct,
        "error_rate": summary["failed"] / summary["attempted"],
        "unscaled": {name: value for name, (value, _) in raw.items()},
        "reference_s": {"nominal": REF_NOMINAL_S, "median": statistics.median(speed.history)},
        "setup_samples_s": [s for _, s in setups],
        "failures": summary["failures"] + probe_failures,
        **properties(first + done),
        "env": environment(root, args.seed),
    }
    emit(report, summary, metrics)
    return 0


def measure_traced(args, root, cli, verify, tracing, workloads) -> int:
    """Per-layer run: the same ops untraced, then traced, from cold caches."""
    work = workloads.build(args.workload, args.seed, verify)
    ops = range(work.window(args.seconds / 2) + 1)
    speed = Speed()
    tracing.clear_caches()
    t0 = time.perf_counter()
    plain = run_ops(work, ops, cli, verify, speed, deadline=t0 + WALL_LIMIT_S / 2)
    tracing.clear_caches()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_ops(work, ops[: len(plain)], cli, verify, speed, tracer=tracer,
                         deadline=time.perf_counter() + WALL_LIMIT_S / 2)
    finally:
        tracer.uninstall()
    plain_s = sum(res.scaled_s for _, res in plain[: len(traced)])
    traced_s = sum(res.scaled_s for _, res in traced)

    spans = tracer.summary()
    layers, modules = {}, dict.fromkeys(tracing.WRAPPED, 0.0)
    for mod_name, functions in tracing.WRAPPED.items():
        for spec in functions:
            calls, self_s = spans.get(f"{mod_name}.{spec}", (0, 0.0))
            layers[f"{mod_name}.{spec}"] = {"calls": calls, "self_s": self_s}
            modules[mod_name] += self_s
    metrics = {}
    for label in PER_LAYER_CALLS:
        metrics[f"{label}.calls"] = (layers[label]["calls"], "count")
    for label in PER_LAYER_SELF:
        metrics[f"{label}.self_s"] = (layers[label]["self_s"] if label in layers else modules[label], "s")
    metrics["tracing_overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")

    out = root / TRACE_OUT
    out.mkdir(exist_ok=True)
    span_file = out / f"spans-{args.workload}-seed{args.seed}.bin"
    tracer.dump(span_file)
    summary = summarize(plain + traced)
    report = {
        "workload": args.workload, "seconds": args.seconds, "traced_ops": len(traced),
        "untraced_ops_s": plain_s, "traced_ops_s": traced_s, "spans": len(tracer.start),
        "span_file": str(span_file.relative_to(root)),
        "functions": layers, "modules_self_s": dict(modules),
        "failures": summary["failures"], "env": environment(root, args.seed),
    }
    emit(report, summary, metrics)
    return 0


# Per-layer metrics in the result line. Self times are listed only for the
# functions and modules that do work on every workload, so that no listed
# time is identically zero; the report line carries all of them.
PER_LAYER_CALLS = (
    "qnum.q_bracket", "qnum.d_n", "qnum.e_n", "qnum.q_binomial", "qnum.rodrigues_constant",
    "poly.Poly.__mul__", "poly.Poly.compose_affine", "poly.Poly.divmod", "poly.op_D", "poly.op_L",
    "poly.to_y_basis", "poly.y_basis",
    "functional.pair", "functional.left_multiply", "functional.dist_D", "functional.dist_D_star",
    "functional.dist_L", "functional.dist_L_star", "functional.solve_moments",
    "functional.MomentFunctional.power_moments", "functional.pearson_residual", "functional.derived_functional",
    "classical.check_regular", "classical.recurrence", "classical.gram_matrix",
    "rodrigues.rodrigues_rhs", "rodrigues.phi_product", "rodrigues.verify_rodrigues",
    "verify.identities_suite", "verify.gram_suite", "verify.rodrigues_suite",
    "cli.main",
)
PER_LAYER_SELF = (
    "qnum.q_bracket", "qnum.d_n", "qnum.e_n",
    "poly.Poly.__mul__", "poly.to_y_basis", "poly.y_basis",
    "functional.pair", "functional.solve_moments",
    "classical.check_regular", "classical.recurrence",
    "cli.main",
    "qnum", "poly", "functional", "classical", "cli",
)


def emit(report, summary, metrics):
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def headroom() -> int:
    """Time the library calls of acceptance criteria 1, 2, 3 and 5 against their limits."""
    load_program(Path.cwd())
    from hahnpoly.classical import PRESETS, gram_matrix, recurrence
    from hahnpoly.functional import MomentFunctional, pearson_residual, solve_moments
    from hahnpoly.qnum import HahnFrame, PearsonPair
    from hahnpoly.verify import identities_suite, rodrigues_suite

    def criterion_2():
        for p in PRESETS.values():
            u = solve_moments(p.pear, p.frame, 1, 24)
            pearson_residual(p.pear, u, 20)
            for k in range(21):
                moments = list(u.moments)
                moments[k] += 1
                pearson_residual(p.pear, MomentFunctional(p.frame, tuple(moments)), 20)

    def criterion_3():
        for p in PRESETS.values():
            table = recurrence(p.pear, p.frame, 10)
            gram_matrix(solve_moments(p.pear, p.frame, 1, 22), table.polys, 10)

    def criterion_5():
        for p in PRESETS.values():
            rodrigues_suite(p.pear, p.frame, n_max=5, test_degree=8)
        irregular = PearsonPair(Fraction(0), Fraction(1), Fraction(0), Fraction(-2), Fraction(1))
        rodrigues_suite(irregular, HahnFrame(Fraction(1), Fraction(1)), n_max=5, test_degree=8,
                        require_regular=False)

    cases = {1: (lambda: identities_suite(cases=200), 10.0), 2: (criterion_2, 5.0),
             3: (criterion_3, 10.0), 5: (criterion_5, 60.0)}
    rows = {}
    for number, (fn, limit) in cases.items():
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        rows[f"criterion_{number}"] = {"elapsed_s": elapsed, "limit_s": limit, "headroom": limit / elapsed}
    print(json.dumps({"headroom": rows, "env": environment(Path.cwd(), None)}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--headroom", action="store_true",
                        help="time the acceptance-criterion calls against their limits instead")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.headroom:
        return headroom()
    if args.workload is None:
        parser.error("--workload is required")
    return probe(args) if args.probe else measure(args)


if __name__ == "__main__":
    sys.exit(main())
