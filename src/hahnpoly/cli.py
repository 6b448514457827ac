"""Command-line surface: `hahnpoly <command> [--flag value ...]`, read by _parse from the table COMMANDS.

Exit codes: 0 success, 1 invalid input, 2 classification negative (admissibility/regularity failure),
3 verification mismatch, 4 any other error a command raises (today only Python's 4300-digit str limit, while
rendering), printed as {"error": "<type>: <message>"} on stderr with stdout empty, 141 stdout closed by its reader
before the output was written (128 + SIGPIPE). Rationals are always rendered as strings like "3/7", never floats.
A flag is read only by its exact long name, as `--flag value` or `--flag=value`; no prefix is read (`--om` is
invalid input, not `--omega`). The token after a flag is its value, verbatim, so `--y0 -1/3` reads -1/3. A repeated
flag keeps its last value. Each value (`--preset` too) is parsed as it is read, so a malformed one is reported
before the rules on which flags may be combined. A rational flag is `p` or `p/q` in decimal digits with an optional
sign, the grammar of qnum.as_scalar; an empty value, decimals, exponents and any other form are invalid input (exit
1). An integer flag (`--n`, `--test-degree`, `--fuzz-moment`) and `$HAHNPOLY_DEPTH` are `[+-]?[0-9]+`: ASCII digits
with an optional sign, so `1_2`, ` 12` and digits of other scripts are invalid input (exit 1) too.
`verify --suite` takes a name from verify.SUITES, or `all` for each of them in that order; a check passes exactly
when its detail is empty. `identities` runs first, on the given frame or on the 14 verify.default_frames(); then each
pair suite of PAIR_SUITES runs on the given pair, its checks named `pair:<check>` (`<preset>:<check>` with --preset),
or on every preset in turn when no pair is given. `verify --fuzz-moment` and `verify --y0` are read only by the gram
suite, and `verify --test-degree` (0..MAX_DEPTH, default 8) only by the rodrigues suite: with a --suite that does not
run the suite that reads it (`all` runs both), such a flag is invalid input. `classify` reads no moment table, so
`classify --y0` is invalid input too.
At --n N a verify suite exits 2 only on a failure inside its window: gram y_0..y_max(2N,21) and the recurrence to N;
rodrigues, at n_max = min(5, N) and without regularity, y_0..y_D with D = verify.moment_depth_for(n_max) and the
recurrence to max(n_max - 1, 0); norms y_0..y_16 and P_0..P_8, its derived-pair recurrences to 7 - k (k <= 3)
reading no d_m past d_15; identities no pair.
The depth, `--n` or `$HAHNPOLY_DEPTH`, lies in 0..MAX_DEPTH (10 000); any other value is invalid input, rejected
before any table is built.
Each command builds only the format it prints, and builds all of its text before the first write, in every format,
so a failure while rendering (Python's 4300-digit str limit, exit 4) leaves stdout empty. `recurrence --format json`
writes its text straight from the integer rows of P_0..P_{N+1}, byte-identical to json.dumps(payload, indent=2).
csv and human never build that text, so `recurrence --format csv` never expands a P_n, and `--format human` expands
only the P_0..P_4 it prints. The other commands print json.dumps of their payload.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from functools import partial
from math import gcd
from types import SimpleNamespace
from typing import Iterable, Iterator

from .qnum import AdmissibilityError, HahnFrame, PearsonPair, as_scalar
from .functional import DEFAULT_DEPTH, solve_moments
from .classical import PRESETS, Preset, RecurrenceTable, RegularityError, check_regular, get_preset, recurrence
from .verify import SUITES, Check, SuiteArgumentError, gram_suite, identities_suite, norms_suite, rodrigues_suite

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NEGATIVE = 2
EXIT_MISMATCH = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141

DEPTH_ENV = "HAHNPOLY_DEPTH"
# the largest depth a command accepts; a table that deep already takes minutes at q = 1
MAX_DEPTH = 10_000
# an integer flag is decimal digits with an optional sign; int() alone also reads 1_2, ' 12' and other scripts' digits
_INTEGER = re.compile(r"[+-]?[0-9]+")


class InputError(Exception):
    pass


def _parse_rational(text: str, field: str) -> Fraction:
    """The type of the rational flag --field; its InputError carries the whole message."""
    try:  # as_scalar also rejects a zero denominator, and more digits than int() reads
        return as_scalar(text)
    except ValueError:
        raise InputError(f"{field}: {text!r} is not a rational (expected 'p' or 'p/q')") from None


def _parse_preset(name: str) -> Preset:
    """The type of --preset; its InputError carries get_preset's message."""
    try:
        return get_preset(name)
    except KeyError as exc:
        raise InputError(exc.args[0]) from None


def _parse_int(text: str) -> int:
    """The type of the integer flags; _parse reports the ValueError as `argument --n: invalid int value: 'x'`."""
    if _INTEGER.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() reads
            pass
    raise ValueError(f"invalid int value: {text!r}")


def _depth(args, default: int) -> int:
    """The depth: --n, else $HAHNPOLY_DEPTH, else the command's default; in 0..MAX_DEPTH."""
    depth, raw = args.n, os.environ.get(DEPTH_ENV)
    if depth is None:
        try:
            depth = default if raw is None else _parse_int(raw)
        except ValueError:
            raise InputError(f"{DEPTH_ENV}: {raw!r} is not an integer") from None
    if not 0 <= depth <= MAX_DEPTH:
        raise InputError(f"depth (--n or ${DEPTH_ENV}) must be in 0..{MAX_DEPTH}, got {depth}")
    return depth


def _resolve_frame(args) -> HahnFrame:
    if args.q is None or args.omega is None:
        raise InputError("an explicit frame needs --q and --omega (or use --preset)")
    try:
        return HahnFrame(args.q, args.omega)
    except ValueError as exc:
        raise InputError(str(exc))


def _resolve_pair(args) -> tuple[PearsonPair, HahnFrame]:
    if args.preset is not None:
        if any(getattr(args, f) is not None for f in ("a", "b", "c", "d", "e", "q", "omega")):
            raise InputError("--preset is mutually exclusive with explicit pair/frame flags")
        return args.preset.pear, args.preset.frame
    frame = _resolve_frame(args)
    try:  # an absent coefficient is 0
        return PearsonPair(*(getattr(args, f) or 0 for f in ("a", "b", "c", "d", "e"))), frame
    except ValueError as exc:
        raise InputError(str(exc))


def _dumped(payload):
    """The JSON text of payload(), as chunks for _emit."""
    return lambda: [json.dumps(payload(), indent=2), "\n"]


def _json_array(items: Iterable[str], indent: str) -> str:
    """A nonempty JSON array of already-encoded items, laid out as json.dumps(indent=2) lays it out at this indent."""
    body = f",\n{indent}  ".join(items)
    return f"[\n{indent}  {body}\n{indent}]"


def _quoted_fracs(nums: Iterable[int], den: int) -> Iterator[str]:
    """Each n / den as the quoted str of its Fraction, from integers: one gcd and one f-string each."""
    for n in nums:
        g = gcd(n, den)
        yield f'"{n // g}"' if g == den else f'"{n // g}/{den // g}"'


def _recurrence_json(table: RecurrenceTable) -> list[str]:
    """The one route to the `recurrence --format json` text: json.dumps(payload, indent=2) and a newline.

    One chunk per P_n; each coefficient is rendered straight from the integer row (nums, den) of its P_n,
    with no Fraction, no payload tree and no json.dumps string in between.
    """
    chunks = [
        '{\n  "beta": ', _json_array((f'"{b!s}"' for b in table.beta), "  "),
        ',\n  "gamma": ', _json_array((f'"{g!s}"' for g in table.gamma), "  "),
        ',\n  "polynomials": [',
    ]
    for n, p in enumerate(table.polys):
        chunks.append(",\n    " if n else "\n    ")
        chunks.append(_json_array(_quoted_fracs(p.nums, p.den), "    "))
    chunks.append("\n  ]\n}\n")
    return chunks


def _emit(fmt: str, json_chunks, human_lines, csv_rows):
    """Write the chosen format, built in full first: a failure to render writes nothing."""
    if fmt == "json":
        chunks = json_chunks()
    elif fmt == "csv":
        chunks = [",".join(str(cell) for cell in row) + "\n" for row in csv_rows()]
    else:
        chunks = [line + "\n" for line in human_lines()]
    sys.stdout.writelines(chunks)


def cmd_classify(args) -> int:
    """regularity report for a pair"""
    pear, frame = _resolve_pair(args)
    depth = _depth(args, 12)
    if args.y0 is not None:
        raise InputError("--y0: classify reads no moment table; recurrence, moments and verify --suite gram do")
    report = check_regular(pear, frame, depth)

    def human():
        if report.regular:
            yield f"regular up to N={depth} (d-indices checked through {report.checked_d_through})"
        else:
            index, condition = report.first_regularity_failure
            yield f"not regular: {condition} at n={index}"
        yield f"psi has degree one: {report.psi_degree_one}"

    def csv_rows():
        yield ("field", "value")
        for k, v in report.to_json_dict().items():
            yield (k, json.dumps(v) if isinstance(v, dict) else v)

    _emit(args.format, _dumped(report.to_json_dict), human, csv_rows)
    return EXIT_OK if report.regular else EXIT_NEGATIVE


def cmd_recurrence(args) -> int:
    """beta_n, gamma_n and the monic polynomials"""
    pear, frame = _resolve_pair(args)
    depth = _depth(args, 12)
    y0 = args.y0 if args.y0 is not None else Fraction(1)
    if y0 == 0:  # the paper's u is nonzero
        print(json.dumps({"error": "y0 = 0: the zero functional has no orthogonal sequence"}), file=sys.stderr)
        return EXIT_NEGATIVE
    try:
        table = recurrence(pear, frame, depth, y0)
    except RegularityError as exc:
        print(json.dumps({"error": str(exc), "report": exc.report.to_json_dict()}), file=sys.stderr)
        return EXIT_NEGATIVE

    def human():
        for n in range(depth + 1):
            gamma = table.gamma[n] if n else "-"
            yield f"n={n}: beta={table.beta[n]} gamma={gamma}"
        top = min(depth, 3)  # P_0..P_4 need beta_0..beta_3 and gamma_0..gamma_3 only
        for n, p in enumerate(RecurrenceTable(table.beta[: top + 1], table.gamma[: top + 1]).polys):
            yield f"P_{n} = {p!r}"

    def csv_rows():
        yield ("n", "beta", "gamma")
        for n in range(depth + 1):
            yield (n, table.beta[n], table.gamma[n] if n else "")

    _emit(args.format, lambda: _recurrence_json(table), human, csv_rows)
    return EXIT_OK


def cmd_moments(args) -> int:
    """Y-basis and power-basis moment tables"""
    pear, frame = _resolve_pair(args)
    depth = _depth(args, DEFAULT_DEPTH)
    y0 = args.y0 if args.y0 is not None else Fraction(1)
    try:
        u = solve_moments(pear, frame, y0, depth)
    except AdmissibilityError as exc:
        print(json.dumps({"error": str(exc), "index": exc.index}), file=sys.stderr)
        return EXIT_NEGATIVE
    power = u.power_moments()

    def payload():
        return {**u.to_json_dict(), "powerMoments": [str(m) for m in power]}

    def human():
        for n, (y, p) in enumerate(zip(u.moments, power)):
            yield f"n={n}: y={y} power={p}"

    def csv_rows():
        yield ("n", "y_moment", "power_moment")
        for n, (y, p) in enumerate(zip(u.moments, power)):
            yield (n, y, p)

    _emit(args.format, _dumped(payload), human, csv_rows)
    return EXIT_OK


# the pair suites in SUITES order, each run on (args, pear, frame) with args.n the depth, and the flags only it reads;
# each lambda reads its suite as a global when it runs, so a rebinding of the suite is seen
PAIR_SUITES = {
    "gram": (lambda args, pear, frame: gram_suite(
        pear, frame, args.n, Fraction(1) if args.y0 is None else args.y0, args.fuzz_moment), ("--fuzz-moment", "--y0")),
    # the Rodrigues formula holds without regularity; only admissibility is needed
    "rodrigues": (lambda args, pear, frame: rodrigues_suite(
        pear, frame, min(5, args.n), 8 if args.test_degree is None else args.test_degree, require_regular=False),
        ("--test-degree",)),
    "norms": (lambda args, pear, frame: norms_suite(pear, frame), ()),
}


def cmd_verify(args) -> int:
    """run exact verification suites"""
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    pear = frame = None
    pair_flags = any(getattr(args, f) is not None for f in ("a", "b", "c", "d", "e"))
    frame_flags = args.q is not None or args.omega is not None
    if suites == ["identities"] and args.preset is None and not pair_flags:
        # the identities suite needs only a frame; a pair of all zeros would be rejected
        if frame_flags:
            frame = _resolve_frame(args)
    elif args.preset is not None or pair_flags or frame_flags:
        pear, frame = _resolve_pair(args)
    args.n = _depth(args, 8)  # the resolved depth, as PAIR_SUITES reads it
    if args.test_degree is not None and not 0 <= args.test_degree <= MAX_DEPTH:
        raise InputError(f"--test-degree must be in 0..{MAX_DEPTH}, got {args.test_degree}")
    for suite, (_, flags) in PAIR_SUITES.items():
        unread = [f for f in flags if getattr(args, f[2:].replace("-", "_")) is not None]
        if unread and suite not in suites:
            raise InputError(f"{' and '.join(unread)}: read only by the {suite} suite, "
                             f"which --suite {args.suite} does not run")
    runs = [run for suite, (run, _) in PAIR_SUITES.items() if suite in suites]
    label = args.preset.name if args.preset is not None else "pair"
    targets = [(pear, frame, label)] if pear is not None else [(p.pear, p.frame, p.name) for p in PRESETS.values()]
    try:
        checks = identities_suite([frame] if frame is not None else None) if "identities" in suites else []
        for pp, fr, name in targets:
            for run in runs:
                checks += [Check(f"{name}:{c.name}", c.detail) for c in run(args, pp, fr)]
    except SuiteArgumentError as exc:
        raise InputError(str(exc))
    except (AdmissibilityError, RegularityError) as exc:
        error = {"error": str(exc)}
        if getattr(exc, "moment_degree", None) is not None:
            error["momentDegree"] = exc.moment_degree  # a suite's table can read past classify's d-scan
        print(json.dumps(error), file=sys.stderr)
        return EXIT_NEGATIVE
    passed = all(c.passed for c in checks)

    def payload():
        return {"suites": suites, "passed": passed, "checks": [c.to_json_dict() for c in checks]}

    def human():
        for c in checks:
            yield f"{'PASS' if c.passed else 'FAIL'} {c.name}" + (f"  ({c.detail})" if c.detail else "")
        yield f"{sum(c.passed for c in checks)}/{len(checks)} checks passed"

    def csv_rows():
        yield ("name", "passed", "detail")
        for c in checks:
            yield (c.name, c.passed, c.detail)

    _emit(args.format, _dumped(payload), human, csv_rows)
    return EXIT_OK if passed else EXIT_MISMATCH


def cmd_presets(args) -> int:
    """list the shipped preset catalog"""
    def payload():
        return {
            name: {
                "a": str(p.pear.a), "b": str(p.pear.b), "c": str(p.pear.c),
                "d": str(p.pear.d), "e": str(p.pear.e),
                "q": str(p.frame.q), "omega": str(p.frame.omega),
                "description": p.description,
            }
            for name, p in PRESETS.items()
        }

    def human():
        for name, p in PRESETS.items():
            yield f"{name}: {p.description}"

    def csv_rows():
        yield ("name", "a", "b", "c", "d", "e", "q", "omega")
        for name, p in PRESETS.items():
            yield (name, p.pear.a, p.pear.b, p.pear.c, p.pear.d, p.pear.e, p.frame.q, p.frame.omega)

    _emit(args.format, _dumped(payload), human, csv_rows)
    return EXIT_OK


def _parse_choice(names: tuple[str, ...], text: str) -> str:
    """The type of --format and --suite: one of names, spelt in full."""
    if text not in names:
        raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(map(repr, names))})")
    return text


_FORMAT = partial(_parse_choice, ("json", "csv", "human"))
_PAIR_FLAGS = {
    **{f"--{f}": partial(_parse_rational, field=f) for f in ("a", "b", "c", "d", "e", "q", "omega", "y0")},
    "--preset": _parse_preset,
    "--n": _parse_int,
    "--format": _FORMAT,
}
# each command: its handler and {flag: value parser}; an absent flag is None, save the two below
COMMANDS = {
    "classify": (cmd_classify, _PAIR_FLAGS),
    "recurrence": (cmd_recurrence, _PAIR_FLAGS),
    "moments": (cmd_moments, _PAIR_FLAGS),
    "verify": (cmd_verify, {**_PAIR_FLAGS, "--suite": partial(_parse_choice, (*SUITES, "all")),
                            "--test-degree": _parse_int, "--fuzz-moment": _parse_int}),
    "presets": (cmd_presets, {"--format": _FORMAT}),
}
_DEFAULTS = {"--format": "json", "--suite": "all"}


def _help(command: str | None):
    """Print the usage text of -h and --help, built from COMMANDS, and exit 0."""
    if command is None:
        lines = (f"  {name:<11} {handler.__doc__ or ''}" for name, (handler, _) in COMMANDS.items())
        text = f"usage: hahnpoly {{{','.join(COMMANDS)}}} ...\n\n" + "\n".join(lines)
    else:
        handler, flags = COMMANDS[command]
        options = (f"[{flag} {{{','.join(parse.args[0])}}}]" if getattr(parse, "func", None) is _parse_choice
                   else f"[{flag} {flag[2:].upper()}]" for flag, parse in flags.items())
        text = f"usage: hahnpoly {command} [-h] {' '.join(options)}\n\n{handler.__doc__ or ''}"
    print(text)
    raise SystemExit(0)


def _parse(argv: list[str]):
    """(handler, args) for argv: a command, then flags from its COMMANDS entry, in the grammar the module states.

    Each value is parsed as it is read; -h or --help prints the usage text.
    """
    command, *tokens = argv or [None]
    if command in ("-h", "--help"):
        _help(None)
    if command not in COMMANDS:
        raise InputError("hahnpoly: the following arguments are required: command" if command is None else
                         f"hahnpoly: argument command: invalid choice: {command!r} "
                         f"(choose from {', '.join(map(repr, COMMANDS))})")
    handler, flags = COMMANDS[command]
    values = {flag: _DEFAULTS.get(flag) for flag in flags}
    tokens = iter(tokens)
    for token in tokens:
        if token in ("-h", "--help"):
            _help(command)
        flag, eq, text = token.partition("=")
        if flag not in flags:
            raise InputError(f"hahnpoly {command}: unrecognized arguments: {token}")
        if not eq and (text := next(tokens, None)) is None:
            raise InputError(f"hahnpoly {command}: argument {flag}: expected one argument")
        try:
            values[flag] = flags[flag](text)
        except ValueError as exc:  # an InputError (a rational's or preset's message) passes as raised
            raise InputError(f"hahnpoly {command}: argument {flag}: {exc}") from None
    # --test-degree is read as args.test_degree
    return handler, SimpleNamespace(**{flag[2:].replace("-", "_"): v for flag, v in values.items()})


def main(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        code = handler(args)
        sys.stdout.flush()
        return code
    except InputError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except Exception as exc:
        # every format is built before the first write, so stdout is still empty here
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
