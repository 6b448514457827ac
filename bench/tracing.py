"""Span tracing of hahnpoly's public functions, installed from outside.

Each wrapped call records one span (function, parent span, start, end) in
flat arrays kept in memory; `dump` writes them out once the run is over.
A function's self time is its spans' duration minus the time covered by
their direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

# Per module, the functions the traced run wraps; "Class.method" is wrapped
# on its class.
WRAPPED = {
    "qnum": ("q_bracket", "d_n", "e_n", "q_binomial", "rodrigues_constant"),
    "poly": ("Poly.__mul__", "Poly.compose_affine", "Poly.divmod", "op_D", "op_L", "to_y_basis", "y_basis"),
    "functional": ("pair", "left_multiply", "dist_D", "dist_D_star", "dist_L", "dist_L_star", "solve_moments",
                   "MomentFunctional.power_moments", "pearson_residual", "derived_functional"),
    "classical": ("check_regular", "recurrence", "gram_matrix", "derivative_sequence"),
    "rodrigues": ("rodrigues_rhs", "phi_product", "verify_rodrigues"),
    "verify": ("identities_suite", "gram_suite", "rodrigues_suite"),
    "cli": ("main",),
}
OP_SPAN = "bench.op"


def package_modules():
    return [m for name, m in list(sys.modules.items()) if name == "hahnpoly" or name.startswith("hahnpoly.")]


def clear_caches():
    """Empty every functools cache in hahnpoly, so the next op starts cold."""
    for module in package_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, label: str, fn):
        fid = self.ids.setdefault(label, len(self.names))
        if fid == len(self.names):
            self.names.append(label)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def call(self, fn, *args):
        """Run fn(*args) inside a root span that groups one op's spans."""
        return self._wrap(OP_SPAN, fn)(*args)

    def install(self):
        """Wrap every function in WRAPPED where hahnpoly binds it.

        Modules import names directly (`from .poly import op_D`), so each
        module global bound to the function is replaced, not only the one in
        the defining module. A function that no longer exists is skipped and
        reports zero calls.
        """
        modules = package_modules()
        for mod_name, functions in WRAPPED.items():
            module = sys.modules.get(f"hahnpoly.{mod_name}")
            for spec in functions:
                label = f"{mod_name}.{spec}"
                if "." in spec:
                    cls_name, attr = spec.split(".")
                    cls = getattr(module, cls_name, None)
                    original = vars(cls).get(attr) if cls is not None else None
                    if original is None:
                        continue
                    setattr(cls, attr, self._wrap(label, original))
                    self._undo.append((cls, attr, original))
                    continue
                original = getattr(module, spec, None)
                if original is None:
                    continue
                wrapper = self._wrap(label, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
                            self._undo.append((m, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self) -> dict[str, tuple[int, float]]:
        """Label -> (calls, self seconds), for every label ever wrapped."""
        covered = array("d", bytes(8 * len(self.start)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, fid in enumerate(self.name):
            label = self.names[fid]
            calls[label] += 1
            self_s[label] += self.end[i] - self.start[i] - covered[i]
        return {label: (calls[label], self_s[label]) for label in self.names}

    def dump(self, path):
        """Write the spans: one JSON header line, then the four raw arrays.

        Read back with array.fromfile in the header's order and counts.
        """
        header = {
            "labels": self.names,
            "count": len(self.start),
            "arrays": [["name", "H"], ["parent", "q"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(out)
