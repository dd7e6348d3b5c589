"""Span tracing of `multiwedge` from outside the package, and per-layer metrics.

The tracer wraps the public entry points of every layer. A name bound
with `from .x import y` is a separate reference in each importing module,
so every module of the package is scanned and each reference to a traced
function is replaced: `lp_solve` inside `multiorder` and `operators`,
`hrep_to_vrep` inside `wedges` (where `Wedge` and `vrep_to_hrep` reach
it), and so on. Helpers that are not wrapped, such as `_rref_rows` inside
`_solve_rays`, count towards the self time of the span that called them.

A span is (name, start, end, parent span, op id, attributes). Spans stay
in memory until the run ends. The attributes that the ratios need (LP
size, outcome, repeated input) are computed after the span's end; the
time they take is excluded from the parent's self time through `cover`,
the instant the wrapper returned.
"""

from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter

# Traced entry points per layer module; the span name is "<layer>.<function>".
LAYERS = {
    "cli": ["main"],
    "scenarios": ["run_scenario"],
    "multiorder": ["msup", "minf", "multi_bounded_above", "multilattice_search"],
    "operators": [
        "rk_value", "op_msup", "op_minf", "functional_msup", "rdp_check", "rdp_search",
        "fs_decompose",
    ],
    "wedges": ["hrep_to_vrep"],
    "lp": ["lp_solve"],
    "linalg": [
        "nullspace", "complement_basis", "matrix_inverse", "span_rank", "span_contains",
        "independent_indices", "rref",
    ],
}

# Per-layer metrics, in the order of BENCHMARK.json: (name, unit, better).
METRICS = [
    ("lp.lp_solve.calls", "count", "lower"),
    ("lp.lp_solve.self_s", "s", "lower"),
    ("lp.lp_solve.self_share", "ratio", "lower"),
    ("lp.lp_solve.us_per_call", "us", "lower"),
    ("lp.lp_solve.vars_mean", "count", "lower"),
    ("lp.lp_solve.rows_mean", "count", "lower"),
    ("lp.lp_solve.infeasible_ratio", "ratio", "lower"),
    ("lp.lp_solve.same_system_ratio", "ratio", "higher"),
    ("multiorder.msup.calls", "count", "lower"),
    ("multiorder.msup.self_s", "s", "lower"),
    ("multiorder.msup.lp_per_call", "count", "lower"),
    ("multiorder.msup.not_bounded_ratio", "ratio", "lower"),
    ("multiorder.multilattice_search.calls", "count", "lower"),
    ("multiorder.multilattice_search.self_s", "s", "lower"),
    ("operators.rk_value.calls", "count", "lower"),
    ("operators.rk_value.self_s", "s", "lower"),
    ("operators.rk_value.lp_per_call", "count", "lower"),
    ("operators.op_msup.calls", "count", "lower"),
    ("operators.op_msup.self_s", "s", "lower"),
    ("operators.op_msup.refused_ratio", "ratio", "lower"),
    ("operators.rdp_check.calls", "count", "lower"),
    ("operators.rdp_check.self_s", "s", "lower"),
    ("operators.rdp_check.infeasible_ratio", "ratio", "lower"),
    ("operators.rdp_search.calls", "count", "lower"),
    ("operators.rdp_search.self_s", "s", "lower"),
    ("operators.rdp_search.checks_per_call", "count", "lower"),
    ("wedges.hrep_to_vrep.calls", "count", "lower"),
    ("wedges.hrep_to_vrep.self_s", "s", "lower"),
    ("wedges.hrep_to_vrep.self_share", "ratio", "lower"),
    ("wedges.hrep_to_vrep.ms_per_call", "ms", "lower"),
    ("wedges.hrep_to_vrep.normals_mean", "count", "lower"),
    ("wedges.hrep_to_vrep.rays_mean", "count", "lower"),
    ("wedges.hrep_to_vrep.repeat_ratio", "ratio", "lower"),
    ("linalg.calls", "count", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.self_ms_per_op", "ms", "lower"),
    ("scenarios.run_scenario.self_s", "s", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _lp_note(args, result, seen) -> dict:
    p = args[0]
    system = tuple((c.row.entries, c.rel) for c in p.constraints)
    repeat = system in seen
    seen.add(system)
    infeasible = type(result).__name__ == "Infeasible"
    return {"vars": p.n, "rows": len(p.constraints), "infeasible": infeasible, "repeat": repeat}


def _conversion_note(args, result, seen) -> dict:
    halfspaces, dim = args[0], args[1]
    key = (dim, tuple(v.entries for v in halfspaces))
    repeat = key in seen
    seen.add(key)
    return {"normals": len(halfspaces), "rays": len(result), "repeat": repeat}


NOTES = {
    "lp.lp_solve": _lp_note,
    "wedges.hrep_to_vrep": _conversion_note,
    "operators.rdp_check": lambda args, result, seen: {"infeasible": result is None},
}


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}
        self._patched: list[tuple[object, str, object]] = []

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._seen = {name: set() for name in NOTES}

    def _wrap(self, name: str, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, 0.0]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                stack.pop()
                span[5] = {"raised": type(exc).__name__}
                span[6] = perf_counter()
                raise
            span[2] = perf_counter()
            stack.pop()
            if note is not None:
                span[5] = note(args, result, self._seen[name])
            span[6] = perf_counter()
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "multiwedge") -> None:
        """Replace every module-level reference to a traced function."""
        modules = {
            n: m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")
        }
        wrappers = {}
        for layer, names in LAYERS.items():
            home = modules[f"{package}.{layer}"]
            for fname in names:
                fn = getattr(home, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op, attrs, _ in self.spans:
                row = [name, round(start - t0, 9), round(end - t0, 9), parent, op, attrs]
                fh.write(json.dumps(row) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the spans; the runner adds trace.ops and trace.overhead_ratio."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[6] - s[1]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for s, c in zip(spans, child):
            calls[s[0]] = calls.get(s[0], 0) + 1
            self_s[s[0]] = self_s.get(s[0], 0.0) + (s[2] - s[1]) - c

        def under(name: str, ancestor: str) -> int:
            """Spans called `name` with a span called `ancestor` above them."""
            count = 0
            for s in spans:
                if s[0] != name:
                    continue
                p = s[3]
                while p >= 0 and spans[p][0] != ancestor:
                    p = spans[p][3]
                count += p >= 0
            return count

        def attrs(name: str, key: str) -> list:
            return [s[5][key] for s in spans if s[0] == name and s[5] and key in s[5]]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def mean(values: list) -> float:
            return ratio(sum(values), len(values))

        busy = sum(s[2] - s[1] for s in spans if s[0] == "cli.main")
        lp, conv = "lp.lp_solve", "wedges.hrep_to_vrep"
        n_lp, n_conv, n_ops = calls.get(lp, 0), calls.get(conv, 0), calls.get("cli.main", 0)
        linalg = [f"linalg.{f}" for f in LAYERS["linalg"]]
        out = {
            "lp.lp_solve.calls": n_lp,
            "lp.lp_solve.self_s": self_s.get(lp, 0.0),
            "lp.lp_solve.self_share": ratio(self_s.get(lp, 0.0), busy),
            "lp.lp_solve.us_per_call": ratio(self_s.get(lp, 0.0), n_lp) * 1e6,
            "lp.lp_solve.vars_mean": mean(attrs(lp, "vars")),
            "lp.lp_solve.rows_mean": mean(attrs(lp, "rows")),
            "lp.lp_solve.infeasible_ratio": mean(attrs(lp, "infeasible")),
            "lp.lp_solve.same_system_ratio": mean(attrs(lp, "repeat")),
            "wedges.hrep_to_vrep.calls": n_conv,
            "wedges.hrep_to_vrep.self_s": self_s.get(conv, 0.0),
            "wedges.hrep_to_vrep.self_share": ratio(self_s.get(conv, 0.0), busy),
            "wedges.hrep_to_vrep.ms_per_call": ratio(self_s.get(conv, 0.0), n_conv) * 1e3,
            "wedges.hrep_to_vrep.normals_mean": mean(attrs(conv, "normals")),
            "wedges.hrep_to_vrep.rays_mean": mean(attrs(conv, "rays")),
            "wedges.hrep_to_vrep.repeat_ratio": mean(attrs(conv, "repeat")),
            "linalg.calls": sum(calls.get(n, 0) for n in linalg),
            "linalg.self_s": sum(self_s.get(n, 0.0) for n in linalg),
            "cli.main.calls": n_ops,
            "cli.self_ms_per_op": ratio(self_s.get("cli.main", 0.0), n_ops) * 1e3,
            "scenarios.run_scenario.self_s": self_s.get("scenarios.run_scenario", 0.0),
            "trace.spans": len(spans),
        }
        for full in (
            "multiorder.msup", "multiorder.multilattice_search", "operators.rk_value",
            "operators.op_msup", "operators.rdp_check", "operators.rdp_search",
        ):
            out[f"{full}.calls"] = calls.get(full, 0)
            out[f"{full}.self_s"] = self_s.get(full, 0.0)
        for full in ("multiorder.msup", "operators.rk_value"):
            out[f"{full}.lp_per_call"] = ratio(under(lp, full), calls.get(full, 0))
        msup, op_msup = "multiorder.msup", "operators.op_msup"
        rdp_check, rdp_search = "operators.rdp_check", "operators.rdp_search"
        not_bounded = attrs(msup, "raised").count("NotMultiBoundedAbove")
        out[f"{msup}.not_bounded_ratio"] = ratio(not_bounded, calls.get(msup, 0))
        refused = len(attrs(op_msup, "raised"))
        out[f"{op_msup}.refused_ratio"] = ratio(refused, calls.get(op_msup, 0))
        out[f"{rdp_check}.infeasible_ratio"] = mean(attrs(rdp_check, "infeasible"))
        out[f"{rdp_search}.checks_per_call"] = ratio(
            under(rdp_check, rdp_search), calls.get(rdp_search, 0)
        )
        return out

