"""Spans around gkh's public callables, recorded from outside the package.

Tracer.install replaces every public function of each gkh module, the
Diagram cached predicates and IntMatrix.__matmul__ with timing wrappers,
everywhere the original object is bound (so `from .linalg import ...`
copies are covered too). Spans live in memory as
[name, start, end, parent, op] and are written out once at the end.
Self time is a span's duration minus the durations of its children;
calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter

LAYERS = ("codec", "diagram", "linalg", "coloring", "pseudo", "verify", "fixtures", "cli")
CACHED_PREDICATES = ("arcs", "is_alternating", "is_reduced", "is_prime_diagram")
HOOK_SPAN = "trace.hook"

# per-layer time metric -> spans whose self time it sums
SELF_TIME = {
    "linalg.inverse_s": ("linalg.rational_inverse", "linalg.scaled_inverse"),
    "linalg.snf_s": ("linalg.smith_normal_form",),
    "linalg.matmul_s": ("linalg.IntMatrix.__matmul__",),
    "linalg.det_s": ("linalg.determinant",),
    "diagram.prime_s": ("diagram.Diagram.is_prime_diagram",),
    "diagram.reduced_s": ("diagram.Diagram.is_reduced",),
    "diagram.arcs_s": ("diagram.Diagram.arcs",),
    "diagram.build_s": (
        "diagram.from_pd",
        "diagram.braid_closure",
        "diagram.pretzel",
        "diagram.turks_head",
        "diagram.connected_sum",
    ),
    "coloring.group_s": ("coloring.coloring_group",),
    "coloring.matrix_s": ("coloring.coloring_matrix",),
    "coloring.distinguish_s": ("coloring.distinguishing_report",),
    "coloring.min_set_s": ("coloring.minimal_distinguishing_set",),
    "pseudo.search_s": ("pseudo.pseudo_from_inverse_columns",),
    "pseudo.tunnel_s": ("pseudo.tunnel_pseudo",),
    "verify.self_s": (
        "verify.verify_gkh",
        "verify.hypotheses_of",
        "verify.verify_connected_sum",
        "verify.brute_force_coloring_count",
        "verify.closed_form_count",
    ),
    "verify.generate_s": ("verify.random_alternating_diagram",),
    "codec.parse_s": ("codec.parse_pd", "codec.parse_braid"),
    "cli.self_s": ("cli.main", "cli.build_parser"),
    "fixtures.load_s": ("fixtures.fixture", "fixtures.fixture_diagram", "fixtures.fixture_names"),
}

# per-layer call-count metric -> span name counted
CALLS = {
    "linalg.inverse_calls": "linalg.rational_inverse",
    "linalg.snf_calls": "linalg.smith_normal_form",
    "linalg.det_calls": "linalg.determinant",
    "pseudo.classify_calls": "pseudo.classify_assignment",
}


def _snf_bits(tracer, args, result):
    bits = max(
        (abs(x).bit_length() for m in (result.u, result.d, result.v) for x in m.entries),
        default=0,
    )
    tracer.max_coeff_bits = max(tracer.max_coeff_bits, bits)


def _count_pairs(tracer, args, result):
    tracer.counts["pairs"] += len(result.separators)


def _count_pseudo(tracer, args, result):
    if result.kind == "pseudo":
        tracer.counts["pseudo_found"] += 1


def _count_generated(tracer, args, result):
    tracer.counts["generated"] += 1


HOOKS = {
    "linalg.smith_normal_form": _snf_bits,
    "coloring.distinguishing_report": _count_pairs,
    "pseudo.classify_assignment": _count_pseudo,
    "verify.random_alternating_diagram": _count_generated,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.ops = 0
        self.counts: Counter = Counter()
        self.max_coeff_bits = 0
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        self.stack.pop()

    def begin_op(self, label: str) -> None:
        self.op = self.ops
        self._open("op." + label)

    def end_op(self) -> None:
        self._close(self.stack[0])
        self.stack.clear()
        self.op = None
        self.ops += 1

    def wrap(self, fn, name: str):
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if hook is not None:
                # a span of its own keeps the hook out of the caller's self time
                hid = tracer._open(HOOK_SPAN)
                try:
                    hook(tracer, args, result)
                finally:
                    tracer._close(hid)
            return result

        return traced

    def _replace(self, namespace, key: str, new) -> None:
        self._undo.append((namespace, key, getattr(namespace, key)))
        setattr(namespace, key, new)

    def install(self, gkh) -> None:
        modules = {layer: importlib.import_module(f"gkh.{layer}") for layer in LAYERS}
        namespaces = [gkh, *modules.values()]
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                wrapped = self.wrap(obj, f"{layer}.{name}")
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            self._replace(ns, key, wrapped)
        diagram_cls = modules["diagram"].Diagram
        for prop in CACHED_PREDICATES:
            original = diagram_cls.__dict__[prop]
            replacement = functools.cached_property(
                self.wrap(original.func, f"diagram.Diagram.{prop}")
            )
            replacement.__set_name__(diagram_cls, prop)
            self._replace(diagram_cls, prop, replacement)
        matrix_cls = modules["linalg"].IntMatrix
        self._replace(
            matrix_cls, "__matmul__", self.wrap(matrix_cls.__matmul__, "linalg.IntMatrix.__matmul__")
        )

    def uninstall(self) -> None:
        while self._undo:
            namespace, key, original = self._undo.pop()
            setattr(namespace, key, original)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            totals[name] += end - start - inner
        return dict(totals)

    def layer_metrics(self) -> dict[str, float]:
        ops = max(self.ops, 1)
        selfs = self.self_times()
        calls = Counter(span[0] for span in self.spans)
        out = {
            metric: sum(selfs.get(n, 0.0) for n in names) / ops
            for metric, names in SELF_TIME.items()
        }
        out.update({metric: calls[name] / ops for metric, name in CALLS.items()})
        out["linalg.max_coeff_bits"] = self.max_coeff_bits
        out["coloring.pairs"] = self.counts["pairs"] / ops
        classified = calls["pseudo.classify_assignment"]
        out["pseudo.found_frac"] = self.counts["pseudo_found"] / classified if classified else 0.0
        drawn = self._generator_draws()
        out["verify.generate_yield"] = self.counts["generated"] / drawn if drawn else 0.0
        return out

    def _generator_draws(self) -> int:
        """braid_closure calls made inside random_alternating_diagram."""
        names = [span[0] for span in self.spans]
        parents = [span[3] for span in self.spans]
        draws = 0
        for sid, name in enumerate(names):
            if name != "diagram.braid_closure":
                continue
            p = parents[sid]
            while p >= 0 and names[p] != "verify.random_alternating_diagram":
                p = parents[p]
            draws += p >= 0
        return draws

    def dump(self, path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)
