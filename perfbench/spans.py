"""Spans around calls into roughwork's modules, recorded from outside them.

A traced round installs wrappers on the public entry points listed in
``TARGETS``. Each wrapped call records one span: layer, function, start,
end, parent span and job id. Functions that run once per swept cell
(``parthood.holds``, ``CradModel.natural_parthood``, ``QuotientAlgebra.leq``)
are not wrapped, since a span per cell would swamp what it measures; the
jobs that call them directly open a span around the call instead.

Spans stay in memory until the run ends. A span's self time is its length
minus the lengths of its direct children, so the self times of one job's
spans add up to the job's span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (layer, module, attribute path, span name)
TARGETS = (
    ("approx", "roughwork.approx", "ApproximationSpace.__init__", "ApproximationSpace"),
    ("approx", "roughwork.approx", "ApproximationSpace.rough_classes", "rough_classes"),
    ("granular", "roughwork.granular", "from_space", "from_space"),
    ("granular", "roughwork.granular", "check_gos_axioms", "check_gos_axioms"),
    ("granular", "roughwork.granular", "check_admissibility", "check_admissibility"),
    (
        "granular",
        "roughwork.granular",
        "search_admissible_granulations",
        "search_admissible_granulations",
    ),
    ("prerough", "roughwork.prerough", "quotient_algebra", "quotient_algebra"),
    ("prerough", "roughwork.prerough", "QuotientAlgebra.__init__", "QuotientAlgebra"),
    ("prerough", "roughwork.prerough", "QuotientAlgebra.to_candidate", "to_candidate"),
    ("prerough", "roughwork.prerough", "check_pre_rough", "check_pre_rough"),
    (
        "prerough",
        "roughwork.prerough",
        "check_essential_pre_rough",
        "check_essential_pre_rough",
    ),
    ("cera", "roughwork.cera", "CeraModel.__init__", "CeraModel"),
    ("cera", "roughwork.cera", "check_cera_identities", "check_cera_identities"),
    ("crad", "roughwork.crad", "CradModel.__init__", "CradModel"),
    ("crad", "roughwork.crad", "CradModel.plus", "plus"),
    ("crad", "roughwork.crad", "CradModel.times", "times"),
    ("parthood", "roughwork.parthood", "analyze", "analyze"),
    ("negation", "roughwork.negation", "BoundedPoset.__init__", "BoundedPoset"),
    ("negation", "roughwork.negation", "check_negation", "check_negation"),
    ("opposition", "roughwork.opposition", "hexagon", "hexagon"),
    ("counting", "roughwork.counting", "close", "close"),
    ("counting", "roughwork.counting", "ipc", "ipc"),
    ("propsys", "roughwork.propsys", "PropertySystem.i_diamond", "i_diamond"),
    ("propsys", "roughwork.propsys", "PropertySystem.e_diamond", "e_diamond"),
    ("propsys", "roughwork.propsys", "PropertySystem.i_box", "i_box"),
    ("propsys", "roughwork.propsys", "PropertySystem.e_box", "e_box"),
    ("expr", "roughwork.expr", "parse", "parse"),
    ("expr", "roughwork.expr", "eval_expr", "eval_expr"),
    ("model_io", "roughwork.model_io", "load_model", "load_model"),
    ("cli", "roughwork.cli", "main", "main"),
)

LAYERS = (
    "approx",
    "granular",
    "prerough",
    "cera",
    "crad",
    "parthood",
    "negation",
    "opposition",
    "counting",
    "propsys",
    "expr",
    "model_io",
    "cli",
)

# The layer of the benchmark's own code between calls into roughwork.
JOB_LAYER = "job"

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a no-op context."""

    def span(self, layer: str, name: str):
        return _NULL


class Tracer:
    """Records spans in memory; one job at a time, one thread."""

    def __init__(self):
        # (span id, parent id, job id, layer, name, start ns, end ns, failed)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.job_id: int | None = None
        self._saved: list[tuple] = []

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        failed = False
        start = time.perf_counter_ns()
        try:
            yield
        except BaseException:
            failed = True
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, self.job_id, layer, name, start, end, failed))

    def _wrap(self, fn, layer: str, name: str):
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with span(layer, name):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every target, wherever roughwork's modules bound it by name."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "roughwork"]
        for layer, module, path, name in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, layer, name)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            if not outer:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original and mod is not owner:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_times(self) -> list[tuple]:
        """Each span with its self time: (span..., self ns)."""
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, _job, _layer, _name, start, end, _failed in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        return [s + (s[6] - s[5] - child_ns[s[0]],) for s in self.spans]

    def write(self, path) -> None:
        keys = ("id", "parent", "job", "layer", "name", "start_ns", "end_ns", "failed", "self_ns")
        with open(path, "w") as out:
            for row in self.self_times():
                out.write(json.dumps(dict(zip(keys, row))) + "\n")


def aggregate(spans_with_self: list[tuple], scale: list[float]) -> dict:
    """Per layer and per (layer, name): calls, self ns and failed calls.

    Self times are multiplied by ``scale[job]``, the job's speed factor.
    """
    per_layer: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
    per_fn: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0])
    for _sid, _parent, job, layer, name, _start, _end, failed, self_ns in spans_with_self:
        if job is None:
            continue
        for acc in (per_layer[layer], per_fn[(layer, name)]):
            acc[0] += 1
            acc[1] += self_ns * scale[job]
            acc[2] += int(failed)
    return {"layers": dict(per_layer), "functions": dict(per_fn)}
