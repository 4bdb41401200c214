"""Outside-in tracer for the transfusion library.

The tracer never edits the library. It rebinds names: every public plain
function of each library module, the ``Cochain`` arithmetic operators and
the ``CharacterSolver`` methods are replaced by a wrapper that records a
span, on the defining module and on every other module that imported the
name (``cli`` included), so calls between modules are seen as well.
Generator functions are left alone, because a span around one would time
only the creation of the generator; their work lands in the caller.

A span is ``(name, start, end, parent)``; spans live in a list in memory
and all share the tracer's run id. Self time of a span is its duration
minus the durations of its direct children.

Work counts are computed by public helpers before a wrapped call starts.
The time the helper takes is added to ``excluded_ns`` and subtracted from
every later clock reading, so no span, parent spans included, pays for it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

LIBRARY_MODULES = (
    "groups",
    "groupoids",
    "cochains",
    "smith",
    "projrep",
    "cyclotomic",
    "fusion",
)

ROOT_SPAN = "cli.main"

# (module, class, methods, span name); None as span name means one span per
# method, named module.Class.method
CLASS_METHODS = (
    ("cochains", "Cochain", ("__add__", "__sub__", "__neg__"), "cochains.Cochain.arith"),
    ("fusion", "CharacterSolver", ("__init__", "expand"), None),
)


def _mat_mul_entry_mults(a, b) -> int:
    # rows(a) x inner x cols(b): one scalar product per (i, k, j)
    if not a or not b:
        return 0
    return len(a) * len(b) * len(b[0])


def _solve_mod1_entries(a, d) -> int:
    return len(a) * (len(a[0]) if a else 0)


def rebind(package: str, replace: Dict[int, Callable]) -> None:
    """Point every module-level name in the package's loaded modules that
    is bound to an object whose id is a key of replace at its value."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            new = replace.get(id(obj))
            if new is not None:
                setattr(mod, attr, new)


class Tracer:
    """Spans and counts for one traced run.

    ``clock`` returns nanoseconds; tests pass a fake one.
    """

    def __init__(self, run_id: str, clock: Callable[[], int] = time.perf_counter_ns):
        self.run_id = run_id
        self._clock = clock
        self.excluded_ns = 0
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        # one entry per span: (name index, start, end, parent span or -1)
        self.spans: List[Tuple[int, int, int, int]] = []
        self._current = -1
        self.counts: Dict[str, int] = defaultdict(int)
        self._nerve_size: Optional[Callable[..., int]] = None
        self._nerve_sizes: Dict[Tuple[int, int], Tuple[object, int]] = {}

    def now(self) -> int:
        return self._clock() - self.excluded_ns

    def _count(self, key: str, helper: Callable[..., int], args, kwargs) -> None:
        t0 = self._clock()
        self.counts[key] += helper(*args, **kwargs)
        self.excluded_ns += self._clock() - t0

    def wrap(
        self,
        name: str,
        fn: Callable,
        counters: Sequence[Tuple[str, Callable[..., int]]] = (),
    ) -> Callable:
        """Return fn wrapped in a span named name, plus optional work counts
        (kind, helper) computed from the call's arguments."""
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        spans = self.spans
        count_keys = [(f"{name}.{kind}", helper) for kind, helper in counters]

        def traced(*args, **kwargs):
            for key, helper in count_keys:
                self._count(key, helper, args, kwargs)
            parent = self._current
            sid = len(spans)
            spans.append((idx, 0, 0, parent))
            self._current = sid
            start = self.now()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid] = (idx, start, self.now(), parent)
                self._current = parent

        return traced

    def install(self, package: str = "transfusion") -> None:
        """Rebind the library's public functions and the traced methods."""
        mods = {m: importlib.import_module(f"{package}.{m}") for m in LIBRARY_MODULES}
        importlib.import_module(f"{package}.cli")
        self._nerve_size = mods["groupoids"].nerve_size
        counters = {
            "cochains.delta": (("tuples", self._delta_tuples),),
            "smith.solve_mod1": (("entries", _solve_mod1_entries),),
            "cyclotomic.mat_mul": (("entry_mults", _mat_mul_entry_mults),),
        }
        replace: Dict[int, Callable] = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                name = f"{short}.{attr}"
                replace[id(obj)] = self.wrap(name, obj, counters.get(name, ()))
        rebind(package, replace)
        for short, cls_name, methods, span in CLASS_METHODS:
            cls = getattr(mods[short], cls_name)
            for meth in methods:
                name = span or f"{short}.{cls_name}.{meth}"
                setattr(cls, meth, self.wrap(name, vars(cls)[meth]))

    def _delta_tuples(self, c) -> int:
        """delta on a degree-k cochain sweeps the (k+1)-nerve of its groupoid.
        Sizes are memoized per groupoid; the entry keeps the groupoid alive
        so its id is not reused."""
        key = (id(c.groupoid), c.degree + 1)
        hit = self._nerve_sizes.get(key)
        if hit is None:
            hit = self._nerve_sizes[key] = (c.groupoid, self._nerve_size(c.groupoid, c.degree + 1))
        return hit[1]

    def layer_metrics(self) -> Dict[str, Dict[str, float]]:
        """Self time and call count per span name, the counts, and
        ``cli.self_s``, the root span's self time."""
        self_ns, calls = self_times(self.spans, len(self.names))
        out: Dict[str, Dict[str, float]] = {}
        for i, name in enumerate(self.names):
            if name == ROOT_SPAN:
                out["cli.self_s"] = {"value": self_ns[i] / 1e9, "unit": "s"}
                continue
            out[f"{name}.self_s"] = {"value": self_ns[i] / 1e9, "unit": "s"}
            out[f"{name}.calls"] = {"value": calls[i], "unit": "count"}
        for key, n in self.counts.items():
            out[key] = {"value": n, "unit": "count"}
        return out

    def root_duration_ns(self) -> int:
        idx = self._name_index[ROOT_SPAN]
        return sum(e - s for n, s, e, _ in self.spans if n == idx)

    def write_spans(self, path: str) -> None:
        """One JSON list per line: span id, name, start ns, end ns, parent
        span id (-1 for none), run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (n, s, e, p) in enumerate(self.spans):
                fh.write(json.dumps([sid, self.names[n], s, e, p, self.run_id]) + "\n")


def self_times(
    spans: Iterable[Tuple[int, int, int, int]], n_names: int
) -> Tuple[List[int], List[int]]:
    """Per name index: total self time (duration minus direct children) and
    number of spans."""
    spans = list(spans)
    child = [0] * len(spans)
    for _, s, e, p in spans:
        if p >= 0:
            child[p] += e - s
    self_ns = [0] * n_names
    calls = [0] * n_names
    for sid, (n, s, e, _) in enumerate(spans):
        self_ns[n] += (e - s) - child[sid]
        calls[n] += 1
    return self_ns, calls


def coverage(metrics: Dict[str, Dict[str, float]], root_ns: int) -> Optional[float]:
    """Share of the root span's time spent inside library spans."""
    if root_ns <= 0:
        return None
    return 1.0 - metrics["cli.self_s"]["value"] * 1e9 / root_ns
