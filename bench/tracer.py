"""Outside-in tracer for fmlab.

`install` wraps every public function of every fmlab module, on its defining
module and on every fmlab module that bound it by `from ... import`, plus
`TypeOracle.key` and the `key_of` callback handed to
`greedy_end_extraction`. Each call records a span (name, start, end, parent)
in flat arrays kept in memory; `write` dumps them when the run ends and
`self_times` derives each span's self time: its duration minus the time its
child spans cover. Calls are single-threaded, so child spans never overlap.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import pkgutil
import time
import types

# Recursive syntax walkers in core: a span per formula node would cost more
# than the work it measures, so their time stays in the caller's self time.
UNTRACED = frozenset({"core.free_vars", "core.bound_vars", "core.rename_free",
                      "core.formula_text", "core.subformulas"})

SEARCHES = ("detect.find_k_independence", "detect.find_n_order",
            "detect.find_weak_m_order", "detect.find_cover_violation")
GREEDY = "indisc.greedy_end_extraction"
GREEDY_KEY = GREEDY + ".key_of"
ORACLE_KEY = "indisc.TypeOracle.key"
QUERY = "bench.query"  # root span of one timed query; the other roots are glue


class Tracer:
    """Span store. Index i of each array describes span i; parent -1 is a root."""

    QUERY = QUERY

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self._stack = [-1]
        self._query = self.name_id(QUERY)
        self.outcomes: dict[str, dict[str, int]] = {}
        self.delta_star_keys: set = set()

    def name_id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def begin(self, name: str) -> int:
        idx = len(self.starts)
        self.name_ids.append(self.name_id(name))
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn, prepare=None, observe=None):
        """A function that runs `fn` inside a span named `name`.

        `prepare(args, kwargs)` may rewrite the arguments first and
        `observe(args, kwargs, result)` sees the result of calls made inside
        a query span.
        """
        nid = self.name_id(name)
        name_ids, parents, starts, ends = (self.name_ids, self.parents,
                                           self.starts, self.ends)
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if (observe is not None and len(stack) > 1
                    and name_ids[stack[1]] == self._query):
                observe(args, kwargs, result)
            return result

        traced.bench_span = name
        return traced

    def self_times(self) -> array.array:
        """Per span: duration minus the summed durations of its children."""
        n = len(self.starts)
        starts, ends, parents = self.starts, self.ends, self.parents
        out = array.array("d", (ends[i] - starts[i] for i in range(n)))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                out[p] -= ends[i] - starts[i]
        return out

    def roots(self) -> array.array:
        """Per span: the index of the root span it runs under."""
        out = array.array("i", bytes(4 * len(self.starts)))
        for i, p in enumerate(self.parents):
            out[i] = i if p < 0 else out[p]
        return out

    def summarize(self) -> dict:
        """Per span name, over the spans that run inside query spans: call
        count, summed self time and summed duration.
        The extra entry `oracle_misses` counts `core.tp` spans opened directly
        by `TypeOracle.key`, i.e. keys the oracle had to compute."""
        selfs = self.self_times()
        roots = self.roots()
        oracle, tp = self._ids.get(ORACLE_KEY, -2), self._ids.get("core.tp", -2)
        ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        per_id: dict[int, list] = {}
        misses = 0
        for i in range(len(starts)):
            if ids[roots[i]] != self._query:
                continue
            nid = ids[i]
            acc = per_id.get(nid)
            if acc is None:
                acc = per_id[nid] = [0, 0.0, 0.0]
            acc[0] += 1
            acc[1] += selfs[i]
            acc[2] += ends[i] - starts[i]
            if nid == tp and parents[i] >= 0 and ids[parents[i]] == oracle:
                misses += 1
        out = {self.names[nid]: {"calls": c, "self_s": s, "total_s": t}
               for nid, (c, s, t) in per_id.items()}
        return {"spans": out, "oracle_misses": misses}

    def write(self, path) -> None:
        """One JSON header line (names, span count) and then the raw arrays."""
        with open(path, "wb") as fh:
            head = {"names": self.names, "spans": len(self.starts),
                    "arrays": ["name_ids:i", "parents:i", "starts:d", "ends:d"]}
            fh.write(json.dumps(head).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def fmlab_modules() -> list[types.ModuleType]:
    """The fmlab package and every submodule, imported."""
    import fmlab
    mods = [fmlab]
    for info in pkgutil.iter_modules(fmlab.__path__):
        mods.append(importlib.import_module(f"fmlab.{info.name}"))
    return mods


def short_name(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


def public_functions(mods) -> dict:
    """Every public module-level function, keyed by the function object, with
    its span name `<module>.<function>` taken from the defining module."""
    out = {}
    for mod in mods:
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                name = f"{short_name(mod.__name__)}.{attr}"
                if name not in UNTRACED:
                    out[obj] = name
    return out


def _outcome(tracer: Tracer, name: str):
    from fmlab.util import BudgetExceeded
    counts = tracer.outcomes.setdefault(name, {"none": 0, "budget": 0, "witness": 0})

    def observe(args, kwargs, result):
        if result is None:
            counts["none"] += 1
        elif isinstance(result, BudgetExceeded):
            counts["budget"] += 1
        else:
            counts["witness"] += 1
    return observe


def _delta_star_key(tracer: Tracer, fn):
    sig = inspect.signature(fn)

    def observe(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        tracer.delta_star_keys.add((tuple(bound.arguments["delta"]),
                                    bound.arguments["n"]))
    return observe


def _wrap_key_of(tracer: Tracer, fn):
    sig = inspect.signature(fn)

    def prepare(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.arguments["key_of"] = tracer.wrap(GREEDY_KEY, bound.arguments["key_of"])
        return bound.args, bound.kwargs
    return prepare


def install(tracer: Tracer):
    """Rebind every traced function in every fmlab module; returns the undo list."""
    mods = fmlab_modules()
    wrappers = {}
    for fn, name in public_functions(mods).items():
        prepare = observe = None
        if name in SEARCHES:
            observe = _outcome(tracer, name)
        elif name == "classify.delta_star":
            observe = _delta_star_key(tracer, fn)
        elif name == GREEDY:
            prepare = _wrap_key_of(tracer, fn)
        wrappers[fn] = tracer.wrap(name, fn, prepare, observe)
    undo = []
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            wrapper = wrappers.get(obj) if isinstance(obj, types.FunctionType) else None
            if wrapper is not None:
                undo.append((mod, attr, obj))
                setattr(mod, attr, wrapper)
    from fmlab.indisc import TypeOracle
    undo.append((TypeOracle, "key", TypeOracle.key))
    TypeOracle.key = tracer.wrap(ORACLE_KEY, TypeOracle.key)
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
