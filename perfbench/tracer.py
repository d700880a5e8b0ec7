"""Span recorder for the traced run.

The layer boundary is every function that one heatglue module imports
from another.  :func:`instrument` finds those names by introspection and
rebinds each one in the importing module's namespace to a wrapper that
records a span; a module imported whole (``from heatglue import heat1d``)
is replaced by a proxy that wraps the functions read from it.  Imported
classes are left alone, since a wrapper would break ``isinstance``; three
hooks cover the class-level work that matters: ``ExpMix.__post_init__``
(canonicalisation), ``KernelMatrix.evaluate`` and the evaluator of every
``TimeFactor``, which quadsim calls back into.  Nothing under ``src/`` is
edited.

Each span is (name, start, end, parent, request).  Self time is the span's
duration minus the durations of its direct children, accumulated as spans
close, so the self times of all spans under a request add up to the
request's root span.  Spans are kept in memory up to a cap and written out
when the run ends; call counts, self times, raised exceptions and points
per integrand call are counted for every span, past the cap too.
"""

from __future__ import annotations

import time
import types
from array import array
from collections import Counter, defaultdict

import numpy as np


class Recorder:
    def __init__(self, span_cap: int = 200_000):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.points: list[int] = []
        self.raised: dict[str, Counter] = defaultdict(Counter)
        self.sums: Counter = Counter()
        self.request = -1
        self._stack = [[0.0, -1]]  # [child seconds, serial] of open spans
        self._serial = 0
        self._cap = span_cap
        self._spans = {k: array(c) for k, c in (
            ("serial", "q"), ("name", "i"), ("start", "d"), ("end", "d"),
            ("parent", "q"), ("request", "i"))}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.points.append(0)
        return self._ids[name]

    def wrap(self, fn, name: str, *, count_points: bool = False,
             on_return=None):
        """``fn`` with a span named ``name`` around every call."""
        sid = self._id(name)
        stack, clock, rec = self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            frame = [0.0, rec._serial]
            parent = stack[-1][1]
            rec._serial += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec._close(sid, frame, start, clock(), parent)
                rec.raised[name][type(exc).__name__] += 1
                raise
            rec._close(sid, frame, start, clock(), parent)
            if count_points and args:
                rec.points[sid] += int(np.size(args[0]))
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def exclude(self, seconds: float) -> None:
        """Take ``seconds`` spent outside the program (in the benchmark's
        own speed samples) out of the self time of the open span."""
        self._stack[-1][0] += seconds

    def _close(self, sid, frame, start, end, parent) -> None:
        self._stack.pop()
        duration = end - start
        self._stack[-1][0] += duration
        self.self_s[sid] += duration - frame[0]
        self.calls[sid] += 1
        if frame[1] < self._cap:
            s = self._spans
            s["serial"].append(frame[1])
            s["name"].append(sid)
            s["start"].append(start)
            s["end"].append(end)
            s["parent"].append(parent)
            s["request"].append(self.request)

    @property
    def spans_kept(self) -> int:
        return min(self._serial, self._cap)

    @property
    def spans_dropped(self) -> int:
        return max(0, self._serial - self._cap)

    def dump(self, path) -> None:
        """Write the kept spans, ordered by start, as a numpy archive."""
        arrays = {k: np.frombuffer(v, dtype=v.typecode) if len(v) else
                  np.zeros(0, dtype=v.typecode) for k, v in self._spans.items()}
        order = np.argsort(arrays["serial"], kind="stable")
        np.savez(path, names=np.array(self.names),
                 **{k: v[order] for k, v in arrays.items()})

    def totals(self) -> dict[str, tuple[int, float, int]]:
        return {n: (self.calls[i], self.self_s[i], self.points[i])
                for i, n in enumerate(self.names)}


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _is_heatglue(module_name) -> bool:
    return isinstance(module_name, str) and module_name.startswith("heatglue.")


class _ModuleProxy(types.ModuleType):
    """Stands in for a whole heatglue module inside another one; functions
    read from it come back wrapped, everything else is the real object."""

    def __init__(self, real: types.ModuleType, rec: Recorder):
        super().__init__(real.__name__, real.__doc__)
        self._real, self._rec = real, rec

    def __getattr__(self, attr):
        obj = getattr(self._real, attr)
        if isinstance(obj, types.FunctionType) and obj.__module__ == self._real.__name__:
            obj = self._rec.wrap(obj, f"{_short(self._real.__name__)}.{attr}",
                                 **_extras(self._rec, _short(self._real.__name__), attr))
            self.__dict__[attr] = obj
        return obj


def _extras(rec: Recorder, owner: str, func: str) -> dict:
    """Counters kept at particular boundaries."""
    if (owner, func) == ("path_sum", "pathsum_heat"):
        def cutoff(result):
            rec.sums["path_sum.cutoff"] += int(result[1])
        return {"on_return": cutoff}
    return {}


def _wrap_time_factor(rec: Recorder, factor) -> None:
    ev = factor.evaluator
    if getattr(ev, "__wrapped__", None) is not None:
        return
    owner = getattr(ev, "__module__", None)
    if not _is_heatglue(owner):
        owner = type(ev).__module__
    name = f"{_short(owner) if _is_heatglue(owner) else 'external'}.integrand"
    object.__setattr__(factor, "evaluator",
                       rec.wrap(ev, name, count_points=True))


def instrument(rec: Recorder, modules: dict[str, types.ModuleType]) -> list[str]:
    """Install every span; returns the boundary names found."""
    found = []
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.ModuleType):
                if _is_heatglue(obj.__name__) and obj is not mod:
                    setattr(mod, attr, _ModuleProxy(obj, rec))
                    found.append(f"{_short(mod.__name__)} -> {obj.__name__} (module)")
            elif (isinstance(obj, types.FunctionType)
                  and _is_heatglue(obj.__module__)
                  and obj.__module__ != mod.__name__):
                owner = _short(obj.__module__)
                setattr(mod, attr, rec.wrap(obj, f"{owner}.{obj.__name__}",
                                            **_extras(rec, owner, obj.__name__)))
                found.append(f"{_short(mod.__name__)} -> {owner}.{obj.__name__}")

    expmix = modules["heatglue.expmix"]
    expmix.ExpMix.__post_init__ = rec.wrap(expmix.ExpMix.__post_init__,
                                           "expmix.ExpMix.__post_init__")
    km = modules["heatglue.graph_heat"].KernelMatrix
    km.evaluate = rec.wrap(km.evaluate, "graph_heat.KernelMatrix.evaluate")

    quadsim = modules["heatglue.quadsim"]
    factor_cls = quadsim.TimeFactor
    original = factor_cls.__post_init__

    def post_init(self):
        original(self)
        _wrap_time_factor(rec, self)

    factor_cls.__post_init__ = post_init
    # factors built before instrumentation: module constants and caches
    for mod in modules.values():
        for obj in list(vars(mod).values()):
            items = obj.values() if isinstance(obj, dict) else (obj,)
            for item in list(items):
                if isinstance(item, factor_cls):
                    _wrap_time_factor(rec, item)
    found += ["expmix.ExpMix.__post_init__ (hook)",
              "graph_heat.KernelMatrix.evaluate (hook)",
              "quadsim.TimeFactor.evaluator (hook)"]
    return found


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

LAYERS = ("cli", "graph_heat", "symlin", "expmix", "path_sum", "quadsim",
          "heat1d")


def layer_metrics(rec: Recorder, reports: int) -> dict[str, float]:
    tot = rec.totals()

    def pick(pred):
        rows = [v for k, v in tot.items() if pred(k, *k.split(".", 1))]
        return (sum(r[0] for r in rows), sum(r[1] for r in rows),
                sum(r[2] for r in rows))

    def layer(name):
        return pick(lambda k, owner, rest: owner == name)

    out = {f"{name}.self_s": layer(name)[1] for name in LAYERS}
    out["cli.reports"] = reports
    out["graph_heat.calls"] = layer("graph_heat")[0]
    for key, owner, pred in (
            ("symlin.eigh", "symlin", lambda f: f == "eigh"),
            ("expmix.canon", "expmix", lambda f: f == "ExpMix.__post_init__"),
            ("expmix.conv", "expmix", lambda f: "convolve" in f),
            ("expmix.eval", "expmix", lambda f: "evaluate" in f)):
        calls, self_s, _ = pick(lambda k, o, f, owner=owner, pred=pred:
                                o == owner and pred(f))
        out[f"{key}.calls"] = calls
        out[f"{key}.self_s"] = self_s
    out["path_sum.calls"] = layer("path_sum")[0]
    out["path_sum.cutoff.sum"] = rec.sums["path_sum.cutoff"]
    out["path_sum.capped"] = rec.raised["path_sum.pathsum_heat"]["LengthCapError"]
    out["quadsim.conv_n.calls"] = tot.get("quadsim.conv_n", (0, 0.0, 0))[0]
    out["quadsim.failed"] = rec.raised["quadsim.conv_n"]["ConvergenceError"]
    calls, _, points = pick(lambda k, o, f: f == "integrand")
    out["quadsim.integrand.calls"] = calls
    out["quadsim.integrand.points"] = points
    out["quadsim.integrand.points_per_call"] = points / calls if calls else 0.0
    out["heat1d.integrand.self_s"] = tot.get("heat1d.integrand", (0, 0.0, 0))[1]
    out["heat1d.calls"] = pick(lambda k, o, f: o == "heat1d" and f != "integrand")[0]
    return out
