"""Command line front end.

Every subcommand evaluates one or more cases and prints one report line
per case, ordered by case id.  A report carries the case id, an echo of
the inputs (including the tolerance), the computed value, an independent
reference, the residual against that reference, a certified bound when
the route provides one, and a status.  The status is recomputable from
the report alone: pass exactly when residual <= max(tolerance, bound).

Output is JSON lines, one object per report.  Exit codes: 0 all cases
pass, 1 at least one tolerance failure, 2 unusable input, 3 an internal
numerical failure (reported with status "error"): one of the typed
failures of :mod:`heatglue.errors`, a floating-point overflow, or a
report number that is not finite.

The route modules (``expmix``, ``graph_heat``, ``heat1d``, ``path_sum``)
are loaded on first use: each is registered at import and runs on its
first attribute access, so a command runs only the modules its cases
call.  No thread runs in the package; the lazy loader of Python 3.11 is
not safe for a first access from two threads at once.
"""

from __future__ import annotations

import argparse
import errno
import importlib.resources
import importlib.util
import json
import math
import os
import pathlib
import sys
import types
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as escape
from operator import itemgetter
from typing import Callable, NamedTuple, NoReturn, Sequence

import numpy as np

from heatglue import errors


def _lazy(name: str) -> types.ModuleType:
    """The module ``heatglue.<name>``, run on its first attribute access
    (the stdlib ``LazyLoader`` recipe), registered in ``sys.modules`` and
    on the package as an import registers it."""
    full = f"heatglue.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[full] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    setattr(sys.modules["heatglue"], name, module)
    return module


expmix, graph_heat, heat1d, path_sum = map(
    _lazy, ("expmix", "graph_heat", "heat1d", "path_sum"))
# registered only so that the benchmark tracer's TimeFactor hook finds
# quadsim; it goes with that hook (ROADMAP item 6)
_lazy("quadsim")

_NUMERICAL = (
    errors.TruncationError,
    errors.ConvergenceError,
    errors.ConfluentOverflowError,
    errors.LengthCapError,
    FloatingPointError,
    OverflowError,
)


class InputError(Exception):
    """Unusable input: a command line the parser rejects, a missing file,
    bad JSON, a domain violation.  ``usage`` is the usage of the command
    whose line was rejected, empty otherwise."""

    def __init__(self, message: str, usage: str = "") -> None:
        super().__init__(message)
        self.usage = usage


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


class Axis(NamedTuple):
    """Entry coordinate: its input key, values and labels in the case id."""

    key: str
    values: Sequence
    labels: Sequence[str]


_FIXED_KEYS = frozenset({"case", "geometry", "inputs", "value", "reference",
                         "residual", "bound", "status"})
#: Report entries from which each distinct float bit pattern is encoded
#: once: on graph reports both ways cost the same at 16 entries, and
#: encoding the distinct floats is faster from 25.
_DISTINCT_MIN = 25
_JSON_TOKENS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "None": "null"}


def _json_floats(values: list) -> list[str]:
    """Floats or None as json.dumps writes them, from one repr of the list.
    Only the reprs that json.dumps writes otherwise hold an "n"."""
    text = repr(values)[1:-1]
    cells = text.split(", ")
    return [_JSON_TOKENS.get(s, s) for s in cells] if "n" in text else cells


@dataclass
class Reports:
    """The report lines of one case, as columns.

    The entries run over the product of ``axes`` in row-major order.  Entry
    i has the case id ``case[label, ...]`` (``case`` without axes), the
    inputs ``inputs`` followed by its value on each axis, ``value[i]``,
    ``reference[i]``, ``bound`` (a scalar or one per entry) and ``extra``.
    A report whose value, reference and bound are all Python floats has one
    entry and keeps them as floats, its residual a float; any other report
    holds ``value`` and ``reference`` as float arrays and its residuals as
    an array.  Statuses are a list; an error report has no value.
    """

    case: str
    geometry: str
    inputs: dict
    value: np.ndarray | None
    reference: np.ndarray | None
    bound: float | np.ndarray = 0.0
    axes: tuple[Axis, ...] = ()
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if clash := (_FIXED_KEYS & self.extra.keys()
                     | {a.key for a in self.axes} & self.inputs.keys()):
            raise ValueError(f"report keys {sorted(clash)} would be shadowed")
        if self.value is None:
            self.residual, self.status = None, ["error"]
            return
        tol = float(self.inputs.get("tol", 0.0))
        # a numpy.float64 is a float too, but its repr is not a JSON number
        if type(self.value) is type(self.reference) is type(self.bound) \
                is float:
            self.residual = abs(self.value - self.reference)
            # max(tol, bound) as Python takes it: tol unless bound > tol
            passed = self.residual <= (self.bound if self.bound > tol else tol)
            self.status = ["pass" if passed else "fail"]
            return
        self.value = np.asarray(self.value, dtype=float).ravel()
        self.reference = np.asarray(self.reference, dtype=float).ravel()
        with np.errstate(over="ignore", invalid="ignore"):  # as Python floats
            self.residual = np.abs(self.value - self.reference)
        bound = np.asarray(self.bound, dtype=float)
        if bound.ndim:
            self.bound = bound = bound.ravel()
            bound = np.where(bound > tol, bound, tol)
        else:
            self.bound = bound = float(bound)
            bound = bound if bound > tol else tol
        passed = self.residual <= bound
        self.status = ["pass" if p else "fail" for p in passed.tolist()]

    @classmethod
    def error(cls, case: str, geometry: str, inputs: dict, exc: Exception) -> Reports:
        return cls(case, geometry, inputs, None, None,
                   extra={"message": f"{type(exc).__name__}: {exc}"})

    def _ids(self) -> tuple[list[str], list[str], list[str]]:
        """Per entry: the case id, JSON-escaped too, and its axis inputs
        encoded.  Each label, axis key and axis value is encoded once: JSON
        escapes character by character, so the pieces join exactly."""
        ids, escaped, coords = [self.case], [escape(self.case)[1:-1]], [""]
        for n, axis in enumerate(self.axes):
            close = "]" if n == len(self.axes) - 1 else ""
            labels = [f"{',' if n else '['}{label}{close}" for label in axis.labels]
            ids = [a + b for a in ids for b in labels]
            labels = [escape(label)[1:-1] for label in labels]
            escaped = [a + b for a in escaped for b in labels]
            key = f"{', ' if n else ''}{escape(axis.key)}: "
            pairs = [key + (escape(v) if isinstance(v, str) else json.dumps(v))
                     for v in axis.values]
            coords = [a + b for a in coords for b in pairs]
        return ids, escaped, coords

    def _columns(self) -> list[list[str]]:
        """value, reference, residual and bound, one list of JSON cells
        each.

        Below ``_DISTINCT_MIN`` entries, and in an error report, the cells
        come from one call of ``_json_floats`` on all their floats (or
        None), a scalar bound encoded once and its cell repeated.  From
        that size on, it is called once on the distinct float bit patterns
        (``np.unique`` of their int64 view, which keeps 0.0 and -0.0 and
        NaN payloads apart) and each cell indexed back: the matrices of a
        graph report are symmetric, so many of its floats repeat."""
        columns = (self.value, self.reference, self.residual, self.bound)
        if type(self.residual) is float:
            return [[cell] for cell in _json_floats(list(columns))]
        n = len(self.status)
        sizes = [c.size if isinstance(c, np.ndarray) else 1 for c in columns]
        if n < _DISTINCT_MIN or self.value is None:
            cells = _json_floats(sum([c.tolist() if isinstance(c, np.ndarray)
                                      else [c] for c in columns], []))
        else:
            bits = np.concatenate([np.asarray(c, dtype=float).ravel()
                                   for c in columns]).view(np.int64)
            distinct, back = np.unique(bits, return_inverse=True)
            text = _json_floats(distinct.view(float).tolist())
            cells = [text[k] for k in back.tolist()]
        out, i = [], 0
        for size in sizes:
            out.append(cells[i:i + size] if size == n else cells[i:i + 1] * n)
            i += size
        return out

    def json_lines(self) -> list[tuple[str, str]]:
        """(case id, line) per entry; each line is what json.dumps writes
        for the report object with the fixed keys first."""
        head = (f'", "geometry": {escape(self.geometry)}, "inputs": '
                + json.dumps(self.inputs)[:-1]
                + (", " if self.inputs and self.axes else ""))
        tail = f", {json.dumps(self.extra)[1:-1]}" if self.extra else ""
        return [(cid, f'{{"case": "{e}{head}{c}}}, "value": {v}, '
                      f'"reference": {r}, "residual": {d}, "bound": {b}, '
                      f'"status": "{s}"{tail}}}')
                for cid, e, c, v, r, d, b, s in zip(
                    *self._ids(), *self._columns(), self.status)]


def _finish(reports: list[Reports]) -> None:
    rows = []
    for r in reports:
        rows += r.json_lines()
    rows.sort(key=itemgetter(0))
    sys.stdout.write("\n".join([line for _, line in rows] + [""]))
    sys.stdout.flush()
    statuses = set().union(*(r.status for r in reports))
    sys.exit(3 if "error" in statuses else 1 if "fail" in statuses else 0)


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------


#: What ``Path.exists()`` reads as a missing path: the name is then looked
#: up among the bundled fixtures.
_ABSENT = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)


def _load_input(name: str) -> dict:
    """Load a JSON document, UTF-8 encoded, from a path or from the bundled
    fixtures.  The path is read directly, as pathlib spells it; a name that
    is not there is a fixture name."""
    try:
        with open(os.fspath(pathlib.PurePath(name)), "rb") as f:
            data = f.read()
    except ValueError as exc:  # a name no path spells: a NUL byte
        raise InputError(f"cannot read {name}: {exc}") from exc
    except OSError as exc:
        if exc.errno not in _ABSENT:
            raise InputError(f"cannot read {name}: {exc}") from exc
        base = name if name.endswith(".json") else name + ".json"
        res = importlib.resources.files("heatglue").joinpath("fixtures", base)
        try:
            data = res.read_bytes()
        except OSError as exc:
            raise InputError(
                f"no such file or bundled fixture: {name}") from exc
    try:
        # newlines as text mode reads them, for a parse error's line and column
        text = data.decode().replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {name}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {name}: {exc}") from exc
    if not isinstance(doc, (dict, list)):
        raise InputError(f"{name}: expected a JSON object")
    return doc


# ---------------------------------------------------------------------------
# case runners (shared between direct subcommands and verify)
# ---------------------------------------------------------------------------


def _finite(x: float | np.ndarray) -> bool:
    return math.isfinite(x) if type(x) is float else bool(np.isfinite(x).all())


def _guarded(case: str, geometry: str, inputs: dict,
             run: Callable[[], list[Reports]]) -> list[Reports]:
    """The error policy of every single-case runner: a numerical failure
    becomes one report with status "error", a domain error unusable input.
    A report that would carry a NaN or infinite number is a numerical
    failure, a FloatingPointError."""
    try:
        reports = run()
        for r in reports:
            if r.value is not None and not (_finite(r.residual)
                                            and _finite(r.bound)):
                raise FloatingPointError("a value, reference, residual or "
                                         "bound is not finite")
        return reports
    except _NUMERICAL as exc:
        return [Reports.error(case, geometry, inputs, exc)]
    except (ValueError, KeyError) as exc:
        raise InputError(str(exc)) from exc


def run_graph_glue(label: str, t: float, method: str, k_max: int,
                   tol: float, prefix: str = "") -> list[Reports]:
    """Glued heat kernel of a decomposed graph, one report per entry."""
    doc = _load_input(label)
    base = {"input": label, "t": t, "method": method, "tol": tol}
    if method == "series":
        base["kmax"] = k_max

    def run():
        d = graph_heat.decomposition_from_dict(doc)
        if method == "series":
            values, bound = graph_heat.glue_II(d, k_max).evaluate_with_bound(t)
        else:
            values, bound = graph_heat.glue_I_values(d, t), 0.0
        vertices = d.ordered_graph.vertices
        refs = doc.get("references")
        refs = (refs.get("entries") or {}) if isinstance(refs, dict) else {}
        given = {(i, j): refs[f"{u},{v}"] for i, u in enumerate(vertices)
                 for j, v in enumerate(vertices) if f"{u},{v}" in refs} \
            if refs else {}
        reference = np.empty(values.shape)
        if len(given) < reference.size:
            reference = graph_heat.heat_values(d.ordered_graph, t)
        for (i, j), mix in given.items():
            reference[i, j] = expmix.evaluate(expmix.from_dict(mix), t)
        labels = [str(u) for u in vertices]
        return [Reports(f"{prefix}glue", "graph", base, values, reference,
                        bound, (Axis("x", labels, labels),
                                Axis("y", labels, labels)))]

    return _guarded(f"{prefix}glue", "graph", base, run)


def run_graph_pathsum(label: str, u: str, v: str, t: float, eps: float,
                      tol: float, prefix: str = "") -> list[Reports]:
    """Heat kernel entry as a certified truncated sum over paths."""
    doc = _load_input(label)
    inputs = {"input": label, "u": u, "v": v, "t": t, "eps": eps, "tol": tol}
    case = f"{prefix}pathsum[{u},{v}]"

    def run():
        g = graph_heat.graph_from_dict(doc)
        value, cutoff, tail = path_sum.pathsum_heat(g, u, v, t, eps)
        ref = float(graph_heat.heat_values(g, t)[g.index[u], g.index[v]])
        extra = {"u": u, "v": v, "t": t, "cutoff": cutoff, "tail_bound": tail}
        return [Reports(case, "graph", inputs, value, ref, tail, extra=extra)]

    return _guarded(case, "graph", inputs, run)


def run_graph_cut(label: str, interface: tuple | None, m2: float, tol: float,
                  prefix: str = "") -> list[Reports]:
    """Killed Green's matrix, cross-checked by Schur complement."""
    doc = _load_input(label)
    boundary = _boundary(label, doc)
    if interface is None:
        interface = boundary
        if not interface:
            raise InputError(
                f"{label}: no --interface given and no boundary in the input")
    base = {"input": label, "interface": ",".join(interface), "m2": m2,
            "tol": tol}

    def run():
        g = graph_heat.graph_from_dict(doc)
        direct, gap = graph_heat.schur_cut(g, interface, m2)
        reports = [Reports(f"{prefix}schur-gap", "graph", base, gap, 0.0)]
        refs = doc.get("references")
        if (isinstance(refs, dict) and refs.get("green_sinh") and boundary
                and set(interface) == set(boundary)):
            reports.append(_green_sinh_reports(g, interface, direct, m2,
                                               base, prefix))
        return reports

    return _guarded(f"{prefix}schur-gap", "graph", base, run)


def _boundary(label: str, doc: dict | list) -> tuple[str, ...]:
    """The boundary that a graph input records, () if none, read as
    strictly as a verify case's list field: a list, each item a label."""
    if not isinstance(doc, dict):
        raise InputError(f"{label}: expected a JSON object")
    boundary = doc.get("boundary", [])
    if not isinstance(boundary, list):
        raise InputError(f"{label}: boundary must be a list, got {boundary!r}")
    return tuple(map(str, boundary))


def _green_sinh_reports(g, interface, direct, m2, base, prefix) -> Reports:
    """Per-entry comparison of the killed Green's matrix on an integer
    labeled path against its product-of-sinh closed form."""
    try:
        positions = {v: int(v) for v in g.vertices}
    except ValueError as exc:
        raise InputError(
            "green_sinh reference needs integer vertex labels") from exc
    n_top = max(positions.values())
    if sorted(positions.values()) != list(range(n_top + 1)):
        raise InputError("green_sinh reference needs labels 0..N")
    # cosh(th) = 1 + m2/2, solved without the cancellation of acosh near 1
    th = 2.0 * math.asinh(0.5 * math.sqrt(m2))
    sinh = [math.sinh(th * k) for k in range(n_top + 1)]
    denom = math.sinh(th) * sinh[n_top]
    killed = set(interface)
    comp = [v for v in g.vertices if v not in killed]
    pos = [positions[v] for v in comp]
    reference = [sinh[min(p, q)] * sinh[n_top - max(p, q)] / denom
                 for p in pos for q in pos]
    labels = [str(v) for v in comp]
    return Reports(f"{prefix}green", "graph", base, direct, reference,
                   axes=(Axis("x", labels, labels), Axis("y", labels, labels)))


def run_interval_glue(L1: float, L2: float, x: float, y: float, t: float,
                      formula: str, n_max: int, tol: float,
                      reference: float | None = None,
                      case: str = "interval-glue") -> list[Reports]:
    """Glued interval kernel against the direct two-kernel difference."""
    inputs = {"L1": L1, "L2": L2, "formula": formula, "tol": tol,
              "x": x, "y": y, "t": t}
    if formula == "II":
        inputs["nmax"] = n_max

    def run():
        ref = heat1d.glue_direct(L1, L2, x, y, t) if reference is None \
            else reference
        if formula == "II":
            value, bound = heat1d.glue_intervals_II(L1, L2, x, y, t, n_max)
        else:
            value, bound = heat1d.glue_intervals_I(L1, L2, x, y, t), 0.0
        return [Reports(case, "interval", inputs, value, ref, bound)]

    return _guarded(case, "interval", inputs, run)


def run_interval_interface(L1: float, L2: float, t: float, tol: float,
                           reference: float | None = None,
                           case: str = "interval-interface") -> list[Reports]:
    """Junction density of two glued intervals against its Poisson sum."""
    inputs = {"L1": L1, "L2": L2, "tol": tol, "t": t}

    def run():
        value, bound = heat1d.interface_two_intervals(L1, L2, t, "residues")
        ref = reference
        if ref is None:
            ref, b_poi = heat1d.interface_two_intervals(L1, L2, t, "poisson")
            bound += b_poi
        return [Reports(case, "interval", inputs, value, ref, bound)]

    return _guarded(case, "interval", inputs, run)


def run_ray_glue(x: float, y: float, t: float, tol: float,
                 reference: float | None = None,
                 case: str = "ray-glue") -> list[Reports]:
    """Cross-ray kernel against the full-line Gaussian closed form."""
    inputs = {"tol": tol, "x": x, "y": y, "t": t}

    def run():
        value, bound = heat1d.glue_rays(x, y, t)
        ref = heat1d.k_line(x, -y, t) if reference is None else reference
        return [Reports(case, "ray", inputs, value, ref, bound)]

    return _guarded(case, "ray", inputs, run)


def run_circle_cut(L: float, cuts: tuple[float, ...], x: float, y: float,
                   t: float, k_max: int, tol: float,
                   case: str = "circle-cut") -> list[Reports]:
    """Arc kernel rebuilt by cutting the circle, against the arc kernel."""
    inputs = {"L": L, "cuts": ",".join(map(str, cuts)), "kmax": k_max,
              "tol": tol, "x": x, "y": y, "t": t}

    def run():
        reference = heat1d.arc_direct(L, cuts, x, y, t)
        value, bound = heat1d.cut_circle_to_arc(L, cuts, x, y, t, k_max)
        # 0 <= arc kernel <= circle kernel
        errors.below_prior(bound, heat1d.k_circle(L, x, y, t)[0],
                           f"circle cut at order {k_max}")
        return [Reports(case, "circle", inputs, value, reference, bound)]

    return _guarded(case, "circle", inputs, run)


def run_cylinder_check(L1: float, L2: float, circle_L: float, t: float,
                       tol: float, case: str = "cylinder-check") -> list[Reports]:
    """Factorization residual of the cylinder kernel on a point battery."""
    inputs = {"L1": L1, "L2": L2, "circleL": circle_L, "tol": tol, "t": t}
    points = (
        (0.3 * L2, 0.7 * L2, 0.2 * circle_L, 0.6 * circle_L),
        (0.7 * L2, 0.3 * L2, 0.6 * circle_L, 0.2 * circle_L),
        (0.5 * L2, 0.5 * L2, 0.25 * circle_L, 0.25 * circle_L),
    )

    def run():
        worst = heat1d.cylinder_factorization_check(L1, L2, circle_L,
                                                    points, t)
        return [Reports(case, "cylinder", inputs, worst, 0.0)]

    return _guarded(case, "cylinder", inputs, run)


def run_dn_cylinder(L: float, m2: float, k_max: int, circle_L: float,
                    tol: float, prefix: str = "") -> list[Reports]:
    """Exact response eigenvalues against their half-infinite limits."""
    base = {"L": L, "m2": m2, "circleL": circle_L, "tol": tol}

    def run():
        errors.positive(circle_L=circle_L)
        errors.nonnegative(k_max=k_max)
        ks = range(k_max + 1)
        omegas = [(2.0 * math.pi * k / circle_L) ** 2 for k in ks]
        rep = heat1d.dn_cylinder(L, omegas, m2)
        mus = [math.sqrt(omega + m2) for omega in omegas]
        # the gap plus the rounding of the reported sum mu + gap, so that
        # |value - reference| stays certified
        bounds = [gap + 0.5 * math.ulp(lam)
                  for gap, lam in zip(rep.gaps, rep.lambdas)]
        return [Reports(f"{prefix}dn", "cylinder", base, rep.lambdas, mus,
                        bounds, (Axis("k", ks, [f"{k:03d}" for k in ks]),))]

    return _guarded(f"{prefix}dn", "cylinder", base, run)


# ---------------------------------------------------------------------------
# verify problem sets
# ---------------------------------------------------------------------------

#: Case fields that existing problem sets spell otherwise: the bundled
#: ``intervals`` set writes ``n_max``, the benchmark ``circleL``.  A field
#: given under its own name wins.
_ALIASES = {"n_max": "nmax", "circleL": "circle-L"}
_NUMBERS = {int: "an integer", float: "a number"}


def _reference(case: dict) -> float | None:
    """The reference value a case freezes, or None to compute it."""
    ref = case.get("reference")
    if ref is not None and not math.isfinite(ref := float(ref)):
        raise ValueError("reference must be finite")
    return ref


def _read(o: _Option, fields: dict) -> object:
    """Option o from a case: the field named by its flag without ``--``, or
    its default (KeyError if it has none).  The field is read as strictly
    as the command line reads the flag: among its choices, an integer only
    from an integral number, a number never from a boolean, and a list
    field as a list, item by item."""
    name = o.flag.removeprefix("--")
    if name not in fields:
        if o.default is _REQUIRED:
            raise KeyError(name)
        return o.default
    value = fields[name]
    if o.choices and value not in o.choices:
        raise ValueError(f"{name} must be one of {', '.join(o.choices)}, "
                         f"got {value!r}")

    def scalar(v):
        if o.type in _NUMBERS and isinstance(v, bool) or (
                o.type is int and isinstance(v, float) and not v.is_integer()):
            raise ValueError(f"{name} must be {_NUMBERS[o.type]}, got {v!r}")
        return o.type(v)

    if o.many and not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return tuple(map(scalar, value)) if o.many else scalar(value)


def _verify_case(case: dict, index: int, default_tol: float) -> list[Reports]:
    """The reports of one case: its kind's runner, given each option read
    by ``_read`` (``tol`` defaults to ``verify --tol``) and the case-only
    inputs it takes (case id, frozen ``reference``).  Any unusable input,
    a field missing or malformed included, names it."""
    entry = _KINDS[case["kind"]]
    cid = str(case.get("id", f"case{index:03d}"))
    fields = {"tol": default_tol,
              **{_ALIASES[k]: v for k, v in case.items() if k in _ALIASES},
              **case}
    takes = _CASE_ONLY[case["kind"]]
    try:
        args = {o.dest: _read(o, fields) for o in entry.options}
        if "reference" in takes:
            args["reference"] = _reference(case)
        if "prefix" in takes:
            args["prefix"] = cid + "/"
        if "case" in takes:
            args["case"] = cid
        return entry.run(**args)
    except KeyError as exc:
        raise InputError(f"case {cid}: missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError, InputError) as exc:
        raise InputError(f"case {cid}: {exc}") from exc


def run_verify(suite: str, input_: str | None, tol: float) -> list[Reports]:
    """Run a problem set and report each case; exits 0 on an empty set."""
    doc = [] if input_ is None else _load_input(input_)
    cases = doc if isinstance(doc, list) else doc.get("cases")
    if not isinstance(cases, list):
        raise InputError(f"{input_}: expected a cases list")
    selected = []
    for i, case in enumerate(cases):
        kind = case.get("kind") if isinstance(case, dict) else None
        if not isinstance(kind, str) or kind not in _KINDS:
            raise InputError(f"case {i}: unknown kind {kind!r}")
        if suite in ("all", _KINDS[kind].suite):
            selected.append((i, case))
    reports = [r for i, case in selected
               for r in _verify_case(case, i, tol)]
    tally = Counter()
    for r in reports:
        tally.update(r.status)
    print(f"{tally.total()} cases: {tally['pass']} pass, {tally['fail']} fail, "
          f"{tally['error']} error", file=sys.stderr)
    return reports


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------

_DESCRIPTION = """Heat kernels glued from pieces: graphs, intervals, rays,
circles, cylinders.  Subcommands print per-case reports and exit nonzero
when a case misses its tolerance."""
_REQUIRED = object()


class _Option(NamedTuple):
    """One option of a command and the field of its verify case: its flag,
    the parameter of the runner that receives it, its help, its type (a
    function of the text given), its default (``_REQUIRED`` when it must
    be given), the values it may take (any when empty), and whether it is
    a list (comma separated, or a JSON list), each item of its type."""

    flag: str
    dest: str
    help: str
    type: Callable[[str], object] = str
    default: object = _REQUIRED
    choices: tuple = ()
    many: bool = False


def _tol(default: object = _REQUIRED) -> _Option:
    return _Option("--tol", "tol", "Tolerance entering the pass condition "
                   "residual <= max(tol, bound).", float, default)


class _Command(NamedTuple):
    """The command ``name`` (words after the program name) and the verify
    case of kind ``name`` with "-" for " ", in verify's ``suite`` (none
    for ``verify``); a kind with no command has ``parser`` False.  Its
    runner answers both, its options fill the runner's parameters."""

    name: str
    suite: str
    run: Callable[..., list[Reports]]
    options: tuple[_Option, ...]
    parser: bool = True


_GROUPS = {
    "graph": "Finite graph kernels and gluing checks.",
    "interval": "Dirichlet intervals glued along a junction.",
    "ray": "Half lines glued at the origin.",
    "circle": "Circles cut open into arcs.",
    "cylinder": "Product structure over a circle slice.",
    "dn": "Boundary response spectra.",
}

#: Every command and every kind of verify case.
_COMMANDS = (
    _Command("graph glue", "graph", run_graph_glue, (
        _Option("--input", "label",
            "Decomposition JSON file or bundled fixture name."),
        _Option("--t", "t", "Evaluation time.", float),
        _Option("--method", "method", "Interface kernel route.", str,
            "assembled", ("assembled", "series")),
        _Option("--kmax", "k_max", "Series truncation order (series method "
            "only).  A larger order leaves less out, so the certified bound "
            "shrinks with it down to rounding level.", int, 12),
        _tol(1e-10))),
    _Command("graph pathsum", "graph", run_graph_pathsum, (
        _Option("--input", "label", "Graph JSON file or bundled fixture name."),
        _Option("--u", "u", "Source vertex."),
        _Option("--v", "v", "Target vertex."),
        _Option("--t", "t", "Evaluation time.", float),
        _Option("--eps", "eps",
            "Requested absolute accuracy of the truncated sum.", float),
        _tol(1e-8))),
    _Command("graph cut", "graph", run_graph_cut, (
        _Option("--input", "label", "Graph JSON file or bundled fixture name."),
        _Option("--interface", "interface", "Comma separated vertices to kill; "
            "defaults to the boundary recorded in the input.", str, None,
            many=True),
        _Option("--m2", "m2", "Mass parameter.", float),
        _tol(1e-10))),
    _Command("interval glue", "interval", run_interval_glue, (
        _Option("--L1", "L1", "First length.", float),
        _Option("--L2", "L2", "Second length.", float),
        _Option("--x", "x", "Source point inside the second piece.", float),
        _Option("--y", "y", "Target point inside the second piece.", float),
        _Option("--t", "t", "Evaluation time.", float),
        _Option("--formula", "formula", "Reflection route or echo series.", str,
            "I", ("I", "II")),
        _Option("--nmax", "n_max", "Echo series truncation (formula II only).",
            int, 6),
        _tol(1e-8))),
    _Command("interval-interface", "interval", run_interval_interface, (
        _Option("--L1", "L1", "First length.", float),
        _Option("--L2", "L2", "Second length.", float),
        _Option("--t", "t", "Evaluation time.", float),
        _tol()), parser=False),
    _Command("ray glue", "ray", run_ray_glue, (
        _Option("--x", "x", "Distance on one ray.", float),
        _Option("--y", "y", "Distance on the other.", float),
        _Option("--t", "t", "Evaluation time.", float),
        _tol(1e-8))),
    _Command("circle cut", "circle", run_circle_cut, (
        _Option("--L", "L", "Circumference.", float),
        _Option("--cuts", "cuts", "Two cut positions, comma separated.", float,
            many=True),
        _Option("--x", "x", "Source position.", float),
        _Option("--y", "y", "Target position.", float),
        _Option("--t", "t", "Evaluation time.", float),
        _Option("--kmax", "k_max", "Interface series truncation order.", int, 4),
        _tol(1e-5))),
    _Command("cylinder check", "cylinder", run_cylinder_check, (
        _Option("--L1", "L1", "First interval length.", float),
        _Option("--L2", "L2", "Second interval length.", float),
        _Option("--circle-L", "circle_L", "Slice circumference.", float,
            2 * math.pi),
        _Option("--t", "t", "Evaluation time.", float),
        _tol(1e-9))),
    _Command("dn cylinder", "cylinder", run_dn_cylinder, (
        _Option("--L", "L", "Cylinder depth.", float),
        _Option("--m2", "m2", "Mass parameter.", float),
        _Option("--kmax", "k_max", "Highest slice mode index.", int),
        _Option("--circle-L", "circle_L", "Slice circumference.", float,
            2 * math.pi),
        _tol(1e-12))),
    _Command("verify", "", run_verify, (
        _Option("--suite", "suite", "Restrict to cases of one geometry family.",
            str, "all", ("graph", "interval", "ray", "circle", "cylinder",
                         "all")),
        _Option("--input", "input_", "Problem set JSON (a list of cases, or an "
            "object with a cases list).  Without it the problem set is "
            "empty.", str, None),
        _tol(1e-8))),
)

#: The entry of every kind of verify case.
_KINDS = {c.name.replace(" ", "-"): c for c in _COMMANDS if c.suite}
#: The case-only inputs that each kind's runner takes, read from its
#: parameters (which come first in ``co_varnames``).
_CASE_ONLY = {kind: frozenset(
    c.run.__code__.co_varnames[:c.run.__code__.co_argcount])
    & {"reference", "prefix", "case"} for kind, c in _KINDS.items()}
#: Every option flag of a command; each takes one value.
_FLAGS = frozenset(o.flag for c in _COMMANDS if c.parser for o in c.options)
_METAVARS = {float: "FLOAT", int: "INTEGER"}


def _items(o: _Option) -> Callable[[str], tuple]:
    """The comma separated items of list option o's text, each of its
    type.  InputError, which argparse lets through, keeps the message free
    of argparse's usage."""
    def read(text: str) -> tuple:
        try:
            return tuple(o.type(s) for s in text.split(",") if s)
        except ValueError as exc:
            raise InputError(f"bad {o.flag} value: {text!r}") from exc
    return read


class _Parser(argparse.ArgumentParser):
    """An argparse parser that raises InputError where argparse exits."""

    def error(self, message: str) -> NoReturn:
        raise InputError(message, self.format_usage())


def _build(prog: str) -> _Parser:
    """The parser of every command in ``_COMMANDS``, named ``prog``.  It
    takes no abbreviated flag, and each command sets ``run`` to its
    runner, ``command`` to its own parser and one entry per option to the
    option's value."""
    root = _Parser(prog=prog, allow_abbrev=False, description=_DESCRIPTION)
    commands = root.add_subparsers(metavar="COMMAND", required=True)
    groups = {}
    for words, _, run, options, command in _COMMANDS:
        if not command:
            continue
        *group, name = words.split()
        sub = commands
        if group:
            if group[0] not in groups:
                groups[group[0]] = commands.add_parser(
                    group[0], allow_abbrev=False, help=_GROUPS[group[0]],
                    description=_GROUPS[group[0]],
                ).add_subparsers(metavar="COMMAND", required=True)
            sub = groups[group[0]]
        parser = sub.add_parser(name, allow_abbrev=False, help=run.__doc__,
                                description=run.__doc__)
        for o in options:
            required = o.default is _REQUIRED
            shown = "" if required or o.default is None \
                else f" [default: {o.default}]"
            parser.add_argument(o.flag, dest=o.dest,
                                type=_items(o) if o.many else o.type,
                                required=required,
                                default=None if required else o.default,
                                choices=o.choices or None,
                                metavar=None if o.choices else "TEXT"
                                if o.many else _METAVARS.get(o.type, "TEXT"),
                                help=o.help + shown)
        parser.set_defaults(run=run, command=parser)
    return root


def _attach_values(argv: Sequence[str]) -> list[str]:
    """``--flag value`` as ``--flag=value``: the token after a flag is its
    value whatever it starts with (``--x -1e-3``, ``--cuts -0.5,1``), where
    argparse reads a token that starts with "-" as a flag unless it is a
    plain negative number."""
    out, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in _FLAGS else None
        out.append(token if value is None else f"{token}={value}")
    return out


def main(argv: Sequence[str] | None = None, prog_name: str = "heatglue",
         standalone_mode: bool = True) -> None:
    """Run the command line ``argv`` (``sys.argv[1:]`` when None); the
    command exits with its code through ``sys.exit``.  ``prog_name`` names
    the program in usage and help.  In standalone mode unusable input
    prints ``Error: <message>`` to stderr and exits 2, and a closed stdout
    exits 1; otherwise the InputError reaches the caller."""
    parser = _PARSER if prog_name == _PARSER.prog else _build(prog_name)
    try:
        options, extra = parser.parse_known_args(_attach_values(
            sys.argv[1:] if argv is None else argv))
        options = vars(options)
        command = options.pop("command")
        if extra:  # as parse_args rejects them, with the command's usage
            command.error(f"unrecognized arguments: {' '.join(extra)}")
        _finish(options.pop("run")(**options))
    except InputError as exc:
        if not standalone_mode:
            raise
        sys.stderr.write(f"{exc.usage}Error: {exc}\n")
        sys.exit(2)
    except BrokenPipeError:
        # the reader has gone: point stdout at /dev/null, so that the
        # flush at exit finds nothing to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


# ``main.main(argv, prog_name=..., standalone_mode=...)`` is the call the
# benchmark harness makes, as on a click group
main.main = main
_PARSER = _build("heatglue")


if __name__ == "__main__":
    main()
