"""Command line front end.

Every subcommand evaluates one or more cases and prints one report line
per case, ordered by case id.  A report carries the case id, an echo of
the inputs (including the tolerance), the computed value, an independent
reference, the residual against that reference, a certified bound when
the route provides one, and a status.  The status is recomputable from
the report alone: pass exactly when residual <= max(tolerance, bound).

Output is JSON lines by default, CSV with ``--format csv``.  Exit codes:
0 all cases pass, 1 at least one tolerance failure, 2 unusable input,
3 an internal numerical failure (reported with status "error").
"""

from __future__ import annotations

import csv
import importlib.resources
import json
import math
import pathlib
import sys
from dataclasses import dataclass, field
from typing import Callable

import click
import numpy as np

from heatglue import heat1d
from heatglue.expmix import evaluate, from_dict
from heatglue.graph_heat import (
    decomposition_from_dict,
    glue_I,
    glue_II,
    graph_from_dict,
    heat_kernel,
    random_decomposition,
    schur_cut,
)
from heatglue.path_sum import LengthCapError, pathsum_heat
from heatglue.quadsim import ConvergenceError

_NUMERICAL = (
    heat1d.TruncationError,
    ConvergenceError,
    LengthCapError,
    FloatingPointError,
    OverflowError,
)

_CSV_COLUMNS = ("case", "geometry", "params", "x", "y", "t",
                "value", "bound", "reference", "residual", "status")


class InputError(click.ClickException):
    """Unusable input: missing file, bad JSON, domain violation."""

    exit_code = 2


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class Report:
    case: str
    geometry: str
    inputs: dict
    value: float | None
    reference: float | None
    residual: float | None
    bound: float
    status: str
    extra: dict = field(default_factory=dict)

    def json_line(self) -> str:
        obj = {
            "case": self.case,
            "geometry": self.geometry,
            "inputs": self.inputs,
            "value": self.value,
            "reference": self.reference,
            "residual": self.residual,
            "bound": self.bound,
            "status": self.status,
        }
        obj.update(self.extra)
        return json.dumps(obj)

    def csv_row(self) -> list:
        def cell(v):
            return "" if v is None else (repr(v) if isinstance(v, float) else v)

        coords = {k: self.inputs.get(k) for k in ("x", "y", "t")}
        params = ";".join(
            f"{k}={cell(v)}" for k, v in self.inputs.items()
            if k not in ("x", "y", "t")
        )
        return [self.case, self.geometry, params,
                cell(coords["x"]), cell(coords["y"]), cell(coords["t"]),
                cell(self.value), cell(self.bound),
                cell(self.reference), cell(self.residual), self.status]


def _report(case: str, geometry: str, inputs: dict, value: float,
            reference: float, bound: float, extra: dict | None = None) -> Report:
    tol = float(inputs.get("tol", 0.0))
    residual = abs(float(value) - float(reference))
    status = "pass" if residual <= max(tol, float(bound)) else "fail"
    return Report(case, geometry, inputs, float(value), float(reference),
                  residual, float(bound), status, dict(extra or {}))


def _error_report(case: str, geometry: str, inputs: dict,
                  exc: Exception) -> Report:
    return Report(case, geometry, inputs, None, None, None, 0.0, "error",
                  {"message": f"{type(exc).__name__}: {exc}"})


def _finish(reports: list[Report], fmt: str) -> None:
    reports = sorted(reports, key=lambda r: r.case)
    out = sys.stdout
    if fmt == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(_CSV_COLUMNS)
        for r in reports:
            w.writerow(r.csv_row())
    else:
        for r in reports:
            out.write(r.json_line() + "\n")
    out.flush()
    if any(r.status == "error" for r in reports):
        sys.exit(3)
    if any(r.status == "fail" for r in reports):
        sys.exit(1)
    sys.exit(0)


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------


def _load_input(name: str) -> dict:
    """Load a JSON document from a path or from the bundled fixtures."""
    p = pathlib.Path(name)
    if p.exists():
        try:
            text = p.read_text()
        except OSError as exc:
            raise InputError(f"cannot read {name}: {exc}") from exc
    else:
        base = name if name.endswith(".json") else name + ".json"
        res = importlib.resources.files("heatglue").joinpath("fixtures", base)
        try:
            text = res.read_text()
        except (FileNotFoundError, OSError) as exc:
            raise InputError(
                f"no such file or bundled fixture: {name}") from exc
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


def _guarded(case: str, geometry: str, inputs: dict,
             run: Callable[[], list[Report]]) -> list[Report]:
    """The error policy of every single-case runner: a numerical failure
    becomes one report with status "error", a domain error unusable input."""
    try:
        return run()
    except _NUMERICAL as exc:
        return [_error_report(case, geometry, inputs, exc)]
    except (ValueError, KeyError) as exc:
        raise InputError(str(exc)) from exc


def run_graph_glue(doc: dict, label: str, t: float, method: str, k_max: int,
                   tol: float, prefix: str = "") -> list[Report]:
    base = {"input": label, "t": t, "method": method, "tol": tol}
    if method == "series":
        base["kmax"] = k_max

    def run():
        d = decomposition_from_dict(doc)
        if method == "series":
            km, _ = glue_II(d, k_max)
            values, bound = km.evaluate_with_bound(t)
        else:
            km = glue_I(d)
            values, bound = km.evaluate(t), 0.0
        refs = {}
        if isinstance(doc.get("references"), dict):
            refs = doc["references"].get("entries") or {}
        assembled = None
        reports = []
        for i, u in enumerate(km.rows):
            for j, v in enumerate(km.cols):
                value = float(values[i, j])
                key = f"{u},{v}"
                if key in refs:
                    ref = evaluate(from_dict(refs[key]), t)
                else:
                    if assembled is None:
                        assembled = heat_kernel(d.ordered_graph)
                    ref = evaluate(assembled.entry(u, v), t)
                inputs = dict(base, x=str(u), y=str(v))
                reports.append(_report(f"{prefix}glue[{u},{v}]", "graph",
                                       inputs, value, ref, bound))
        return reports

    return _guarded(f"{prefix}glue", "graph", base, run)


def run_graph_pathsum(doc: dict, label: str, u: str, v: str, t: float,
                      eps: float, tol: float, prefix: str = "") -> list[Report]:
    inputs = {"input": label, "u": u, "v": v, "t": t, "eps": eps, "tol": tol}
    case = f"{prefix}pathsum[{u},{v}]"

    def run():
        g = graph_from_dict(doc)
        value, cutoff, tail = pathsum_heat(g, u, v, t, eps)
        ref = evaluate(heat_kernel(g).entry(u, v), t)
        extra = {"u": u, "v": v, "t": t, "cutoff": cutoff, "tail_bound": tail}
        return [_report(case, "graph", inputs, value, ref, tail, extra)]

    return _guarded(case, "graph", inputs, run)


def run_graph_cut(doc: dict, label: str, interface: tuple | None, m2: float,
                  tol: float, prefix: str = "") -> list[Report]:
    if interface is None:
        interface = tuple(doc.get("boundary") or ())
        if not interface:
            raise InputError(
                f"{label}: no --interface given and no boundary in the input")
    base = {"input": label, "interface": ",".join(interface), "m2": m2,
            "tol": tol}

    def run():
        g = graph_from_dict(doc)
        direct, gap = schur_cut(g, interface, m2)
        reports = [_report(f"{prefix}schur-gap", "graph", dict(base),
                           gap, 0.0, 0.0)]
        refs = doc.get("references") or {}
        boundary = set(doc.get("boundary") or ())
        if refs.get("green_sinh") and boundary and set(interface) == boundary:
            reports.extend(_green_sinh_reports(g, interface, direct, m2,
                                               base, prefix))
        return reports

    return _guarded(f"{prefix}schur-gap", "graph", base, run)


def _green_sinh_reports(g, interface, direct, m2, base, prefix) -> list[Report]:
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
    denom = math.sinh(th) * math.sinh(th * n_top)
    killed = set(interface)
    comp = [v for v in g.vertices if v not in killed]
    out = []
    for a, uu in enumerate(comp):
        for b, vv in enumerate(comp):
            lo = min(positions[uu], positions[vv])
            hi = max(positions[uu], positions[vv])
            ref = math.sinh(th * lo) * math.sinh(th * (n_top - hi)) / denom
            inputs = dict(base, x=str(uu), y=str(vv))
            out.append(_report(f"{prefix}green[{uu},{vv}]", "graph", inputs,
                               direct[a, b], ref, 0.0))
    return out


def run_interval_glue(L1: float, L2: float, x: float, y: float, t: float,
                      formula: str, n_max: int, tol: float,
                      reference: float | None = None,
                      case: str = "interval-glue") -> list[Report]:
    inputs = {"L1": L1, "L2": L2, "formula": formula, "tol": tol,
              "x": x, "y": y, "t": t}
    if formula == "II":
        inputs["nmax"] = n_max

    def run():
        if formula == "II":
            value, bound, _ = heat1d.glue_intervals_II(L1, L2, x, y, t, n_max)
        else:
            value, _ = heat1d.glue_intervals_I(L1, L2, x, y, t)
            bound = 0.0
        ref = reference
        if ref is None:
            ref = (heat1d.k_interval(L1 + L2, L1 + x, L1 + y, t)[0]
                   - heat1d.k_interval(L2, x, y, t)[0])
        return [_report(case, "interval", inputs, value, ref, bound)]

    return _guarded(case, "interval", inputs, run)


def run_interval_interface(L1: float, L2: float, t: float, tol: float,
                           reference: float | None = None,
                           case: str = "interval-interface") -> list[Report]:
    inputs = {"L1": L1, "L2": L2, "tol": tol, "t": t}

    def run():
        value, bound = heat1d.interface_two_intervals(L1, L2, t, "residues")
        ref = reference
        if ref is None:
            ref, b_poi = heat1d.interface_two_intervals(L1, L2, t, "poisson")
            bound += b_poi
        return [_report(case, "interval", inputs, value, ref, bound)]

    return _guarded(case, "interval", inputs, run)


def run_ray_glue(x: float, y: float, t: float, tol: float,
                 reference: float | None = None,
                 case: str = "ray-glue") -> list[Report]:
    inputs = {"tol": tol, "x": x, "y": y, "t": t}

    def run():
        value, _ = heat1d.glue_rays(x, y, t)
        ref = reference
        if ref is None:
            ref = math.exp(-(x + y) ** 2 / (4.0 * t)) \
                / math.sqrt(4.0 * math.pi * t)
        return [_report(case, "ray", inputs, value, ref, 0.0)]

    return _guarded(case, "ray", inputs, run)


def run_circle_cut(L: float, cuts: tuple[float, float], x: float, y: float,
                   t: float, k_max: int, tol: float,
                   case: str = "circle-cut") -> list[Report]:
    inputs = {"L": L, "cuts": f"{cuts[0]},{cuts[1]}", "kmax": k_max,
              "tol": tol, "x": x, "y": y, "t": t}

    def run():
        value, _ = heat1d.cut_circle_to_arc(L, cuts, x, y, t, k_max)
        c0, c1 = sorted(float(c) % L for c in cuts)
        if c0 < x < c1 and c0 < y < c1:
            ell, xl, yl = c1 - c0, x - c0, y - c0
        else:
            ell = L - (c1 - c0)
            xl = (x - c1) % L
            yl = (y - c1) % L
        reference = heat1d.k_interval(ell, xl, yl, t)[0]
        return [_report(case, "circle", inputs, value, reference, 0.0)]

    return _guarded(case, "circle", inputs, run)


def run_cylinder_check(L1: float, L2: float, circle_L: float, t: float,
                       tol: float, case: str = "cylinder-check") -> list[Report]:
    inputs = {"L1": L1, "L2": L2, "circleL": circle_L, "tol": tol, "t": t}
    points = (
        (0.3 * L2, 0.7 * L2, 0.2 * circle_L, 0.6 * circle_L),
        (0.7 * L2, 0.3 * L2, 0.6 * circle_L, 0.2 * circle_L),
        (0.5 * L2, 0.5 * L2, 0.25 * circle_L, 0.25 * circle_L),
    )

    def run():
        worst = heat1d.cylinder_factorization_check(L1, L2, circle_L,
                                                    points, t)
        return [_report(case, "cylinder", inputs, worst, 0.0, 0.0)]

    return _guarded(case, "cylinder", inputs, run)


def run_dn_cylinder(L: float, m2: float, k_max: int, circle_L: float,
                    tol: float, prefix: str = "") -> list[Report]:
    base = {"L": L, "m2": m2, "circleL": circle_L, "tol": tol}

    def run():
        omegas = [(2.0 * math.pi * k / circle_L) ** 2
                  for k in range(k_max + 1)]
        rep = heat1d.dn_cylinder(L, omegas, m2)
        out = []
        for k, omega in enumerate(omegas):
            mu = math.sqrt(omega + m2)
            # the analytic gap plus the rounding of the reported sum mu + gap,
            # so that |value - reference| stays certified
            bound = (2.0 * mu / math.expm1(2.0 * L * mu)
                     + 0.5 * math.ulp(rep.lambdas[k]))
            inputs = dict(base, k=k)
            out.append(_report(f"{prefix}dn[{k:03d}]", "cylinder", inputs,
                               rep.lambdas[k], mu, bound))
        return out

    return _guarded(f"{prefix}dn", "cylinder", base, run)


def run_random_graph_glue(count: int, n_max: int, times: tuple[float, ...],
                          seed: int, index: int, tol: float,
                          prefix: str) -> list[Report]:
    rng = np.random.default_rng([seed, index])
    out = []
    for i in range(count):
        d = random_decomposition(rng, n_max)
        case = f"{prefix}draw[{i:03d}]"
        inputs = {"nmax": n_max, "seed": seed, "draw": i, "tol": tol,
                  "t": ",".join(repr(float(s)) for s in times)}
        try:
            km = glue_I(d)
            assembled = heat_kernel(d.ordered_graph)
            worst = max(
                float(np.abs(km.evaluate(s) - assembled.evaluate(s)).max())
                for s in times
            )
            out.append(_report(case, "graph", inputs, worst, 0.0, 0.0))
        except _NUMERICAL as exc:
            out.append(_error_report(case, "graph", inputs, exc))
    return out


# ---------------------------------------------------------------------------
# verify problem sets
# ---------------------------------------------------------------------------

_SUITE_OF_KIND = {
    "graph-glue": "graph",
    "graph-pathsum": "graph",
    "graph-cut": "graph",
    "random-graph-glue": "graph",
    "interval-glue": "interval",
    "interval-interface": "interval",
    "ray-glue": "ray",
    "circle-cut": "circle",
    "cylinder-check": "cylinder",
    "dn-cylinder": "cylinder",
}


def _verify_case(case: dict, index: int, seed: int,
                 default_tol: float) -> list[Report]:
    if not isinstance(case, dict) or "kind" not in case:
        raise InputError(f"case {index}: expected an object with a kind")
    kind = case["kind"]
    if kind not in _SUITE_OF_KIND:
        raise InputError(f"case {index}: unknown kind {kind!r}")
    cid = str(case.get("id", f"case{index:03d}"))
    tol = float(case.get("tol", default_tol))
    try:
        if kind == "graph-glue":
            doc = _load_input(case["input"])
            return run_graph_glue(doc, case["input"], float(case["t"]),
                                  case.get("method", "assembled"),
                                  int(case.get("kmax", 12)), tol,
                                  prefix=cid + "/")
        if kind == "graph-pathsum":
            doc = _load_input(case["input"])
            return run_graph_pathsum(doc, case["input"], str(case["u"]),
                                     str(case["v"]), float(case["t"]),
                                     float(case.get("eps", 1e-9)), tol,
                                     prefix=cid + "/")
        if kind == "graph-cut":
            doc = _load_input(case["input"])
            iface = case.get("interface")
            return run_graph_cut(doc, case["input"],
                                 tuple(iface) if iface else None,
                                 float(case.get("m2", 1.0)), tol,
                                 prefix=cid + "/")
        if kind == "random-graph-glue":
            times = tuple(float(s) for s in case.get("times", (0.25, 1.0, 4.0)))
            return run_random_graph_glue(int(case.get("count", 3)),
                                         int(case.get("nmax", 10)), times,
                                         seed, index, tol, prefix=cid + "/")
        if kind == "interval-glue":
            return run_interval_glue(float(case["L1"]), float(case["L2"]),
                                     float(case["x"]), float(case["y"]),
                                     float(case["t"]),
                                     case.get("formula", "I"),
                                     int(case.get("n_max", case.get("nmax", 6))),
                                     tol, case.get("reference"), case=cid)
        if kind == "interval-interface":
            return run_interval_interface(float(case["L1"]), float(case["L2"]),
                                          float(case["t"]), tol,
                                          case.get("reference"), case=cid)
        if kind == "ray-glue":
            return run_ray_glue(float(case["x"]), float(case["y"]),
                                float(case["t"]), tol,
                                case.get("reference"), case=cid)
        if kind == "circle-cut":
            cuts = tuple(float(c) for c in case["cuts"])
            return run_circle_cut(float(case["L"]), cuts, float(case["x"]),
                                  float(case["y"]), float(case["t"]),
                                  int(case.get("kmax", 4)), tol, case=cid)
        if kind == "cylinder-check":
            return run_cylinder_check(float(case["L1"]), float(case["L2"]),
                                      float(case.get("circleL", 2 * math.pi)),
                                      float(case["t"]), tol, case=cid)
        return run_dn_cylinder(float(case["L"]), float(case["m2"]),
                               int(case.get("kmax", 4)),
                               float(case.get("circleL", 2 * math.pi)),
                               tol, prefix=cid + "/")
    except KeyError as exc:
        raise InputError(f"case {cid}: missing field {exc}") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _output_options(tol_default: float):
    def deco(fn):
        fn = click.option("--tol", type=float, default=tol_default,
                          show_default=True,
                          help="Tolerance entering the pass condition "
                               "residual <= max(tol, bound).")(fn)
        fn = click.option("--format", "fmt",
                          type=click.Choice(["json", "csv"]),
                          default="json", show_default=True,
                          help="Report format: JSON lines or CSV.")(fn)
        return fn
    return deco


@click.group()
def main() -> None:
    """Heat kernels glued from pieces: graphs, intervals, rays, circles,
    cylinders.  Subcommands print per-case reports and exit nonzero when
    a case misses its tolerance."""


@main.group()
def graph() -> None:
    """Finite graph kernels and gluing checks."""


@graph.command("glue")
@click.option("--input", "input_", required=True,
              help="Decomposition JSON file or bundled fixture name.")
@click.option("--t", "t", type=float, required=True, help="Evaluation time.")
@click.option("--method", type=click.Choice(["assembled", "series"]),
              default="assembled", show_default=True,
              help="Interface kernel route.")
@click.option("--kmax", "k_max", type=int, default=12, show_default=True,
              help="Series truncation order (series method only).  A "
                   "larger order leaves less out, so the certified bound "
                   "shrinks with it down to rounding level.")
@_output_options(1e-10)
def graph_glue_cmd(input_: str, t: float, method: str, k_max: int,
                   tol: float, fmt: str) -> None:
    """Glued heat kernel of a decomposed graph, one report per entry."""
    doc = _load_input(input_)
    _finish(run_graph_glue(doc, input_, t, method, k_max, tol), fmt)


@graph.command("pathsum")
@click.option("--input", "input_", required=True,
              help="Graph JSON file or bundled fixture name.")
@click.option("--u", "u", required=True, help="Source vertex.")
@click.option("--v", "v", required=True, help="Target vertex.")
@click.option("--t", "t", type=float, required=True, help="Evaluation time.")
@click.option("--eps", type=float, required=True,
              help="Requested absolute accuracy of the truncated sum.")
@_output_options(1e-8)
def graph_pathsum_cmd(input_: str, u: str, v: str, t: float, eps: float,
                      tol: float, fmt: str) -> None:
    """Heat kernel entry as a certified truncated sum over paths."""
    doc = _load_input(input_)
    _finish(run_graph_pathsum(doc, input_, u, v, t, eps, tol), fmt)


@graph.command("cut")
@click.option("--input", "input_", required=True,
              help="Graph JSON file or bundled fixture name.")
@click.option("--interface", "interface_",
              help="Comma separated vertices to kill; defaults to the "
                   "boundary recorded in the input.")
@click.option("--m2", type=float, required=True, help="Mass parameter.")
@_output_options(1e-10)
def graph_cut_cmd(input_: str, interface_: str | None, m2: float,
                  tol: float, fmt: str) -> None:
    """Killed Green's matrix, cross-checked by Schur complement."""
    doc = _load_input(input_)
    iface = tuple(s for s in interface_.split(",") if s) if interface_ else None
    _finish(run_graph_cut(doc, input_, iface, m2, tol), fmt)


@main.group()
def interval() -> None:
    """Dirichlet intervals glued along a junction."""


@interval.command("glue")
@click.option("--L1", "l1", type=float, required=True, help="First length.")
@click.option("--L2", "l2", type=float, required=True, help="Second length.")
@click.option("--x", type=float, required=True,
              help="Source point inside the second piece.")
@click.option("--y", type=float, required=True,
              help="Target point inside the second piece.")
@click.option("--t", type=float, required=True, help="Evaluation time.")
@click.option("--formula", type=click.Choice(["I", "II"]), default="I",
              show_default=True, help="Reflection route or echo series.")
@click.option("--nmax", "n_max", type=int, default=6, show_default=True,
              help="Echo series truncation (formula II only).")
@_output_options(1e-8)
def interval_glue_cmd(l1: float, l2: float, x: float, y: float, t: float,
                      formula: str, n_max: int, tol: float, fmt: str) -> None:
    """Glued interval kernel against the direct two-kernel difference."""
    _finish(run_interval_glue(l1, l2, x, y, t, formula, n_max, tol), fmt)


@main.group()
def ray() -> None:
    """Half lines glued at the origin."""


@ray.command("glue")
@click.option("--x", type=float, required=True, help="Distance on one ray.")
@click.option("--y", type=float, required=True, help="Distance on the other.")
@click.option("--t", type=float, required=True, help="Evaluation time.")
@_output_options(1e-8)
def ray_glue_cmd(x: float, y: float, t: float, tol: float, fmt: str) -> None:
    """Cross-ray kernel against the full-line Gaussian closed form."""
    _finish(run_ray_glue(x, y, t, tol), fmt)


@main.group()
def circle() -> None:
    """Circles cut open into arcs."""


@circle.command("cut")
@click.option("--L", "l_total", type=float, required=True,
              help="Circumference.")
@click.option("--cuts", required=True,
              help="Two cut positions, comma separated.")
@click.option("--x", type=float, required=True, help="Source position.")
@click.option("--y", type=float, required=True, help="Target position.")
@click.option("--t", type=float, required=True, help="Evaluation time.")
@click.option("--kmax", "k_max", type=int, default=4, show_default=True,
              help="Interface series truncation order.")
@_output_options(1e-5)
def circle_cut_cmd(l_total: float, cuts: str, x: float, y: float, t: float,
                   k_max: int, tol: float, fmt: str) -> None:
    """Arc kernel rebuilt by cutting the circle, against the arc kernel."""
    parts = [s for s in cuts.split(",") if s]
    if len(parts) != 2:
        raise InputError(f"--cuts needs two comma separated numbers, got {cuts!r}")
    try:
        pair = (float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise InputError(f"bad --cuts value: {cuts!r}") from exc
    _finish(run_circle_cut(l_total, pair, x, y, t, k_max, tol), fmt)


@main.group()
def cylinder() -> None:
    """Product structure over a circle slice."""


@cylinder.command("check")
@click.option("--L1", "l1", type=float, required=True,
              help="First interval length.")
@click.option("--L2", "l2", type=float, required=True,
              help="Second interval length.")
@click.option("--circle-L", "circle_l", type=float, default=2 * math.pi,
              show_default=True, help="Slice circumference.")
@click.option("--t", type=float, required=True, help="Evaluation time.")
@_output_options(1e-9)
def cylinder_check_cmd(l1: float, l2: float, circle_l: float, t: float,
                       tol: float, fmt: str) -> None:
    """Factorization residual of the cylinder kernel on a point battery."""
    _finish(run_cylinder_check(l1, l2, circle_l, t, tol), fmt)


@main.group()
def dn() -> None:
    """Boundary response spectra."""


@dn.command("cylinder")
@click.option("--L", "l_depth", type=float, required=True,
              help="Cylinder depth.")
@click.option("--m2", type=float, required=True, help="Mass parameter.")
@click.option("--kmax", "k_max", type=int, required=True,
              help="Highest slice mode index.")
@click.option("--circle-L", "circle_l", type=float, default=2 * math.pi,
              show_default=True, help="Slice circumference.")
@_output_options(1e-12)
def dn_cylinder_cmd(l_depth: float, m2: float, k_max: int, circle_l: float,
                    tol: float, fmt: str) -> None:
    """Exact response eigenvalues against their half-infinite limits."""
    _finish(run_dn_cylinder(l_depth, m2, k_max, circle_l, tol), fmt)


@main.command("verify")
@click.option("--suite",
              type=click.Choice(["graph", "interval", "ray", "circle",
                                 "cylinder", "all"]),
              default="all", show_default=True,
              help="Restrict to cases of one geometry family.")
@click.option("--input", "input_", default=None,
              help="Problem set JSON (a list of cases, or an object with "
                   "a cases list).  Without it the problem set is empty.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for every randomized case.")
@_output_options(1e-8)
def verify_cmd(suite: str, input_: str | None, seed: int, tol: float,
               fmt: str) -> None:
    """Run a problem set and report each case; exits 0 on an empty set."""
    cases: list = []
    if input_ is not None:
        doc = _load_input(input_)
        raw = doc if isinstance(doc, list) else doc.get("cases")
        if not isinstance(raw, list):
            raise InputError(f"{input_}: expected a cases list")
        cases = raw
    selected = []
    for i, case in enumerate(cases):
        kind = case.get("kind") if isinstance(case, dict) else None
        if kind not in _SUITE_OF_KIND:
            raise InputError(f"case {i}: unknown kind {kind!r}")
        if suite == "all" or _SUITE_OF_KIND[kind] == suite:
            selected.append((i, case))
    reports = [r for i, case in selected
               for r in _verify_case(case, i, seed, tol)]
    n_pass = sum(r.status == "pass" for r in reports)
    n_fail = sum(r.status == "fail" for r in reports)
    n_err = sum(r.status == "error" for r in reports)
    print(f"{len(reports)} cases: {n_pass} pass, {n_fail} fail, "
          f"{n_err} error", file=sys.stderr)
    _finish(reports, fmt)


if __name__ == "__main__":
    main()
