"""Seeded inputs of the four benchmark workloads.

A run is a list of passes and a pass is a list of requests.  A request is
one ``heatglue verify`` invocation on one generated problem file; the
program sees nothing but the files written here.  Pass p is drawn from
its own generator ``(seed, workload, p)``, so the same seed gives the same
files.  The properties that set a request's cost (interface size and
vertex count of a decomposition; times, lengths and positions of the
continuum cases) are stratified over the run: each takes every one of
its strata once, and the seed picks the point inside the stratum and
draws everything else.  That keeps run times comparable across seeds
without narrowing the distributions the gates use.
"""

from __future__ import annotations

import json
import math
import pathlib
import zlib
from dataclasses import dataclass, field

import numpy as np

#: Vertex budget of the gate-02/03 decompositions.
GATE_NMAX = 12
GATE_TIMES = (0.25, 1.0, 4.0)


@dataclass
class Case:
    """One verify case and what the oracle needs to check its reports."""

    spec: dict
    reports: int  # report lines expected when the case does not error
    graph: dict | None = None  # generated graph document, if any


@dataclass
class Request:
    rid: str
    path: str  # problem file handed to ``verify --input``, relative to root
    cases: list[Case]
    files: dict[str, dict] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# graph inputs
# ---------------------------------------------------------------------------


def _shape_table(ny: int) -> tuple[list[tuple[int, int]], np.ndarray]:
    """(n1, n2) pairs and their probabilities under the gate distribution
    (``graph_heat.random_decomposition`` with n_max 12) at interface size ny."""
    m = GATE_NMAX - ny
    pairs, probs = [], []
    for n1 in range(1, m):
        for n2 in range(1, m - n1 + 1):
            pairs.append((n1, n2))
            probs.append(1.0 / ((m - 1) * (m - n1)))
    return pairs, np.array(probs)


def _stratified_shapes(rng: np.random.Generator, phase: float,
                       per_ny: int) -> list[tuple[int, int, int]]:
    """``per_ny`` shapes (n1, ny, n2) for each interface size 1..3.  The
    vertex count sits at the quantiles (j + phase_ny) / per_ny of its gate
    distribution.  Interface size 3, which costs most, runs with the phase
    and size 2 against it, so a large graph of one size comes with a small
    graph of the other and passes of one decomposition per size cost about
    the same."""
    shapes = []
    for ny in (1, 2, 3):
        pairs, probs = _shape_table(ny)
        sizes = np.array([ny + a + b for a, b in pairs])
        values = np.unique(sizes)
        cdf = np.cumsum([probs[sizes == v].sum() for v in values])
        base = {1: (phase + 0.5) % 1.0, 2: 1.0 - phase, 3: phase}[ny]
        for j in range(per_ny):
            q = (j + base) / per_ny
            n = int(values[min(np.searchsorted(cdf, q), len(values) - 1)])
            idx = np.flatnonzero(sizes == n)
            pick = rng.choice(idx, p=probs[idx] / probs[idx].sum())
            n1, n2 = pairs[pick]
            shapes.append((n1, ny, n2))
    return shapes


def _decomposition(rng: np.random.Generator, n1: int, ny: int, n2: int) -> dict:
    """Decomposition document with edges at p = 1/2, no side1-side2 edge."""
    n = n1 + ny + n2
    labels = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if (i < n1 and j >= n1 + ny) or (j < n1 and i >= n1 + ny):
                continue
            if rng.random() < 0.5:
                edges.append([labels[i], labels[j]])
    return {"vertices": labels, "edges": edges,
            "side1": labels[:n1], "interface": labels[n1:n1 + ny],
            "side2": labels[n1 + ny:]}


def _gate_graph(rng: np.random.Generator) -> dict:
    """Glued graph of one unstratified draw from the gate distribution."""
    ny = int(rng.integers(1, 4))
    n1 = int(rng.integers(1, GATE_NMAX - ny))
    n2 = int(rng.integers(1, GATE_NMAX - ny - n1 + 1))
    doc = _decomposition(rng, n1, ny, n2)
    return {"vertices": doc["vertices"], "edges": doc["edges"]}


def _path_graph(n_top: int) -> dict:
    labels = [str(i) for i in range(n_top + 1)]
    return {"vertices": labels,
            "edges": [[labels[i], labels[i + 1]] for i in range(n_top)],
            "boundary": [labels[0], labels[-1]],
            "references": {"green_sinh": True}}


def _graph_glue_cases(rng, tag, shapes, times, method, tol):
    cases, files = [], {}
    for j, ((n1, ny, n2), t) in enumerate(zip(shapes, times)):
        cid = f"{tag}-{j}"
        doc = _decomposition(rng, n1, ny, n2)
        gpath = f"{cid}.graph.json"
        spec = {"kind": "graph-glue", "id": cid, "input": gpath,
                "t": float(t), "method": method, "tol": tol}
        if method == "series":
            spec["kmax"] = 40
        cases.append(Case(spec, (n1 + ny + n2) ** 2, doc))
        files[gpath] = doc
    return cases, files


def graph_exact_pass(rng, tag, phase, width):
    """Twelve requests, one decomposition each, four per interface size."""
    shapes = _stratified_shapes(rng, phase, 4)
    times = np.resize(GATE_TIMES, len(shapes))
    rng.shuffle(times)
    reqs = []
    for i, (shape, t) in enumerate(zip(shapes, times)):
        rid = f"{tag}-{i:03d}"
        cases, files = _graph_glue_cases(rng, rid, [shape], [t], "assembled",
                                         1e-10)
        reqs.append(Request(rid, f"{rid}.cases.json", cases, files))
    return reqs


def graph_series_pass(rng, tag, phase, width):
    """One request of three decompositions, one per interface size.  A
    single series gluing costs anywhere from 0.01 s to 5 s at equal size,
    so single-decomposition requests give a median latency that moves
    with the draw more than with the program."""
    shapes = _stratified_shapes(rng, phase, 1)
    times = rng.permutation(GATE_TIMES)
    rid = f"{tag}-000"
    cases, files = _graph_glue_cases(rng, rid, shapes, times, "series", 1e-8)
    return [Request(rid, f"{rid}.cases.json", cases, files)]


# ---------------------------------------------------------------------------
# continuum inputs
# ---------------------------------------------------------------------------


def _place(rng, phase, width, lo, hi, shift, digits=3):
    """A value in [lo, hi) inside the stratum that the pass phase, moved by
    ``shift``, selects for this parameter; the seed picks the point."""
    stratum = math.floor(((phase + shift) % 1.0) / width)
    return round(lo + (hi - lo) * (stratum + rng.random()) * width, digits)


def _u(rng, lo, hi, digits=3):
    return round(float(rng.uniform(lo, hi)), digits)


def continuum_quad_pass(rng, tag, phase, width):
    """One request: two echo-series interval gluings on a fresh (L1, L2),
    one time from the low and one from the high range, so the first
    builds the echo chain and the second finds it in the cache; a circle
    cut, whose series at kmax 4 stops converging in the upper part of
    its time range; and a ray gluing."""
    def at(lo, hi, shift, digits=3):
        return _place(rng, phase, width, lo, hi, shift, digits)

    L1, L2 = at(0.5, 2.0, 0.1), at(1.0, 2.0, 0.6)
    L = at(1.5, 3.0, 0.3)
    c1 = round(L * at(0.3, 0.7, 0.8), 4)
    a, b = (0.0, c1) if rng.random() < 0.5 else (c1, L)
    rid = f"{tag}-000"
    specs = [
        {"kind": "interval-glue", "formula": "II", "nmax": 6, "L1": L1,
         "L2": L2, "x": round(L2 * at(0.1, 0.9, 0.2 + shift), 4),
         "y": round(L2 * at(0.1, 0.9, 0.7 + shift), 4),
         "t": at(lo, hi, shift), "tol": 1e-8}
        for lo, hi, shift in ((0.1, 0.35, 0.0), (0.35, 0.7, 0.5))
    ] + [
        {"kind": "circle-cut", "L": L, "cuts": [0.0, c1],
         "x": round(a + (b - a) * at(0.1, 0.9, 0.4), 4),
         "y": round(a + (b - a) * at(0.1, 0.9, 0.9), 4),
         "t": at(0.1, 0.8, 0.25), "kmax": 4, "tol": 1e-5},
        {"kind": "ray-glue", "x": _u(rng, 0.3, 2.0), "y": _u(rng, 0.3, 2.0),
         "t": at(0.2, 1.5, 0.75), "tol": 1e-8},
    ]
    cases = []
    for j, spec in enumerate(specs):
        spec["id"] = f"{rid}-{j}"
        cases.append(Case(spec, 1))
    return [Request(rid, f"{rid}.cases.json", cases)]


# ---------------------------------------------------------------------------
# small cases
# ---------------------------------------------------------------------------


def small_cases_pass(rng, tag, phase, width, count=100):
    """Batches of cheap cases, one batch per request."""
    reqs = []
    for i in range(count):
        rid = f"{tag}-{i:03d}"
        g = _gate_graph(rng)
        u, v = (str(s) for s in rng.choice(g["vertices"], size=2))
        n_top = int(rng.integers(4, 11))
        path = _path_graph(n_top)
        gpath, ppath = f"{rid}.graph.json", f"{rid}.path.json"
        L1, L2 = _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0)
        kmax = int(rng.integers(2, 7))
        cases = [
            Case({"kind": "graph-pathsum", "input": gpath, "u": u, "v": v,
                  "t": (0.3, 0.7)[i % 2], "eps": 1e-9, "tol": 1e-8}, 1, g),
            Case({"kind": "graph-cut", "input": ppath, "m2": _u(rng, 0.5, 2.0),
                  "tol": 1e-10}, 1 + (n_top - 1) ** 2, path),
            Case({"kind": "interval-glue", "formula": "I", "L1": L1, "L2": L2,
                  "x": round(L2 * float(rng.uniform(0.05, 0.95)), 4),
                  "y": round(L2 * float(rng.uniform(0.05, 0.95)), 4),
                  "t": _u(rng, 0.05, 2.0), "tol": 1e-8}, 1),
            Case({"kind": "interval-interface", "L1": _u(rng, 0.5, 2.0),
                  "L2": _u(rng, 0.5, 2.0), "t": _u(rng, 0.05, 3.0),
                  "tol": 1e-8}, 1),
            Case({"kind": "cylinder-check", "L1": _u(rng, 0.5, 2.0),
                  "L2": _u(rng, 0.5, 2.0), "circleL": _u(rng, 3.0, 7.0),
                  "t": _u(rng, 0.1, 2.0), "tol": 1e-9}, 1),
            Case({"kind": "dn-cylinder", "L": _u(rng, 0.5, 3.0),
                  "m2": _u(rng, 0.5, 2.0), "kmax": kmax,
                  "circleL": _u(rng, 3.0, 7.0), "tol": 1e-12}, kmax + 1),
        ]
        for j, case in enumerate(cases):
            case.spec["id"] = f"{rid}-{j}"
        reqs.append(Request(rid, f"{rid}.cases.json", cases,
                            {gpath: g, ppath: path}))
    return reqs


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_pass: object  # (rng, tag, phase, stratum width) -> list[Request]
    pass_s: float  # nominal pass time on the reference machine (README)


WORKLOADS = {w.name: w for w in (
    Workload("graph-exact", graph_exact_pass, 1.9),
    Workload("graph-series", graph_series_pass, 4.6),
    Workload("continuum-quad", continuum_quad_pass, 4.7),
    Workload("small-cases", small_cases_pass, 3.2),
)}


def pass_count(workload: Workload, seconds: float) -> int:
    """Passes in a run: fixed by the run length and the nominal pass time,
    never by measured speed, so both sides of a comparison do equal work."""
    return max(1, round(seconds / workload.pass_s))


def make_passes(workload: Workload, seed: int, count: int,
                workdir: pathlib.Path, root: pathlib.Path) -> list[list[Request]]:
    """Draw ``count`` passes and write their files.  Pass p is drawn from
    its own generator at phase (p + 1/2) / count, which places each
    stratified property in its p-th stratum, cyclically shifted per
    property: over a run every stratum of every property is used once."""
    salt = zlib.crc32(workload.name.encode())
    rel = workdir.relative_to(root).as_posix()
    passes = []
    for p in range(count):
        rng = np.random.default_rng([seed, salt, p])
        phase = (p + 0.5) / count
        reqs = workload.make_pass(rng, f"p{p:02d}", phase, 1.0 / count)
        for req in reqs:
            for name, doc in req.files.items():
                (workdir / name).write_text(json.dumps(doc))
            for case in req.cases:
                if "input" in case.spec:
                    case.spec["input"] = f"{rel}/{case.spec['input']}"
            req.path = f"{rel}/{req.path}"
            (root / req.path).write_text(
                json.dumps({"cases": [c.spec for c in req.cases]}))
        passes.append(reqs)
    return passes
