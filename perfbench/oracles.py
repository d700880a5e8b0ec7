"""Reference values computed without heatglue, and the report checks.

Graph kernels and the killed Green's matrix come from ``scipy.linalg``;
interval, arc, ray and boundary-response values from plain numpy
eigenmode or image sums with fixed, generous truncation.  A report is
checked against these, never against its own ``reference`` field.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.linalg

#: Rounding allowance of the oracles themselves, relative to the value.
ORACLE_SLACK = 1e-13


def laplacian(doc: dict) -> tuple[np.ndarray, dict]:
    labels = list(doc["vertices"])
    index = {v: i for i, v in enumerate(labels)}
    a = np.zeros((len(labels), len(labels)))
    for u, v in doc["edges"]:
        a[index[u], index[v]] = a[index[v], index[u]] = 1.0
    return np.diag(a.sum(axis=1)) - a, index


def heat_matrix(doc: dict, t: float) -> tuple[np.ndarray, dict]:
    lap, index = laplacian(doc)
    return scipy.linalg.expm(-t * lap), index


def killed_green(doc: dict, killed, m2: float) -> tuple[np.ndarray, dict]:
    lap, index = laplacian(doc)
    keep = [v for v in doc["vertices"] if v not in set(killed)]
    idx = [index[v] for v in keep]
    blk = lap[np.ix_(idx, idx)] + m2 * np.eye(len(idx))
    return scipy.linalg.inv(blk), {v: i for i, v in enumerate(keep)}


def interval_kernel(L: float, x: float, y: float, t: float) -> float:
    """Dirichlet heat kernel of [0, L]: image sum at small t/L^2, eigenmode
    sum otherwise; both truncated where the next term is below 1e-18."""
    if t / (L * L) < 0.5:
        n = int(math.ceil(math.sqrt(42.0 * 4.0 * t) / (2.0 * L))) + 2
        ks = np.arange(-n, n + 1)
        return float((np.exp(-np.square(x - y + 2.0 * ks * L) / (4.0 * t))
                      - np.exp(-np.square(x + y + 2.0 * ks * L) / (4.0 * t))
                      ).sum() / math.sqrt(4.0 * math.pi * t))
    q = math.pi * math.pi * t / (L * L)
    k = int(math.ceil(math.sqrt(42.0 / q))) + 2
    ks = np.arange(1, k + 1)
    return float((2.0 / L) * (np.exp(-q * ks * ks)
                              * np.sin(math.pi * ks * x / L)
                              * np.sin(math.pi * ks * y / L)).sum())


def ray_kernel(x: float, y: float, t: float) -> float:
    return math.exp(-(x + y) ** 2 / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)


def arc_kernel(L: float, cuts: str, x: float, y: float, t: float) -> float:
    c0, c1 = sorted(float(c) % L for c in cuts.split(","))
    x, y = x % L, y % L
    if c0 < x < c1 and c0 < y < c1:
        return interval_kernel(c1 - c0, x - c0, y - c0, t)
    return interval_kernel(L - (c1 - c0), (x - c1) % L, (y - c1) % L, t)


def dn_eigenvalue(L: float, m2: float, circle_l: float, k: int) -> float:
    mu = math.sqrt((2.0 * math.pi * k / circle_l) ** 2 + m2)
    return mu / math.tanh(mu * L)


def _memo(memo: dict, key, build):
    if key not in memo:
        memo[key] = build()
    return memo[key]


def oracle_value(case, report: dict, memo: dict) -> float:
    """Reference value of one report line; ``memo`` holds the matrices of
    the report's case."""
    spec, inp = case.spec, report["inputs"]
    kind = spec["kind"]
    name = report["case"].rsplit("/", 1)[-1]
    if kind in ("graph-glue", "graph-pathsum"):
        t = float(inp["t"])
        mat, index = _memo(memo, ("heat", t), lambda: heat_matrix(case.graph, t))
        u, v = (inp["x"], inp["y"]) if kind == "graph-glue" else (inp["u"], inp["v"])
        return float(mat[index[u], index[v]])
    if kind == "graph-cut":
        if name.startswith("schur-gap"):
            return 0.0
        mat, index = _memo(memo, "green", lambda: killed_green(
            case.graph, case.graph["boundary"], float(spec["m2"])))
        return float(mat[index[inp["x"]], index[inp["y"]]])
    if kind == "interval-glue":
        L1, L2 = float(inp["L1"]), float(inp["L2"])
        x, y, t = float(inp["x"]), float(inp["y"]), float(inp["t"])
        return (interval_kernel(L1 + L2, L1 + x, L1 + y, t)
                - interval_kernel(L2, x, y, t))
    if kind == "interval-interface":
        L1, S = float(inp["L1"]), float(inp["L1"]) + float(inp["L2"])
        return interval_kernel(S, L1, L1, float(inp["t"]))
    if kind == "ray-glue":
        return ray_kernel(float(inp["x"]), float(inp["y"]), float(inp["t"]))
    if kind == "circle-cut":
        return arc_kernel(float(inp["L"]), inp["cuts"], float(inp["x"]),
                          float(inp["y"]), float(inp["t"]))
    if kind == "cylinder-check":
        return 0.0  # the value is itself a factorization residual
    if kind == "dn-cylinder":
        return dn_eigenvalue(float(inp["L"]), float(inp["m2"]),
                             float(inp["circleL"]), int(inp["k"]))
    raise ValueError(f"no oracle for kind {kind!r}")


def check_request(req, stdout: str, exit_code) -> dict:
    """Check every report of one request.

    Returns counts for the run summary.  ``failed`` follows the report
    status and the oracle: any fail or error status, a missing report, or
    a miss of the oracle by more than max(tol, bound).  ``wrong`` marks
    output that claims more than it delivers: a pass that misses the
    oracle, a status that its own residual contradicts, or malformed or
    missing report lines.
    """
    out = {"failed": False, "wrong": [], "reports": 0, "bounded": 0,
           "certified": 0, "max_err": 0.0}
    by_case: dict[str, list] = {}
    try:
        lines = [json.loads(s) for s in stdout.splitlines() if s.strip()]
    except ValueError as exc:
        out["failed"] = True
        out["wrong"].append(f"{req.rid}: unparsable report line ({exc})")
        return out
    for rep in lines:
        by_case.setdefault(rep["case"].split("/", 1)[0].split("[", 1)[0],
                           []).append(rep)
    out["reports"] = len(lines)
    for case in req.cases:
        cid = case.spec["id"]
        reps = by_case.get(cid, [])
        errors = [r for r in reps if r["status"] == "error"]
        if errors:
            out["failed"] = True
            if len(reps) != 1:
                out["wrong"].append(f"{cid}: error report mixed with others")
            continue
        if len(reps) != case.reports:
            out["failed"] = True
            out["wrong"].append(
                f"{cid}: {len(reps)} reports, expected {case.reports}")
            continue
        memo: dict = {}
        for rep in reps:
            _check_report(case, rep, memo, out)
    if exit_code not in (0, 1, 3):
        out["failed"] = True
        out["wrong"].append(f"{req.rid}: exit code {exit_code!r}")
    return out


def _check_report(case, rep: dict, memo: dict, out: dict) -> None:
    tol = float(rep["inputs"].get("tol", 0.0))
    bound = float(rep["bound"])
    value = rep["value"]
    allowed = max(tol, bound)
    if bound > 0.0:
        out["bounded"] += 1
        out["certified"] += bound <= tol
    own_pass = float(rep["residual"]) <= allowed
    if own_pass != (rep["status"] == "pass"):
        out["wrong"].append(f"{rep['case']}: status {rep['status']} "
                            f"contradicts its residual")
    oracle = oracle_value(case, rep, memo)
    err = abs(float(value) - oracle)
    out["max_err"] = max(out["max_err"], err)
    missed = err > allowed + ORACLE_SLACK * max(1.0, abs(oracle))
    if rep["status"] != "pass" or missed:
        out["failed"] = True
    if rep["status"] == "pass" and missed:
        out["wrong"].append(f"{rep['case']}: passes but misses the oracle "
                            f"by {err:.3e} > {allowed:.3e}")

