"""Certificate audit: every report line of one pass of each benchmark
workload at seed 1, answered in process by ``heatglue verify``, counted by
line kind against a committed floor.

A line's kind is its geometry, its method or formula, and its case name
without the request id (``graph assembled glue``, ``cylinder dn``).  Per
kind the audit counts

- ``bound_zero``: lines with bound 0;
- ``tol_only``: passes with residual > bound, which only ``tol`` passes;
- ``vacuous``: lines with a nonzero bound >= |reference|;
- ``out_of_range``: graph heat-kernel lines (a gluing or a path sum) whose
  value or reference lies outside [0, 1] by more than its bound.

``FLOOR`` holds each count as it stands; a count may fall below it, and
then the floor is tightened to it, never loosened.  ``MOVED`` holds, the
same way, the lines per kind that numpy's choice of kernels moves (ROADMAP
item 16): the pass again in an interpreter with the AVX512 kernels off.
"""

import contextlib
import importlib.util
import io
import json
import pathlib
import re
import sys
from collections import Counter, defaultdict

import numpy as np
import pytest

from conftest import fresh_python
from heatglue import cli

WORKLOADS_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
    / "workloads.py"

#: Per line kind: its lines, then the ceiling of each of ``COUNTS``.
FLOOR = {
    "circle": (1, 0, 0, 0, 0),
    "cylinder": (100, 100, 100, 0, 0),
    "cylinder dn": (467, 0, 0, 0, 0),
    "graph assembled glue": (1160, 1160, 991, 0, 0),
    "graph green": (4301, 4301, 4174, 0, 0),
    "graph pathsum": (100, 0, 0, 9, 0),
    "graph schur-gap": (100, 100, 100, 0, 0),
    "graph series glue": (251, 0, 0, 4, 0),
    "interval": (100, 0, 75, 0, 0),
    "interval I": (100, 100, 75, 0, 0),
    "interval II": (2, 0, 0, 0, 0),
    "ray": (1, 0, 0, 0, 0),
}
COUNTS = ("bound_zero", "tol_only", "vacuous", "out_of_range")
#: Per line kind, the ceiling of its lines whose status differs, or whose
#: value or reference moves by more than twice its bound, with the AVX512
#: kernels off; none in a kind not named.
MOVED = {"cylinder": 11, "graph assembled glue": 204, "interval I": 15}


def load_workloads():
    # registered before it runs, as its dataclasses need
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS_PY)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def verify(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()), \
            pytest.raises(SystemExit) as stop:
        cli.main(["verify", "--input", path])
    return stop.value.code, [json.loads(line) for line in
                             out.getvalue().splitlines()]


def line_kind(report):
    inputs = report["inputs"]
    route = inputs.get("method", inputs.get("formula", ""))
    name = re.sub(r"\[.*", "", report["case"].partition("/")[2])
    return " ".join(filter(None, (report["geometry"], route, name)))


def audit(reports):
    """Per line kind: its lines and each of ``COUNTS``."""
    counts = defaultdict(Counter)
    for r in reports:
        kind = line_kind(r)
        value, reference, bound = r["value"], r["reference"], r["bound"]
        heat = kind.startswith("graph") and kind.endswith(("glue", "pathsum"))
        counts[kind].update(
            lines=1, bound_zero=bound == 0.0,
            tol_only=r["status"] == "pass" and r["residual"] > bound,
            vacuous=bound != 0.0 and bound >= abs(reference),
            out_of_range=heat and not all(-bound <= v <= 1.0 + bound
                                          for v in (value, reference)))
    return {kind: tuple(c[key] for key in ("lines", *COUNTS))
            for kind, c in sorted(counts.items())}


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """The requests of one pass of each workload at seed 1, their files
    written under a fresh directory, which request paths are relative to."""
    workloads = load_workloads()
    root = tmp_path_factory.mktemp("audit")
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        (workdir := root / name).mkdir()
        (out[name],) = workloads.make_passes(workload, 1, 1, workdir, root)
    return root, out


def test_every_workload_case_is_a_kind_of_the_table(passes):
    # each field of a workload case is a field of its kind's table entry
    # (a flag without "--"), an alias of one, or a case-only field
    _, requests = passes
    case_only = {"id", "kind", "reference", *cli._ALIASES}
    kinds = set()
    for reqs in requests.values():
        for case in (c.spec for req in reqs for c in req.cases):
            entry = cli._KINDS[case["kind"]]
            fields = {o.flag.removeprefix("--") for o in entry.options}
            assert set(case) - fields - case_only == set(), case
            kinds.add(case["kind"])
    assert kinds == set(cli._KINDS)


@pytest.fixture(scope="module")
def answered(passes):
    """The report lines of each request of ``passes``, in order."""
    root, requests = passes
    out = []
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        for req in (req for reqs in requests.values() for req in reqs):
            code, lines = verify(req.path)
            assert code in (0, 1), req.rid
            assert len(lines) == sum(c.reports for c in req.cases), req.rid
            out.append((req.path, lines))
    return out


def test_certificate_counts_stay_at_their_floor(answered):
    counts = audit([r for _, lines in answered for r in lines])
    assert counts.keys() == FLOOR.keys()
    for kind, (lines, *floor) in FLOOR.items():
        assert counts[kind][0] == lines, kind
        for key, count, ceiling in zip(COUNTS, counts[kind][1:], floor):
            assert count <= ceiling, (kind, key, count)


#: Each request's stdout, and a probe of numpy's exp, in a fresh interpreter.
AGAIN = """
import contextlib, io, json, sys
import numpy as np
from heatglue import cli
out = []
for path in sys.argv[1:]:
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(["verify", "--input", path])
        except SystemExit:
            pass
    out.append(text.getvalue())
print(json.dumps([out, np.exp(np.linspace(-50.0, 0.0, 2001)).tolist()]))
"""


def test_numpys_kernel_dispatch_moves_no_more_lines(passes, answered):
    # numpy picks its kernels by CPU feature when it is imported; lines
    # that follow that choice by more than their certificate are counted
    from numpy._core._multiarray_umath import __cpu_features__

    off = [name for name, on in __cpu_features__.items()
           if on and ("AVX512" in name or name == "X86_V4")]
    if not any("AVX512" in name for name in off):
        pytest.skip("no AVX512 on this host: both interpreters would take "
                    "the same kernels, so the dispatch is not measured")
    root, _ = passes
    done = fresh_python(AGAIN, *(str(path) for path, _ in answered),
                        cwd=root, capture_output=True, text=True,
                        env={"NPY_DISABLE_CPU_FEATURES": " ".join(off)})
    assert (done.returncode, done.stderr) == (0, "")
    stdouts, probe = json.loads(done.stdout)
    if probe == np.exp(np.linspace(-50.0, 0.0, 2001)).tolist():
        pytest.skip("numpy's exp gave the same values with the AVX512 "
                    "kernels off, so the dispatch is not measured")
    moved = Counter()
    for (_, lines), stdout in zip(answered, stdouts, strict=True):
        again = [json.loads(line) for line in stdout.splitlines()]
        assert [r["case"] for r in again] == [r["case"] for r in lines]
        for r, s in zip(lines, again):
            moved[line_kind(r)] += r["status"] != s["status"] or (
                r["value"] is not None and any(
                    abs(r[key] - s[key]) > 2.0 * r["bound"]
                    for key in ("value", "reference")))
    for kind, count in moved.items():
        assert count <= MOVED.get(kind, 0), (kind, count)
