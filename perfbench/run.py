"""heatglue benchmark: time to a certified value on four ``verify`` workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Draws the workload's problem files from the seed, answers every request
with ``heatglue verify`` in this process, checks each report against the
benchmark's own oracles, writes a results file under
``perfbench/_results/`` and prints one JSON line: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import io
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from speed import SpeedSampler, normalized, speed_probe  # noqa: E402
from workloads import WORKLOADS, make_passes, pass_count  # noqa: E402

#: Fresh interpreters timed per run for ``setup_s`` (plus one untimed).
SETUP_PROBES = 5
#: p90 is reported only over at least this many requests (ten beyond it).
P90_MIN_SAMPLES = 100


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(p.relative_to(ROOT).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def environment(seed: int, threads_env: str | None) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        **{pkg: importlib.metadata.version(pkg)
           for pkg in ("numpy", "scipy", "click")},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "HEATGLUE_THREADS": ("unset" if threads_env is None
                             else f"unset for the run (was {threads_env!r})"),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure_setup(passes, workdir: pathlib.Path) -> list[tuple[float, float]]:
    """Start fresh interpreters one after another; each imports heatglue.cli
    and loads every problem file of the run.  The first is not timed.
    Returns (seconds, reference kernel time) pairs, one per timed probe."""
    listing = workdir / "files.txt"
    names = [req.path for reqs in passes for req in reqs]
    names += [f"{workdir.relative_to(ROOT).as_posix()}/{n}"
              for reqs in passes for req in reqs for n in req.files]
    listing.write_text("\n".join(names))
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT), str(listing)]
    times = []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        if i:
            times.append((probe["ready"] - start - probe["spent"],
                          statistics.harmonic_mean(probe["probes"])))
    return times


def _invoke(group, path: str) -> tuple[str, object]:
    """One request: ``heatglue verify --input PATH`` with stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            group.main(["verify", "--input", path], prog_name="heatglue",
                       standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), code


def run_passes(invoke, passes, rec=None) -> list[dict]:
    """Answer every request.  The host's speed is sampled before and after
    each request and every ``SAMPLE_EVERY_S`` during it; a row's ``ref``
    is the harmonic mean of those reference kernel times, and its
    ``latency`` leaves out the time spent in the samples."""
    rows = []
    sampler = SpeedSampler(rec)
    ref = speed_probe()
    for reqs in passes:
        for req in reqs:
            if rec is not None:
                rec.request = len(rows)
            with sampler:
                start = time.perf_counter()
                try:
                    stdout, code = invoke(req.path)
                    raised = None
                except Exception as exc:  # a crash is a failed request, not the end
                    stdout, code, raised = "", None, f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - start - sampler.spent
            ref_after = speed_probe()
            probes = [ref, *sampler.samples, ref_after]
            rows.append({"req": req, "latency": latency,
                         "ref": statistics.harmonic_mean(probes),
                         "stdout": stdout, "code": code, "raised": raised})
            ref = ref_after
    return rows


def _check_all(oracles, rows) -> dict:
    """Oracle checks of every request, summed over the run."""
    out = {"attempted": len(rows), "failed": 0, "wrong": [], "bounded": 0,
           "certified": 0, "max_err": 0.0, "reports": 0}
    for row in rows:
        row["reports"] = 0
        if row["raised"] is not None:
            out["failed"] += 1
            out["wrong"].append(f"{row['req'].rid}: raised {row['raised']}")
            continue
        chk = oracles.check_request(row["req"], row["stdout"], row["code"])
        row["reports"] = chk["reports"]
        out["failed"] += chk["failed"]
        out["wrong"] += chk["wrong"]
        out["max_err"] = max(out["max_err"], chk["max_err"])
        for key in ("bounded", "certified", "reports"):
            out[key] += chk[key]
    return out


def _pass_walls(rows, passes, key) -> list[float]:
    walls, i = [], 0
    for reqs in passes:
        walls.append(sum(key(r) for r in rows[i:i + len(reqs)]))
        i += len(reqs)
    return walls


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "heatglue" / "cli.py").is_file():
        print(f"no heatglue sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    threads_env = os.environ.pop("HEATGLUE_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    wl = WORKLOADS[args.workload]
    n_pass = pass_count(wl, args.seconds)
    n_plain = max(1, n_pass // 2) if args.trace else n_pass
    n_traced = n_plain if args.trace else 0

    workdir = BENCH / "_work" / f"{wl.name}-{args.seed}-{args.trace}-{os.getpid()}"
    results_dir = BENCH / "_results"
    t_run = time.perf_counter()
    try:
        workdir.mkdir(parents=True)
        results_dir.mkdir(exist_ok=True)
        passes = make_passes(wl, args.seed, n_plain + n_traced, workdir, ROOT)
        setup_times = measure_setup(passes, workdir)

        import heatglue.cli

        group = heatglue.cli.main
        warm = workdir / "warmup.json"
        warm.write_text(json.dumps({"cases": [
            {"kind": "graph-glue", "input": "line3", "t": 1.0},
            {"kind": "interval-glue", "L1": 1.0, "L2": 2.0, "x": 0.5,
             "y": 0.7, "t": 0.4}]}))
        _invoke(group, str(warm))
        gc.collect()

        # a traced run splits the passes: the even ones run plain, then the
        # odd ones run traced, since the recorder cannot be taken out again
        plain_passes = passes[::2] if args.trace else passes
        plain = run_passes(lambda p: _invoke(group, p), plain_passes)
        traced, rec, boundaries = [], None, []
        if args.trace:
            from tracer import LAYERS, Recorder, instrument, layer_metrics

            rec = Recorder()
            boundaries = instrument(rec, {n: m for n, m in sys.modules.items()
                                          if n.startswith("heatglue.")})
            invoke = rec.wrap(lambda p: _invoke(group, p), "cli.main")
            gc.collect()
            traced = run_passes(invoke, passes[1::2], rec)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        import oracles  # scipy is loaded only now, after the peak RSS reading

        checked = _check_all(oracles, plain + traced)
        def norm(row):
            return normalized(row["latency"], row["ref"])

        latencies = [norm(r) for r in plain]
        walls = _pass_walls(plain, plain_passes, norm)
        setup = [normalized(sec, ref) for sec, ref in setup_times]
        record = {
            "workload": wl.name,
            "config": {"seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "passes_untraced": n_plain,
                       "passes_traced": n_traced,
                       "requests": checked["attempted"],
                       "setup_probes": SETUP_PROBES},
            "environment": environment(args.seed, threads_env),
            "end_to_end": {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.fmean(walls),
                "request_s.p50": statistics.median(latencies),
                "peak_rss_mb": peak_rss_mb,
            },
            "quality": {
                "fail_share": checked["failed"] / checked["attempted"],
                "certified_share": (checked["certified"] / checked["bounded"]
                                    if checked["bounded"] else None),
                "bounded_reports": checked["bounded"],
                "err_log10.max": (math.log10(checked["max_err"])
                                  if checked["max_err"] > 0 else None),
                "reports": checked["reports"],
                "request_s.p90": (statistics.quantiles(latencies, n=10)[-1]
                                  if len(latencies) >= P90_MIN_SAMPLES else None),
            },
            "samples": {
                "setup_s": setup, "pass_wall_s": walls, "request_s": latencies,
                "raw_setup_s": [sec for sec, _ in setup_times],
                "raw_pass_wall_s": _pass_walls(plain, plain_passes,
                                               lambda r: r["latency"]),
                "raw_request_s": [r["latency"] for r in plain],
                "reference_kernel_s": [r["ref"] for r in plain],
            },
            "correct": not checked["wrong"],
            "wrong": checked["wrong"][:50],
        }
        if args.trace:
            traced_wall = sum(r["latency"] for r in traced)
            layers = layer_metrics(rec, sum(r["reports"] for r in traced))
            layers["trace.wall_s"] = traced_wall
            layers["unattributed_s"] = traced_wall - sum(
                layers[f"{name}.self_s"] for name in LAYERS)
            layers["trace.overhead"] = (
                sum(norm(r) for r in traced) / n_traced
                / (sum(norm(r) for r in plain) / n_plain) - 1.0)
            record["per_layer"] = layers
            record["boundaries"] = boundaries
            record["spans"] = {"kept": rec.spans_kept,
                               "dropped": rec.spans_dropped}
            rec.dump(results_dir / f"{wl.name}-seed{args.seed}-spans.npz")
        record["elapsed_s"] = time.perf_counter() - t_run
        stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
        (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        kind = "per_layer" if args.trace else "end_to_end"
        metrics = {m["name"]: {"value": record[kind][m["name"]], "unit": m["unit"]}
                   for m in declared[kind]}
        for line in checked["wrong"][:10]:
            print(f"wrong: {line}", file=sys.stderr)
        print(json.dumps({"correct": record["correct"],
                          "attempted": checked["attempted"],
                          "failed": checked["failed"], "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
