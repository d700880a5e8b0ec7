"""Fresh-interpreter set-up probe.

Usage: python3 perfbench/setup_probe.py ROOT FILE_LIST

Imports ``heatglue.cli`` from ROOT/src, reads and parses every problem
file named in FILE_LIST (one path per line, relative to ROOT), and prints
one JSON line: ``ready``, the ``time.perf_counter()`` at which the first
request could start; ``spent``, the seconds this interpreter spent on
speed samples before that; and ``probes``, the reference kernel times
taken before, during and after the work.  On Linux ``perf_counter`` is
CLOCK_MONOTONIC, shared by all processes, so the caller subtracts the time
at which it started this interpreter and gets the set-up time up to the
first request.
"""

import json
import pathlib
import sys
import time

from speed import SpeedSampler, speed_probe

root = pathlib.Path(sys.argv[1])
begin = time.perf_counter()
before = speed_probe()
spent = time.perf_counter() - begin
sys.path.insert(0, str(root / "src"))
with SpeedSampler() as sampler:
    import heatglue.cli  # noqa: E402,F401

    for line in pathlib.Path(sys.argv[2]).read_text().splitlines():
        json.loads((root / line).read_text())
    ready = time.perf_counter()
    spent += sampler.spent
after = speed_probe()
print(json.dumps({"ready": ready, "spent": spent,
                  "probes": [before, *sampler.samples, after]}))
