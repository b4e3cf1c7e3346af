"""One cold set-up of a workload in a fresh interpreter.

Imports tailrisk, builds the workload's models and a replication context for
every cell, then prints one JSON line with the phase times.  ``run.py``
times the whole process from spawn to that line, which is the set-up a user
pays before the first replication.

    python3 bench/setup_probe.py <workload>
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import tailrisk  # noqa: E402,F401

t1 = time.perf_counter()
import workloads  # noqa: E402

wl = workloads.WORKLOADS[sys.argv[1]]
models = workloads.build_models(wl)
t2 = time.perf_counter()
workloads.build_contexts(wl, models)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "contexts_s": t3 - t2}),
      flush=True)
