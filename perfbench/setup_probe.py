"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 setup_probe.py NAME SEED WORKDIR PARAMS_JSON

Set-up is what a user pays once per study: importing mlte and building the
workload's inputs from its seed.
Prints the elapsed seconds as the last line.  Only the standard library is
loaded before the clock starts.
"""

import json
import os
import sys
import time

if __name__ == "__main__":
    name, seed, workdir, params = sys.argv[1], int(sys.argv[2]), sys.argv[3], json.loads(sys.argv[4])
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    start = time.perf_counter()
    import mlte  # noqa: F401  (timed)
    import workloads

    wl = workloads.Workload(name, params, seed, workdir)
    elapsed = time.perf_counter() - start
    if wl.kind == "estimate":
        os.remove(wl.csv_path)
    print(repr(elapsed))
