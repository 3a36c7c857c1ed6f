"""Set-up probe: one fresh interpreter that imports the CLI and generates a workload's inputs.

Run as ``python3 perfbench/probe.py WORKLOAD SEED WORKDIR`` with ``src`` on
PYTHONPATH.  It prints one JSON line with the time of each set-up phase as soon
as the first job could start; the parent times the whole span from spawning it
to that line.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import scipy.interpolate  # noqa: F401

    t2 = time.perf_counter()
    import sybilgames.cli  # noqa: F401

    t3 = time.perf_counter()
    import workloads

    workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    t4 = time.perf_counter()
    phases = {
        "import_numpy_s": t1 - t0,
        "import_scipy_interpolate_s": t2 - t1,
        "import_sybilgames_s": t3 - t2,
        "inputs_s": t4 - t3,
    }
    print(json.dumps(phases), flush=True)


if __name__ == "__main__":
    main()
