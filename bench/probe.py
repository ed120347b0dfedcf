"""Set-up probe: import steadydim, generate one workload, write its first input.

    python3 bench/probe.py WORKLOAD SEED

bench/run.py starts it in a fresh interpreter and times it from process
start to the 'ready' line; that is the setup_s metric: the time until the
first network is ready to analyze.  It imports only what the measured
operations need, and writes one file rather than the whole workload,
whose per-file cost belongs to the benchmark, not to steadydim.
"""

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import steadydim.cli  # noqa: E402,F401
from workloads import WORKLOADS, write_inputs  # noqa: E402

if __name__ == "__main__":
    tmp = tempfile.mkdtemp(dir=HERE.parent, prefix=".bench_work-")
    try:
        write_inputs(WORKLOADS[sys.argv[1]].build(int(sys.argv[2]), False)[:1], Path(tmp))
        print("ready", flush=True)
    finally:
        shutil.rmtree(tmp)
