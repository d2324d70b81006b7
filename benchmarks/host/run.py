"""Entry point named in ``BENCHMARK.json``.

    python3 benchmarks/host/run.py --workload NAME --seed N --seconds S --trace 0|1

is ``python -m benchmarks.host run`` with the same arguments, started by
path so the command names only files of the benchmark's own directory.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from benchmarks.host.cli import main

    sys.exit(main(["run", *sys.argv[1:]]))
