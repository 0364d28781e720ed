"""One set-up as a user pays it: start, import the package, put the inputs on disk.

    python3 bench/setup_probe.py WORKLOAD SEED DIRECTORY

Prints ``ready`` when done. ``run.py`` times it from spawn to that line.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, directory = sys.argv[1:4]
    workloads.import_package()
    workloads.write_cases(workloads.WORKLOADS[name].cases(int(seed)), Path(directory))
    print("ready", flush=True)
