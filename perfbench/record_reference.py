"""Record the outputs that ``run.py`` compares against at its default seed.

Usage (from the repository root):

    python3 perfbench/record_reference.py [workload ...]

Writes ``perfbench/reference/<workload>.json``: a map from each checked
result's key to the program's exact output text.  It refuses to record a
result whose own verdict is a failure.  Re-record only on a commit whose
outputs are meant to change; a refactor must leave these files as they are.
"""

from __future__ import annotations

import json
import os
import sys

from run import DEFAULT_SEED, REFERENCE_DIR, SRC
from workloads import WORKLOADS


def main(argv):
    names = argv or sorted(WORKLOADS)
    os.environ.pop("PMCONN_JOBS", None)
    sys.path.insert(0, SRC)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in names:
        setup, run_pass = WORKLOADS[name]
        results = run_pass(setup(DEFAULT_SEED))
        bad = [key for key, _, verdict in results if not verdict]
        if bad:
            print(f"{name}: failing verdicts, nothing recorded: {bad}",
                  file=sys.stderr)
            return 1
        path = os.path.join(REFERENCE_DIR, f"{name}.json")
        with open(path, "w") as fh:
            json.dump({key: text for key, text, _ in results}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(results)} results -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
