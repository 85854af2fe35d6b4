"""Set-up probe: a fresh interpreter imports mlk and builds and validates one
workload's inputs, then exits. ``run.py`` times it from spawn to exit.

    python3 perfbench/probe.py chain|lattice|cli SEED [--tiny]
"""

import sys

import workloads

if __name__ == "__main__":
    name, seed, tiny = sys.argv[1], int(sys.argv[2]), "--tiny" in sys.argv[3:]
    if name == "cli":
        workloads.validate_documents(workloads.cli_documents(seed, tiny))
    else:
        workloads.build(name, seed, tiny)
