"""Time one workload's set-up in a fresh interpreter.

Usage: python3 bench/setup_probe.py <workload>

Prints the seconds spent importing the package, loading the config,
building the dataset and initialising the model. The interpreter's own
start-up is not included.
"""

import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    import workloads

    workloads.set_up(sys.argv[1])
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
