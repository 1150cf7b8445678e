"""Child process timed by the benchmark's set-up measurement.

Usage: python3 setup_probe.py <src dir> <config file>

Imports sqeiar from <src dir>, loads the config and evaluates its initial
profiles, then prints "ready".  The parent times process start to that line.
"""

import sys

sys.path.insert(0, sys.argv[1])

from sqeiar import load_config  # noqa: E402

load_config(sys.argv[2]).initial_array()
print("ready", flush=True)
