"""One set-up sample in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Times ``import polyweight`` before anything else is imported, so the
package pays for every module it loads, as a new process of a user
does.  Then imports the benchmark's own modules and makes the
workload's inputs, untimed, and times the build of the workload's data
and contexts.  Prints the sum of the two times in seconds.  Exits with
code 2 when ``polyweight`` does not come from the checkout's ``src``.
"""

import sys
import time

# Only modules the interpreter has loaded at start-up are used before
# the timed import: ``os`` (and ``os.path``) is one of them.
import os

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, SRC)

begin = time.perf_counter()
import polyweight  # noqa: E402

imported = time.perf_counter() - begin

if os.path.dirname(os.path.abspath(polyweight.__file__)) != os.path.join(SRC, "polyweight"):
    print(f"error: polyweight imported from {polyweight.__file__}", file=sys.stderr)
    sys.exit(2)

import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]]
inputs = workload.inputs(int(sys.argv[2]))
begin = time.perf_counter()
workload.build(polyweight, inputs)
print(imported + time.perf_counter() - begin)
