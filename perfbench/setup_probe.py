"""Set-up probe: a fresh interpreter imports fraceq and builds a case list.

``run.py`` starts this script and times it from the start of the process
until the ``ready`` line arrives, which is when the first case could start.
The line also carries the total and median time of the reference loop,
timed before the import.

usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

PROBE_LOOPS = 15

if __name__ == "__main__":
    import reference

    # the machine's current speed, for rescaling; run.py subtracts this time
    loops = sorted(reference.time_loop() for _ in range(PROBE_LOOPS))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import fraceq.cli  # noqa: F401  (the import is what is timed)

    import cases

    cases.build_cases(sys.argv[1], int(sys.argv[2]))
    sys.stdout.write(f"ready {sum(loops)!r} {loops[PROBE_LOOPS // 2]!r}\n")
    sys.stdout.flush()
