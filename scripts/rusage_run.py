"""Run a Python script and report what the process used, from getrusage.

    python3 scripts/rusage_run.py SCRIPT [ARG ...]

SCRIPT runs as __main__ (runpy) with ARG as its arguments, in this process.
When it ends, one JSON line goes to stderr: minor and major page faults,
user and system CPU seconds, and peak RSS in MB.  For example, the page
faults of one benchmark run:

    python3 scripts/rusage_run.py bench/run.py --workload shape-verify --seed 0
"""

import json
import os
import resource
import runpy
import sys


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.argv = sys.argv[1:]
    sys.path.insert(0, os.path.dirname(os.path.abspath(sys.argv[0])))  # as python SCRIPT does
    try:
        runpy.run_path(sys.argv[0], run_name="__main__")
    finally:
        use = resource.getrusage(resource.RUSAGE_SELF)
        print(json.dumps({"minor_faults": use.ru_minflt, "major_faults": use.ru_majflt,
                          "user_s": use.ru_utime, "system_s": use.ru_stime,
                          "peak_rss_mb": use.ru_maxrss / 1024}), file=sys.stderr)


if __name__ == "__main__":
    main()
