"""Peak resident memory of one pass of a workload, in a fresh interpreter.

    python perfbench/rss_probe.py WORKLOAD SEED

Run from the checkout root.  The benchmark process's own allocations (pass
records, timing lists, the speed sampler) shift where the allocator places
the workload's large arrays, and so whether a freed array's pages are
reused: removing one field from the benchmark's pass record moved the peak
of the law workload from 172 to 198 MB.  A fresh process that runs only the
job list has a peak that depends on the program alone.  Prints one JSON
object with the peak RSS in MB: of this process or, for the cli workload,
of its largest child.
"""

import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(workload, seed):
    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
    import jobs

    for job in jobs.WORKLOADS[workload](int(seed)).jobs:
        try:
            job.run(None)
        except Exception:  # the timed passes count and report the failure
            pass
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    print(json.dumps({"peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
