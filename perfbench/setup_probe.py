"""Start-up probe: import the program, build one workload's config, report ready.

`run.py` times this process from its start until the `ready` line, which is
the set-up a user pays before the first call: importing gmineq (and with it
numpy and mpmath) and building the config.  It then times the reference loop
of `refspeed` and reports its seconds per iteration and the seconds it took,
so that the caller can scale the start-up time to the reference speed as
it scales each pass.  Usage:

    python3 perfbench/setup_probe.py <workload>
"""

import sys
import time

import checkout


def main(workload: str) -> None:
    checkout.prepare()
    import refspeed
    import workloads

    workloads.SPECS[workload].make_config(workloads.pass_seed(0, 0))
    start = time.perf_counter()
    per_iter = refspeed.Reference()()
    print(f"ready {per_iter!r} {time.perf_counter() - start!r}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
