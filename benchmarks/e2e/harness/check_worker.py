"""Child process of ``measure._run_checks``: a pickled list of
:class:`~harness.checks.CheckJob` on stdin, the pickled list of their
:class:`~harness.checks.CheckResult` on stdout.

    python3 -m harness.check_worker < jobs.pickle > results.pickle

A plain child the parent starts and waits for, not a ``multiprocessing``
pool: a pool with the ``spawn`` start method also starts a resource-tracker
process that the parent never waits for, and that one outlived the run.
"""

from __future__ import annotations

import pickle
import sys

from harness.checks import run_check


def main() -> int:
    out = sys.stdout.buffer
    sys.stdout = sys.stderr  # whatever the engine prints stays out of the pickle
    jobs = pickle.load(sys.stdin.buffer)
    pickle.dump([run_check(job) for job in jobs], out)
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
