"""Benchmark entry point: `python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1`.

Run from the root of a worstvote checkout.  Each measurement is a fresh
worker process (perfbench/worker.py) running one workload's queries back to
back through the public API.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the line before it
holds audit fields (raw seconds, kernel seconds, input mix).

--trace 0 reports the end-to-end metrics of one timed run.  Set-up time is
the median over SETUPS fresh processes, each timed from its start to the
point where the first query would be sent, divided by the reference kernel
run just before and after it, and expressed in seconds at the kernel's
nominal speed (NOMINAL_KERNEL_S), so that it drifts no more than the query
times do.  The raw seconds are in the audit line.

--trace 1 reports per-layer metrics from a traced worker, plus an untraced
worker at the same jobs for the tracing overhead.  Scan traces at jobs=1
(forked workers do not return their spans) and adds an untraced worker at
its own jobs for the figures only the process pool shows.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import metrics, refkernel  # noqa: E402

WORKLOADS = ("scan", "maximality", "protocols")
SETUPS = 7  # set-up probes per timed run, the timed worker included
# One kernel reading on the reference machine (2-core x86 VM, Python 3.11.7)
# in its fast regime; converts set-up time in ref units back to seconds.
NOMINAL_KERNEL_S = 0.0105
RUN_LIMIT_S = 170  # every worker of a run must end within this


class WorkerError(RuntimeError):
    pass


def _nproc() -> int:
    """The worker count the worstvote CLI uses by default."""
    return max(1, min(8, os.cpu_count() or 1))


def _worker(args, deadline: float, *, jobs: int, trace: int = 0, setup_only: bool = False):
    """Run one worker to its end; returns (set-up seconds, its JSON output)."""
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--jobs", str(jobs), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    # The worker's own pool processes share its session; end them all together.
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), _kill, (proc,))
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            _kill(proc)
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready.strip() != "READY":
        raise WorkerError(f"worker {' '.join(cmd[2:])} exited with {code}")
    return setup_s, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))


def _kill(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "worstvote" / "__init__.py").is_file():
        print(f"no worstvote sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    jobs = _nproc() if args.workload == "scan" else 1
    try:
        if args.trace:
            traced_jobs = 1
            _, traced = _worker(args, deadline, jobs=traced_jobs, trace=1)
            _, untraced = _worker(args, deadline, jobs=traced_jobs)
            outs = [traced, untraced]
            if jobs != traced_jobs:
                outs.append(_worker(args, deadline, jobs=jobs)[1])
            values = metrics.per_layer(traced, untraced, outs[-1])
            audit = {"traced_queries": len(traced["records"]), "jobs": jobs,
                     "failures": [r for o in outs for r in o["records"] if not r["ok"]]}
        else:
            # Each set-up with the kernel readings just before and after it;
            # the timed worker reads the kernel itself right after set-up.
            setups = []
            for i in range(SETUPS):
                before = refkernel.timed_kernel()
                if i == SETUPS // 2:
                    setup_s, out = _worker(args, deadline, jobs=jobs)
                    after = out["records"][0]["kernel_before_s"]
                else:
                    setup_s, _ = _worker(args, deadline, jobs=jobs, setup_only=True)
                    after = refkernel.timed_kernel()
                setups.append((setup_s, before, after))
            outs = [out]
            values, audit = metrics.end_to_end(out, setups, NOMINAL_KERNEL_S)
    except WorkerError as err:
        print(err, file=sys.stderr)
        return 1

    attempted = sum(len(o["records"]) for o in outs)
    failed = sum(not r["ok"] for o in outs for r in o["records"])
    print(json.dumps({"audit": audit}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
