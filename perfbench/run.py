"""The repository benchmark: one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload degraded-rebuild --seed 1 --seconds 35 --trace 0

The workload runs in a fresh child interpreter (``workload.py``) that
imports ``repro`` from this checkout's ``src``.  Its scratch files (the
native kernel's compiler output, traced spans) stay under
``.bench_build/perfbench`` in the checkout.  The child's last stdout
line is the result object; this process relays it and exits nonzero
when the child fails, the result is incorrect, or it runs out of time.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ("bulk-write", "degraded-rebuild")
#: The child is killed after this long, so a hung run still exits
#: (nonzero) within the 180 s a run is allowed.
TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="HV Code served-stack benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: run from the root of a repro checkout (no src/repro here)", file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=scratch)
    env = dict(os.environ, PYTHONPATH=src, TMPDIR=tmp, PYTHONDONTWRITEBYTECODE="1")
    cmd = [
        sys.executable,
        os.path.join(here, "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--spans-dir", os.path.join(scratch, "spans")]
    try:
        child = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stdout.write(child.stdout.decode())
    sys.stdout.flush()
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
