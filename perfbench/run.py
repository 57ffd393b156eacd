#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload tick-battle --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The Go build cache, the binary, the run
records and the trace spans all go under .bench_build/perfbench in the
checkout. The last line of standard output is the result JSON printed by
the benchmark; a failed build prints no result and exits non-zero.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT = 170  # seconds; a run must end well within three minutes


def go_env():
    """The go tool's environment: its cache, its GOPATH and the
    configuration directory it writes telemetry counters to stay inside
    the checkout; nothing is fetched."""
    env = dict(os.environ)
    env.update(
        GOCACHE=str(BUILD / "gocache"),
        GOPATH=str(BUILD / "gopath"),
        XDG_CONFIG_HOME=str(BUILD / "config"),
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def commit():
    """The checkout's commit, when it is a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    binary = BUILD / "perfbench"
    res = subprocess.run(["go", "build", "-o", str(binary), "."], cwd=HERE, env=go_env(),
                         capture_output=True, text=True, timeout=880)
    if res.returncode != 0:
        sys.stderr.write(res.stdout + res.stderr)
        sys.stderr.write("run.py: build failed\n")
        return None
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["tick-battle", "session-sentry", "serve-frames"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", default=str(BUILD / "results"), help="directory for run records and spans")
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        sys.stderr.write(f"run.py: build failed: {e}\n")
        return 1
    if binary is None:
        return 1
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    cmd = [str(binary), "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-out", args.out]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark timed out\n")
        return 1
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
