#!/usr/bin/env python3
"""Build the rtrbench Go package from source and run one benchmark run.

Run from the repository root:

    python3 rtrbench/run.py --workload rtr_search --seed 1 --seconds 15 --trace 0

Everything the build writes (binary, Go build cache, temporary files)
goes under $CARGO_TARGET_DIR, or .bench_build at the repository root when
that is unset. The build never touches the network. Arguments are passed
through to the rtrbench binary; its exit code is this script's.
"""
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    go = shutil.which("go")
    if go is None:
        sys.stderr.write("rtrbench: no go toolchain on PATH\n")
        return 2
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gomod"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),  # go telemetry
        "GOTMPDIR": tmp,
        "GOENV": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
    })
    binary = os.path.join(out, "rtrbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("rtrbench: build failed\n")
        return build.returncode or 2
    # The binary bounds its own child processes; the timeout here only
    # guards against a hang in the orchestrating process itself.
    run = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return run.wait(timeout=178)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        sys.stderr.write("rtrbench: run exceeded 178 s\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
