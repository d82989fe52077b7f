#!/usr/bin/env python3
"""Build and run the ThetaNet pipeline benchmark for one workload.

    python3 pipebench/run.py --workload build-1e5|route-loaded|route-mac \
        --seed N --seconds S --trace 0|1

Configures pipebench/ (a CMake package that compiles the library from
../src) in Release mode under $CARGO_TARGET_DIR/pipebench, or
.bench_build/pipebench when that is unset, builds the `pipebench` binary and
runs it. Build output goes to stderr; the binary's stdout is passed through,
so the last stdout line is the result JSON. A traced run also writes its
spans to <build dir>/traces/<workload>-<seed>.json.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 175


def fail(msg: str) -> None:
    print(f"pipebench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "pipebench"


def build(out: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "pipebench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "pipebench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return out / "pipebench"


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    out = build_dir()
    binary = build(out)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        (out / "traces").mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(out / "traces" / f"{args.workload}-{args.seed}.json")]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(res.stdout)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
