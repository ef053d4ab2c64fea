#!/usr/bin/env python3
"""Build visionsim's benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds the benchmark package
(`perfbench/`) and the `visionsim` binary that `live_serve` runs as a
child, both in release mode, into `$CARGO_TARGET_DIR` (default
`.bench_build/`), then runs the benchmark with the given arguments. Build
output goes to stderr; the last line of stdout is the result. See
`perfbench/README.md`.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def cargo_build(target_dir, *args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    done = subprocess.run(cmd, cwd=ROOT, env={**os.environ, "CARGO_TARGET_DIR": str(target_dir)},
                          stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def source_sha256():
    """Digest of the sources the benchmark builds, for provenance."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("src", "crates", "perfbench/src"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def main():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"{ROOT} holds no visionsim sources to build")
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target_dir.is_absolute():
        target_dir = Path.cwd() / target_dir
    cargo_build(target_dir, "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml"))
    cargo_build(target_dir, "--manifest-path", str(ROOT / "Cargo.toml"), "--bin", "visionsim")

    env = {
        **os.environ,
        "PERFBENCH_GIT_COMMIT": command_output(["git", "rev-parse", "HEAD"])
        if (ROOT / ".git").exists() else "none",
        "PERFBENCH_RUSTC": command_output(["rustc", "--version"]),
        "PERFBENCH_SOURCE_SHA256": source_sha256(),
    }
    bench = target_dir / "release" / "perfbench"
    args = [str(bench), *sys.argv[1:],
            "--serve-bin", str(target_dir / "release" / "visionsim"),
            "--out", str(ROOT / "perfbench" / "out")]
    sys.stdout.flush()
    os.execve(bench, args, env)


if __name__ == "__main__":
    main()
