#!/usr/bin/env python3
"""LessLog end-to-end benchmark.

Builds the LessLog libraries, `lesslog_cli` and the workload binary
`lesslog_perfbench` from the checkout this file sits in, runs one workload
and prints, as the last line of standard output, one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.

    python3 perfbench/run.py --workload swarm_get --seed 1 --seconds 20 --trace 0

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json.
With `--trace 1` the workload runs twice with the same seed, untraced and
then traced; the metrics are the per-layer metrics of BENCHMARK.json, the
tracing overhead is the traced `run_s` minus the untraced one, and the
counts that must repeat exactly (events, messages, copies, simulated
latencies) are compared between the two runs. The spans are written to
`<build>/traces/<workload>-seed<seed>.jsonl`.

The build goes to `$CARGO_TARGET_DIR/perfbench` (default `.bench_build/`
at the checkout root). See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # the whole invocation, build excluded
BUILD_TIMEOUT_S = 850.0
WORKLOADS = ("paper_fig8", "swarm_get", "swarm_churn", "wire_loopback")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configures once, then builds the two targets (a no-op when fresh)."""
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs, "--target",
                  "lesslog_cli", "lesslog_perfbench"])
    with open(log, "w") as out:
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                   timeout=BUILD_TIMEOUT_S, cwd=ROOT)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build failed: {e}")
            if r.returncode != 0:
                if len(steps) == 2 and cmd is steps[0]:
                    shutil.rmtree(bdir / "CMakeFiles", ignore_errors=True)
                    (bdir / "CMakeCache.txt").unlink(missing_ok=True)
                tail = log.read_text(errors="replace").splitlines()[-15:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (exit {r.returncode}); see {log}")
    binary = bdir / "lesslog_perfbench"
    cli = bdir / "lesslog" / "tools" / "lesslog_cli"
    if not binary.exists() or not cli.exists():
        fail("build produced no binaries")
    return binary, cli


def source_digest():
    """sha256 over the sources the benchmark builds (the commit, when the
    checkout is not a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "include", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for p in files:
        if p.exists():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_binary(binary, cli, args, trace, scratch, trace_out, started):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--cli", str(cli), "--scratch", str(scratch)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 5:
        fail("out of time before the run")
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=left,
                           cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {DEADLINE_S:.0f} s")
    if r.stderr:
        print(r.stderr, file=sys.stderr, end="")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{args.workload} exited {r.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload} printed no result")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be > 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())

    bdir = build_dir()
    binary, cli = build(bdir)
    started = time.monotonic()
    loadavg = Path("/proc/loadavg").read_text().split()[0]

    scratch = bdir / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        plain = run_binary(binary, cli, args, False, scratch, None, started)
        traced = None
        if args.trace:
            trace_dir = bdir / "traces"
            trace_dir.mkdir(exist_ok=True)
            trace_out = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
            traced = run_binary(binary, cli, args, True, scratch, trace_out,
                                started)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report = traced or plain
    correct = bool(plain["correct"]) and bool(report["correct"])
    problems = list(plain["problems"]) + (
        list(traced["problems"]) if traced else [])
    if traced is not None:
        for key, value in plain["det"].items():
            if traced["det"].get(key) != value:
                correct = False
                problems.append(f"traced run differs on {key}: "
                                f"{traced['det'].get(key)} != {value}")

    provenance = dict(report["info"])
    provenance.update({
        "workload": args.workload,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "loadavg_start": loadavg,
        "trace": args.trace,
    })
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    for p in problems:
        print(f"check failed: {p}")
    print(f"{args.workload}: correct={correct} attempted={report['attempted']}"
          f" failed={report['failed']}")
    for name, value in sorted(plain["e2e"].items()):
        print(f"  e2e    {name:<28} {value:.6g}")
    for name, value in sorted(plain["layer"].items()):
        if traced is None:
            print(f"  layer  {name:<28} {value:.6g}  (untraced)")

    metrics = {}
    if args.trace:
        layer = dict(traced["layer"])
        layer["trace.overhead_s"] = (traced["e2e"]["run_s"]
                                     - plain["e2e"]["run_s"])
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layer.get(m["name"], 0.0),
                                  "unit": m["unit"]}
            print(f"  layer  {m['name']:<28} {metrics[m['name']]['value']:.6g}"
                  f" {m['unit']}")
    else:
        for m in spec["end_to_end"]:
            if m["name"] not in plain["e2e"]:
                fail(f"{args.workload} did not report {m['name']}")
            metrics[m["name"]] = {"value": plain["e2e"][m["name"]],
                                  "unit": m["unit"]}

    print(json.dumps({"correct": correct,
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
