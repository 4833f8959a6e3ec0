#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> [--record results.jsonl]

Run from the repository root. The script builds perfbench/ (a CMake
package that compiles the runtime from src/) into .bench_build/perfbench,
runs one workload, adds the host fingerprint, and prints as its last line
one JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, and the run's spans are written
to .bench_build/spans/<workload>.trace.json. A per-layer metric that a
workload does not exercise reads 0.

--record appends {workload, seed, trace, host, result} as one JSON line to
the given file, the input compare.py reads.

Exit status: 0 when every correctness check passed; 1 when a check failed
(the result is still printed); 2 on a usage, build or run error (nothing
is printed on stdout).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SPANS = ROOT / ".bench_build" / "spans"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD), "-j", jobs,
                 "--target", "perfbench"]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return BUILD / "perfbench"


def read_first_line(path, prefix=""):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else \
                        line.strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """Content hash of the runtime and benchmark sources: the checkout the
    benchmark runs in need not be a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return done.stdout.strip() or "unknown"


def host_fingerprint(program_host):
    host = dict(program_host)
    host["cpu_model"] = read_first_line("/proc/cpuinfo", "model name")
    host["governor"] = read_first_line(
        "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
    load = read_first_line("/proc/loadavg")
    host["loadavg_1m"] = float(load.split()[0]) if load != "unknown" else -1.0
    host["git_commit"] = git_commit()
    host["source_sha256"] = source_digest()
    # Results from an RTM host or under an OTM_* override are never
    # compared against results without the same marks (see compare.py).
    marks = []
    if host.get("htm_available"):
        marks.append("rtm")
    marks += [f"{k}={v}" for k, v in sorted(host.get("otm_env", {}).items())]
    host["marks"] = marks
    return host


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--record", help="append the result to this JSONL file")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (have {', '.join(names)})")
    if not 0 < args.seconds <= 120:
        fail("--seconds must be in (0, 120]")
    traced = args.trace == "1"
    wanted = spec["per_layer" if traced else "end_to_end"]

    exe = build()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--programs", str(HERE / "programs")]
    if traced:
        SPANS.mkdir(parents=True, exist_ok=True)
        cmd += ["--out-dir", str(SPANS)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"{args.workload} exited with status {done.returncode}")
    try:
        result = json.loads(lines[-1])
        program_host = json.loads(next(
            l for l in lines if l.startswith("host "))[5:])
    except (ValueError, StopIteration):
        fail("could not parse the program's output")

    got = result["metrics"]
    known = {m["name"]: m for m in wanted}
    extra = sorted(set(got) - set(known))
    if extra:
        fail(f"metrics missing from BENCHMARK.json: {', '.join(extra)}")
    absent = [n for n in known if n not in got]
    if absent and not traced:
        fail(f"end-to-end metrics not produced: {', '.join(absent)}")
    for name in absent:
        got[name] = {"value": 0.0, "unit": known[name]["unit"]}
    for name, m in known.items():
        if got[name]["unit"] != m["unit"]:
            fail(f"{name}: unit {got[name]['unit']} but BENCHMARK.json "
                 f"says {m['unit']}")
    result["metrics"] = {n: got[n] for n in known}

    host = host_fingerprint(program_host)
    print("host " + json.dumps(host, sort_keys=True))
    for line in lines[:-1]:
        if line.startswith("note "):
            print(line)
    if absent:
        print("note not exercised by this workload (reported as 0): " +
              ", ".join(absent))
    for name, m in result["metrics"].items():
        print(f"metric {name:<40} {m['value']:>20.6f} {m['unit']}")
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": int(args.trace), "host": host,
                                "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
