"""Benchmark of cold ``basechange`` CLI commands.

One workload run is a closed loop with one client: it runs the workload's
commands one after another, each in a fresh interpreter, so every command
pays its full cold cost as a user does.  ``--seed`` sets the command order
of each pass and the ``--format`` of each ``chartable``.  Passes start while
the projected end stays within ``--seconds`` (at least one pass).  Every
command's standard output must match the digest recorded in
``expected.json``, and every check of a report must read ``pass``.

Calibrated seconds.  The speed of a shared host drifts by a quarter and
more from one minute to the next, for a fixed loop as much as for the
program, so plain seconds of two runs of the same code differ by more than
any useful bound.  After each command the benchmark therefore runs a fixed
reference loop of the program's kind (``reference``, pinned to the same CPU
as the commands) for at least ``REFERENCE_SHARE`` of the command's time.
The end-to-end times ``wall_cal_s``, ``cpu_cal_s`` and ``setup_s`` are the
mean time of a pass over the run, scaled by ``REFERENCE_S`` over the mean
time of one reference loop in that run: seconds on a host where the loop
takes ``REFERENCE_S``.  Host drift cancels; a slower program still reads
higher.  Per-layer times are plain seconds of the traced run, and
``host.reference_s`` is that run's mean reference loop.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --all [--out FILE]   # every workload, both modes
    python3 perfbench/run.py --record             # rewrite expected.json

The last line of a workload run is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics (from spans, see ``layers.py``) with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

from layers import PER_LAYER_UNITS, layer_metrics, setup_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
LAUNCHER = BENCH / "launch.py"
HASH_SEED = "0"
# Every run must end within 180 s; a command still running then is killed.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_cal_s": "s", "cpu_cal_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# The time one reference loop is scaled to; about its time on a quiet
# 2-vCPU Xeon sandbox.
REFERENCE_S = 0.06
# Reference time run after each command, as a share of the command's time.
REFERENCE_SHARE = 0.2


def load_json(name: str) -> dict:
    with open(BENCH / name) as fh:
        return json.load(fh)


def child_env() -> dict:
    """The parent environment without interpreter or ``BASECHANGE_``
    settings, with the source tree on the path and a pinned hash seed."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith(("PYTHON", "BASECHANGE_"))
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def environment() -> dict:
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "hash_seed": HASH_SEED,
        "src_lines": src_lines,
    }


def reference(p: int = 5) -> int:
    """Fixed interpreter work of the program's kind: half the rows of the
    Cayley table of GL2(p), matrices as tuples looked up in an index."""
    elems = [
        (a, b, c, d)
        for a in range(p) for b in range(p) for c in range(p) for d in range(p)
        if (a * d - b * c) % p
    ]
    index = {e: i for i, e in enumerate(elems)}
    acc = 0
    for a, b, c, d in elems[::2]:
        row = [
            index[(a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p]
            for e, f, g, h in elems
        ]
        acc = (acc * 31 + sum(row)) % 1000003
    return acc


def time_reference(at_least: float = 0.0) -> tuple[int, float, float]:
    """Run the reference loop in this process until ``at_least`` seconds
    have passed (at least once): loops, wall and CPU seconds."""
    wall, cpu = time.perf_counter(), time.process_time()
    loops = 0
    while loops == 0 or time.perf_counter() - wall < at_least:
        reference()
        loops += 1
    return loops, time.perf_counter() - wall, time.process_time() - cpu


def pin_to_one_cpu():
    """Run this process and the children it starts on one CPU, so that
    the reference loop and the commands see the same core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _drain(stream, sink: list):
    sink.append(stream.read())
    stream.close()


def run_command(args: list[str], mode: str, cmd_id: int, deadline: float) -> dict:
    """Run one CLI command under the launcher and measure it."""
    read_fd, write_fd = os.pipe()
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(LAUNCHER), mode, str(write_fd), str(cmd_id), *args],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=(write_fd,),
    )
    os.close(write_fd)
    outputs = {"stdout": [], "stderr": [], "report": []}
    readers = [
        threading.Thread(target=_drain, args=(stream, outputs[key]))
        for key, stream in (
            ("stdout", proc.stdout),
            ("stderr", proc.stderr),
            ("report", os.fdopen(read_fd, "rb")),
        )
    ]
    for t in readers:
        t.start()
    killer = threading.Timer(max(0.0, deadline - started), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - started
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    lines = outputs["report"][0].decode().splitlines()
    header = (
        json.loads(lines[0]) if lines
        else {"imported": started, "peak_rss_kib": usage.ru_maxrss, "counters": {}}
    )
    spans = [json.loads(line) for line in lines[1:]]
    start_s = header["imported"] - started
    return {
        "args": args,
        "code": proc.returncode,
        "stdout": outputs["stdout"][0],
        "stderr": outputs["stderr"][0],
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": header["peak_rss_kib"] / 1024.0,
        "start_s": start_s,
        "setup_s": start_s + setup_time(spans),
        "spans": spans,
        "counters": header["counters"],
    }


def run_measured(args: list[str], mode: str, cmd_id: int, deadline: float) -> dict:
    """``run_command``, then the reference loop for ``REFERENCE_SHARE`` of
    the command's time; the loop's count and seconds join the result."""
    result = run_command(args, mode, cmd_id, deadline)
    result["ref_loops"], result["ref_wall_s"], result["ref_cpu_s"] = time_reference(
        REFERENCE_SHARE * result["wall_s"]
    )
    return result


def check(result: dict, digests: dict) -> str | None:
    """Why a command's result is wrong, or None when it is right."""
    key = " ".join(result["args"])
    if result["code"] != 0:
        return "%s: exit status %d" % (key, result["code"])
    if b"Traceback" in result["stderr"]:
        return "%s: traceback on stderr" % key
    if hashlib.sha256(result["stdout"]).hexdigest() != digests.get(key):
        return "%s: stdout differs from the recorded digest" % key
    if result["args"][0] in ("verify", "heis"):
        for c in json.loads(result["stdout"])["checks"]:
            if c["status"] != "pass":
                return "%s: check %s is %s" % (key, c["name"], c["status"])
    return None


def pass_commands(commands: list[str], rng: random.Random) -> list[list[str]]:
    """One pass: the workload's commands in seeded order, with a seeded
    output format for each ``chartable``."""
    out = []
    for cmd in commands:
        args = cmd.split()
        if args[0] == "chartable":
            args += ["--format", rng.choice(("csv", "json"))]
        out.append(args)
    rng.shuffle(out)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load_json("workloads.json")["workloads"][name]
    digests = load_json("expected.json")["digests"]
    mode = "trace" if trace else "setup"
    deadline = time.monotonic() + RUN_LIMIT_S
    pin_to_one_cpu()
    # Untimed warm-up: byte-compiles the package and warms the file cache.
    time_reference()
    for i, cmd in enumerate(spec["smoke"]):
        run_command(cmd.split(), mode, i, deadline)
    rng = random.Random(seed)
    passes, failures, attempted = [], [], 0
    window_start = time.monotonic()
    longest = 0.0
    while True:
        results = []
        pass_start = time.monotonic()
        for i, args in enumerate(pass_commands(spec["commands"], rng)):
            result = run_measured(args, mode, i, deadline)
            attempted += 1
            problem = check(result, digests)
            if problem:
                failures.append(problem)
            results.append(result)
        passes.append(results)
        now = time.monotonic()
        longest = max(longest, now - pass_start)
        if now + longest > window_start + seconds or now + longest > deadline:
            break
    return {"passes": passes, "attempted": attempted, "failures": failures}


def reference_time(passes: list[list[dict]], key: str = "ref_wall_s") -> float:
    """Mean seconds of one reference loop over the passes."""
    results = [r for p in passes for r in p]
    return sum(r[key] for r in results) / sum(r["ref_loops"] for r in results)


def end_to_end(passes: list[list[dict]]) -> dict:
    """The ``END_TO_END_UNITS`` metrics of a run, and the plain ``wall_s``
    and ``cpu_s`` (median seconds of a pass) they are calibrated from."""
    def mean_pass(key):
        return sum(r[key] for p in passes for r in p) / len(passes)

    def median_pass(key):
        return statistics.median(sum(r[key] for r in p) for p in passes)

    wall_scale = REFERENCE_S / reference_time(passes)
    cpu_scale = REFERENCE_S / reference_time(passes, "ref_cpu_s")
    return {
        "wall_cal_s": mean_pass("wall_s") * wall_scale,
        "cpu_cal_s": mean_pass("cpu_s") * cpu_scale,
        "setup_s": mean_pass("setup_s") * wall_scale,
        "peak_rss_mb": max(r["rss_mb"] for p in passes for r in p),
        "wall_s": median_pass("wall_s"),
        "cpu_s": median_pass("cpu_s"),
    }


def per_layer(passes: list[list[dict]]) -> dict:
    rows = []
    for p in passes:
        counters = Counter()
        for r in p:
            counters.update(r["counters"])
        row = layer_metrics(
            [s for r in p for s in r["spans"]],
            counters,
            sum(r["start_s"] for r in p),
            sum(r["wall_s"] for r in p),
        )
        row["host.reference_s"] = reference_time([p])
        rows.append(row)
    return {m: statistics.median(row[m] for row in rows) for m in PER_LAYER_UNITS}


def source_ready() -> bool:
    return (SRC / "basechange" / "cli.py").is_file()


def run_one(args) -> int:
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        values, units = per_layer(result["passes"]), PER_LAYER_UNITS
    else:
        units = END_TO_END_UNITS
        values = {m: v for m, v in end_to_end(result["passes"]).items() if m in units}
    n = len(result["passes"])
    for problem in result["failures"]:
        print("FAILED", problem)
    for m, v in values.items():
        print("%-28s %14.6f %-5s (%d pass%s)" % (m, v, units[m], n, "" if n == 1 else "es"))
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced: end-to-end metrics with their
    sample counts, the failed ratio and the tracing overhead."""
    report = {"environment": environment(), "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    print("environment", json.dumps(report["environment"]))
    row = "%-9s %-16s %12.4f %-5s n=%d"
    for name in load_json("workloads.json")["workloads"]:
        plain = run_workload(name, args.seed, args.seconds, False)
        traced = run_workload(name, args.seed, args.seconds, True)
        e2e, layers = end_to_end(plain["passes"]), per_layer(traced["passes"])
        # Both calibrated, so that host drift between the two runs cancels.
        overhead = end_to_end(traced["passes"])["wall_cal_s"] - e2e["wall_cal_s"]
        failures = plain["failures"] + traced["failures"]
        attempted = plain["attempted"] + traced["attempted"]
        n, nt = len(plain["passes"]), len(traced["passes"])
        for problem in failures:
            print("FAILED", name, problem)
        for m, v in e2e.items():
            print(row % (name, m, v, END_TO_END_UNITS.get(m, "s"), n))
        print(row % (name, "failed_ratio", len(failures) / attempted, "ratio", attempted))
        print(row % (name, "trace_overhead", overhead, "s", nt))
        report["workloads"][name] = {
            "end_to_end": e2e,
            "samples": n,
            "failed_ratio": len(failures) / attempted,
            "attempted": attempted,
            "failures": failures,
            "trace_overhead_s": overhead,
            "per_layer": layers,
            "traced_samples": nt,
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 1 if any(w["failures"] for w in report["workloads"].values()) else 0


def record() -> int:
    """Run every workload command, in both chartable formats, once and
    store the digests of their standard output."""
    digests, problems = {}, []
    for spec in load_json("workloads.json")["workloads"].values():
        for cmd in spec["commands"]:
            args_list = cmd.split()
            variants = (
                [args_list + ["--format", f] for f in ("csv", "json")]
                if args_list[0] == "chartable" else [args_list]
            )
            for a in variants:
                result = run_command(a, "setup", 0, time.monotonic() + 3600)
                key = " ".join(a)
                digests[key] = hashlib.sha256(result["stdout"]).hexdigest()
                problem = check(result, digests)
                if problem:
                    problems.append(problem)
                print("%-55s %s %.2fs" % (key, digests[key][:16], result["wall_s"]))
    if problems:
        for problem in problems:
            print("FAILED", problem)
        return 1
    with open(BENCH / "expected.json", "w") as fh:
        json.dump({"environment": environment(), "digests": digests}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(load_json("workloads.json")["workloads"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, traced and untraced")
    parser.add_argument("--out", help="with --all: write every number to this JSON file")
    parser.add_argument("--record", action="store_true", help="rewrite the stdout digests")
    args = parser.parse_args(argv)
    if not source_ready():
        sys.stderr.write("error: no basechange source under %s\n" % SRC)
        return 2
    if args.record:
        return record()
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("one of --workload, --all or --record is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
