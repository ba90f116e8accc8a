"""The lowerq benchmark: four workloads, an output gate and a layer trace.

    python3 perfbench/run.py --workload solve --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --self-test

Each workload is run in a fresh child process per execution, so caches
start cold as they do for a CLI user. Children run one after another, with
no threads, until --seconds have passed. A child whose outputs fail the
gate (wrong exit code, exception, or output differing from the seed's)
counts its operations as failed, and its timings are discarded.

With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
runs the workload twice with every lowerq layer wrapped (see tracer.py),
checks that both traced executions give identical exact counts, and reports
the per-layer metrics and the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

Run records and traces are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
MIN_SETUP_SAMPLES = 9
# A run stops starting children once this much time has passed, so that it
# ends well inside the 180 s a run may take.
RUN_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 170.0


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("repeat_ratio", "density")):
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


# --- host record ---------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def calibration_s() -> float:
    """Time of a fixed pure-Python loop that does not touch lowerq. Diagnostic
    only: it shows host drift and never rescales a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def host_start() -> dict:
    return {
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg()[0],
        "calib_s_start": calibration_s(),
    }


def host_end(host: dict) -> dict:
    host["calib_s_end"] = calibration_s()
    host["loadavg_end"] = os.getloadavg()[0]
    return host


# --- children ------------------------------------------------------------------


def expected_ops(workload: str, size: str) -> int:
    if workload == workloads.STREAM_WORKLOAD:
        return workloads.STREAM_REQUESTS[size]
    return len(workloads.CLI_COMMANDS[workload][size])


def spawn(workload: str, mode: str, size: str, seed: int, traced: bool, deadline: float) -> dict:
    """Run one child to completion and return its result; a crash or timeout
    becomes a result whose every operation failed."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), ROOT, workload, mode, size,
           str(seed), "1" if traced else "0"]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic())))
    except subprocess.TimeoutExpired:
        problem = "timed out"
    else:
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except json.JSONDecodeError:
            result = None
        if result is not None:
            result["child_s"] = time.perf_counter() - t0
            return result
        problem = f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    ops = expected_ops(workload, size) if mode == "run" else 0
    return {"ops": ops, "failed": ops, "errors": [f"child {problem}"], "crashed": True,
            "child_s": time.perf_counter() - t0}


def run_children(workload, size, seed, seconds, traced_pair) -> tuple[list, list, list]:
    """Children of one run: (measured, traced, setup-only).

    Untraced children run until `seconds` have passed (at least one). For the
    stream, the k-th untraced child serves the k-th stream of the seed. A
    traced run adds two traced children on the first stream."""
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    is_stream = workload == workloads.STREAM_WORKLOAD
    measured, traced, setups = [], [], []
    longest = 0.0

    def go(mode, k, trace):
        nonlocal longest
        child_seed = workloads.stream_seed(seed, k) if is_stream else seed
        res = spawn(workload, mode, size, child_seed, trace, deadline)
        longest = max(longest, res["child_s"])
        return res

    def time_left() -> bool:
        now = time.monotonic()
        return now + longest < deadline

    if traced_pair:
        measured.append(go("run", 0, False))
        traced.extend(go("run", 0, True) for _ in range(2))
    while not measured or (time.monotonic() - start < seconds and time_left()):
        k = 0 if traced_pair else len(measured)
        measured.append(go("run", k, False))
    n_setups = sum("setup_s" in c for c in measured + traced)
    longest = 0.0
    while n_setups + len(setups) < MIN_SETUP_SAMPLES and time_left():
        setups.append(go("setup", 0, False))
    return measured, traced, setups


# --- metrics -------------------------------------------------------------------


def ok(child: dict) -> bool:
    return not child.get("crashed") and child["failed"] == 0


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(workload: str, measured: list, setup_samples: list[float]) -> dict:
    """End-to-end metrics of the children that passed the gate.

    CLI children repeat one input, so wall_s and items_per_s are medians over
    children. Stream children serve different streams of the seed, so their
    times are pooled: the spread between streams then cancels instead of
    adding to the run-to-run spread. latency_p50_ms is the median over
    children of each child's median operation latency, which stays between
    the two modes of verify-cartan's fast and slow command instead of
    jumping to an extreme of one; latency_p99_ms pools every operation."""
    good = [c for c in measured if ok(c)]
    walls = [c["wall_s"] for c in good]
    latencies = [x for c in good for x in c["latencies"]]
    if workload == workloads.STREAM_WORKLOAD:
        wall = statistics.fmean(walls)
        rate = sum(c["items"] for c in good) / sum(walls)
    else:
        wall = statistics.median(walls)
        rate = statistics.median(c["items"] / c["wall_s"] for c in good)
    return {
        "wall_s": wall,
        "items_per_s": rate,
        "latency_p50_ms": statistics.median(statistics.median(c["latencies"]) for c in good) * 1000,
        "latency_p99_ms": nearest_rank(latencies, 0.99) * 1000,
        "peak_rss_mb": statistics.median(c["rss_mb"] for c in good),
        "setup_s": statistics.median(setup_samples),
    }


def layer_metrics(measured: list, traced: list) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced children, and any count mismatch."""
    good = [c for c in measured if ok(c)]
    first, second = traced
    errors = [
        f"exact count {name} differs between traced runs: {first['trace']['counts'].get(name)} "
        f"vs {second['trace']['counts'].get(name)}"
        for name in sorted(set(first["trace"]["counts"]) | set(second["trace"]["counts"]))
        if first["trace"]["counts"].get(name) != second["trace"]["counts"].get(name)
    ]
    metrics = {}
    for name, a in first["per_layer"].items():
        b = second["per_layer"][name]
        metrics[name] = a if a == b else (a + b) / 2  # exact counts stay integers
    metrics["trace.overhead_s"] = statistics.median(c["wall_s"] for c in traced) - statistics.median(
        c["wall_s"] for c in good
    )
    return metrics, errors


def run_workload(workload: str, seed: int, seconds: float, traced: bool, size: str = "full") -> dict:
    host = host_start()
    measured, traced_children, setups = run_children(workload, size, seed, seconds, traced)
    host = host_end(host)
    children = measured + traced_children
    attempted = sum(c["ops"] for c in children)
    failed = sum(c["failed"] for c in children)
    errors = [e for c in children for e in c["errors"]]
    metrics: dict = {}
    count_errors: list[str] = []
    usable = any(ok(c) for c in measured) and (not traced or all(ok(c) for c in traced_children))
    if usable and traced:
        values, count_errors = layer_metrics(measured, traced_children)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    elif usable:
        setup_samples = [c["setup_s"] for c in children + setups if "setup_s" in c]
        values = end_to_end(workload, measured, setup_samples)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    errors += count_errors
    result = {
        "correct": usable and failed == 0 and not count_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "size": size, "host": host, "result": result, "errors": errors,
        "children": [
            {k: v for k, v in c.items() if k not in ("latencies", "trace")} for c in children + setups
        ],
    }
    if traced and traced_children and "trace" in traced_children[0]:
        record["trace_record"] = traced_children[0]["trace"]
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(traced)}-{size}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    return {"result": result, "host": host, "errors": errors, "runs": len(measured),
            "setups": len(setups), "record": path}


def report(workload: str, run: dict) -> None:
    host, res = run["host"], run["result"]
    print(
        f"{workload}: {run['runs']} measured children, {run['setups']} set-up-only children; "
        f"host cpu={host['cpu']!r} python={host['python']} nproc={host['nproc']} "
        f"load={host['loadavg_start']:.2f}->{host['loadavg_end']:.2f} "
        f"calib_s={host['calib_s_start']:.4f}->{host['calib_s_end']:.4f}"
    )
    for name, m in res["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    rate = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"  {'error_rate':36s} {rate:.6g} ({res['failed']}/{res['attempted']} operations)")
    for e in run["errors"][:10]:
        print(f"  error: {e}")
    print(f"  record: {os.path.relpath(run['record'], ROOT)}")


# --- self-test -----------------------------------------------------------------


def _flag(argv: list[str], flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def self_test() -> list[str]:
    """Show that the gate trips on wrong outputs, and that a short run of every
    workload emits every metric of BENCHMARK.json with its unit."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import lowerq

    problems = []
    gates = workloads.load_gates()

    # A module corrupted by flip_coefficient must fail the verify-adem gate.
    argv = workloads.CLI_COMMANDS["verify-adem"]["smoke"][0]
    max_index, max_gen = _flag(argv, "--max-index"), _flag(argv, "--max-gen")
    for name, module, should_trip in (
        ("clean module", lowerq.s1_module(), False),
        ("flip_coefficient(2, 3)", lowerq.flip_coefficient(lowerq.s1_module(), 2, 3), True),
    ):
        rep = lowerq.verify_adem(module, max_index, max_gen)
        rec = {"argv": argv, "exit": 0 if rep.passed else 1, "error": None,
               "output": json.dumps(rep.to_obj())}
        tripped = workloads.gate_cli([rec], gates)[1] == 1
        digest_differs = workloads.output_digest(rec["output"]) != gates["commands"][
            workloads.command_key(argv)]["sha256"]
        if (tripped, digest_differs) != (should_trip, should_trip):
            problems.append(f"verify-adem gate on {name}: tripped={tripped}, digest differs={digest_differs}")

    # A stream with one tampered result must fail both the per-request check
    # and the digest.
    requests = workloads.make_stream(workloads.DEFAULT_SEED, workloads.STREAM_REQUESTS["smoke"])
    module = lowerq.s1_module()
    _, _, results = workloads.run_stream(lowerq, (module, lowerq.RelationTable(2)), requests, None)
    bad, errors = workloads.gate_stream(lowerq, requests, results, workloads.DEFAULT_SEED, gates)
    if bad or errors:
        problems.append(f"clean stream failed its gate: {errors}")
    results[17] = results[17] + module.basis_element(0)
    bad, errors = workloads.gate_stream(lowerq, requests, results, workloads.DEFAULT_SEED, gates)
    if 17 not in bad or not any("digest" in e for e in errors):
        problems.append(f"tampered stream result was not caught: bad={bad[:5]}, errors={errors}")

    # Smoke: every workload, untraced and traced, emits every metric.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for traced, section in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for workload in workloads.WORKLOADS:
            run = run_workload(workload, workloads.DEFAULT_SEED, 0, traced, size="smoke")
            res = run["result"]
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if not res["correct"]:
                problems.append(f"smoke {workload} trace={int(traced)} not correct: {run['errors'][:3]}")
            if got != want:
                problems.append(f"smoke {workload} trace={int(traced)} metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
    return problems


# --- entry ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that the gate trips on wrong outputs and that every metric is emitted")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lowerq", "__init__.py")):
        print(f"no lowerq sources under {os.path.join(ROOT, 'src')}; nothing to benchmark", file=sys.stderr)
        return 2
    if args.self_test:
        problems = self_test()
        for p in problems:
            print(f"self-test: FAIL {p}")
        print("self-test: " + ("FAIL" if problems else "ok"))
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload != "all":
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        report(args.workload, run)
        print(json.dumps(run["result"]))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        run = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        report(workload, run)
        res = run["result"]
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{workload}.{k}": m for k, m in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
