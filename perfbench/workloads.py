"""Workload inputs, their execution in a child process, and the output gates.

Nothing here imports lowerq: the child passes in the package it imported,
so the driver can use this module without loading the program under test.

Workloads (each a closed loop with one client):

- solve: `lowerq solve` at max degree 72. The solver and the action
  (`ModuleSpec.act`, about 85% of the time) do almost all the work; the
  join product does none.
- verify-adem: `lowerq verify adem` at (48, 24), 29,400 checks. Dominated
  by `apply_word` / `apply_sum` and `GradedElement` construction; each
  pair needs a single Adem expansion, so rewriting stays light.
- verify-cartan: `lowerq verify cartan` at (32, 12) with the `ones` table
  (exit 0) and the `binomial` table (exit 1, 121 failures). The only
  workload that runs `join_product` and renders failures.
- compute-stream: a seeded stream of Adem rewrites followed by
  `apply_sum`, with one `RelationTable` kept for the whole stream as an
  interactive session would keep it. Multi-step rewriting dominates, and it
  is the only workload with a per-request latency distribution.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import time

from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

DEFAULT_SEED = 7
STREAM_WORKLOAD = "compute-stream"

# CLI argv per workload, at full size and at the smoke size used by --self-test.
CLI_COMMANDS = {
    "solve": {
        "full": [["solve", "--module", "s1_p2", "--max-degree", "72", "--format", "json"]],
        "smoke": [["solve", "--module", "s1_p2", "--max-degree", "24", "--format", "json"]],
    },
    "verify-adem": {
        "full": [
            ["verify", "adem", "--module", "s1_p2", "--max-index", "48", "--max-gen", "24",
             "--format", "json"],
        ],
        "smoke": [
            ["verify", "adem", "--module", "s1_p2", "--max-index", "12", "--max-gen", "6",
             "--format", "json"],
        ],
    },
    "verify-cartan": {
        "full": [
            ["verify", "cartan", "--module", "s1_p2", "--max-n", "32", "--max-gen", "12",
             "--table", table, "--format", "json"]
            for table in ("ones", "binomial")
        ],
        "smoke": [
            ["verify", "cartan", "--module", "s1_p2", "--max-n", "8", "--max-gen", "4",
             "--table", table, "--format", "json"]
            for table in ("ones", "binomial")
        ],
    },
}

STREAM_REQUESTS = {"full": 4000, "smoke": 300}

WORKLOADS = (*CLI_COMMANDS, STREAM_WORKLOAD)


def stream_seed(seed: int, k: int) -> int:
    """Seed of the k-th stream a run draws; the first stream uses the run seed."""
    return seed + 1_000_003 * k


def make_stream(seed: int, n: int) -> list[tuple[tuple[int, ...], int]]:
    """n requests (word, generator): word length uniform in 2..5, each index an
    even number uniform in 0..62, generator uniform in 0..127."""
    rng = random.Random(seed)
    requests = []
    for _ in range(n):
        length = rng.randint(2, 5)
        word = tuple(2 * rng.randint(0, 31) for _ in range(length))
        requests.append((word, rng.randint(0, 127)))
    return requests


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


def stream_key(seed: int, n: int) -> str:
    return f"seed={seed} n={n}"


def output_digest(text: str) -> str:
    """sha256 of the canonical JSON of a CLI output, without `elapsed_ms`."""
    obj = json.loads(text)
    if isinstance(obj, dict):
        obj.pop("elapsed_ms", None)
    canon = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(canon.encode()).hexdigest()


def stream_digest(requests, rendered: list[str]) -> str:
    """sha256 over one line `word|gen|rendered result` per request."""
    h = hashlib.sha256()
    for (word, gen), text in zip(requests, rendered, strict=True):
        h.update(f"{','.join(map(str, word))}|{gen}|{text}\n".encode())
    return h.hexdigest()


def load_gates() -> dict:
    with open(os.path.join(HERE, "gates.json")) as fh:
        return json.load(fh)


# --- CLI workloads ----------------------------------------------------------


def run_cli(lq, commands, tracer):
    """Run CLI commands in-process, one after another; return one record each."""
    main = tracer.root("command", lq.cli.main) if tracer else lq.cli.main
    records = []
    for argv in commands:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            error = None
        except Exception as e:  # a crash is a failed operation, not a benchmark error
            code, error = None, f"{type(e).__name__}: {e}"
        records.append({"argv": argv, "seconds": time.perf_counter() - t0,
                        "exit": code, "error": error, "output": buf.getvalue()})
    return records


def gate_cli(records, gates):
    """Check exit codes and output digests against the seed's.

    Returns (items, failed commands, error messages); items are the solver
    instances or verification checks of the commands that passed."""
    items = failed = 0
    errors = []
    for rec in records:
        key = command_key(rec["argv"])
        want = gates["commands"][key]
        problem = rec["error"]
        if problem is None and rec["exit"] != want["exit"]:
            problem = f"exit {rec['exit']}, expected {want['exit']}"
        if problem is None:
            try:
                digest = output_digest(rec["output"])
            except ValueError as e:
                problem = f"output is not JSON: {e}"
            else:
                if digest != want["sha256"]:
                    problem = f"output digest {digest[:12]} differs from the seed's {want['sha256'][:12]}"
        if problem is None:
            obj = json.loads(rec["output"])
            items += obj["instances"] if "instances" in obj else obj["checked"]
        else:
            failed += 1
            errors.append(f"{key}: {problem}")
    return items, failed, errors


# --- the stream -------------------------------------------------------------


def run_stream(lq, session, requests, tracer):
    """Serve the requests one after another; return (wall, latencies, results)."""
    module, relations = session

    def request(word, gen):
        rewritten = lq.adem_rewrite(lq.OperationWord(word, 2), relations)
        return module.apply_sum(rewritten, module.basis_element(gen))

    if tracer:
        request = tracer.root("request", request)
    latencies = []
    results = []
    perf = time.perf_counter
    t_start = perf()
    for word, gen in requests:
        t0 = perf()
        out = request(word, gen)
        latencies.append(perf() - t0)
        results.append(out)
    return perf() - t_start, latencies, results


def gate_stream(lq, requests, results, seed, gates):
    """Check every result against direct application of the unrewritten word
    on a fresh module and, where the seed's digest is recorded for this
    stream, the digest of the rendered results.

    Returns (indices of failed requests, error messages); a digest mismatch
    alone fails every request."""
    checker = lq.s1_module()
    bad = [
        i
        for i, ((word, gen), out) in enumerate(zip(requests, results, strict=True))
        if checker.apply_word(word, checker.basis_element(gen)) != out
    ]
    errors = [f"request {i} {requests[i]}: result differs from apply_word" for i in bad[:5]]
    want = gates["streams"].get(stream_key(seed, len(requests)))
    if want is not None:
        digest = stream_digest(requests, [r.render() for r in results])
        if digest != want:
            errors.append(f"stream digest {digest[:12]} differs from the seed's {want[:12]}")
            if not bad:
                bad = list(range(len(requests)))
    return bad, errors


# --- child process entry ----------------------------------------------------


def child_main(argv, lq, session, setup_s) -> None:
    """Body of child.py after set-up; prints the result as one JSON line."""
    root, workload, mode, size, seed, trace = argv
    src = os.path.join(root, "src")
    if not os.path.abspath(lq.__file__).startswith(src + os.sep):
        raise SystemExit(f"lowerq was imported from {lq.__file__}, not from {src}")
    out = {"setup_s": setup_s}
    if mode == "run":
        out.update(measure(lq, session, workload, size, int(seed), trace == "1"))
    print(json.dumps(out))


def measure(lq, session, workload, size, seed, traced) -> dict:
    gates = load_gates()
    tracer = Tracer(lq) if traced else None
    if workload == STREAM_WORKLOAD:
        requests = make_stream(seed, STREAM_REQUESTS[size])
        with tracer or contextlib.nullcontext():
            wall, latencies, results = run_stream(lq, session, requests, tracer)
        bad, errors = gate_stream(lq, requests, results, seed, gates)
        out = {"wall_s": wall, "ops": len(requests), "failed": len(bad),
               "items": len(requests) - len(bad), "latencies": latencies}
    else:
        with tracer or contextlib.nullcontext():
            records = run_cli(lq, CLI_COMMANDS[workload][size], tracer)
        items, failed, errors = gate_cli(records, gates)
        latencies = [r["seconds"] for r in records]
        out = {"wall_s": sum(latencies), "ops": len(records), "failed": failed,
               "items": items, "latencies": latencies}
    out["errors"] = errors
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        out["per_layer"] = tracer.per_layer()
        out["trace"] = tracer.record()
    return out
