"""Record the output gate: exit code and digest of every benchmark command,
and the digest of the default-seed stream, into perfbench/gates.json.

    python3 perfbench/record_gates.py

Run it only on a commit whose outputs are known to be right; the recorded
gates are what every later run is checked against.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import lowerq  # noqa: E402
import lowerq.cli  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    gates = {"commands": {}, "streams": {}}
    for sizes in workloads.CLI_COMMANDS.values():
        for size, commands in sizes.items():
            for rec in workloads.run_cli(lowerq, commands, None):
                if rec["error"] is not None:
                    raise SystemExit(f"{rec['argv']}: {rec['error']}")
                gates["commands"][workloads.command_key(rec["argv"])] = {
                    "exit": rec["exit"],
                    "sha256": workloads.output_digest(rec["output"]),
                }
    for n in workloads.STREAM_REQUESTS.values():
        requests = workloads.make_stream(workloads.DEFAULT_SEED, n)
        session = (lowerq.s1_module(), lowerq.RelationTable(2))
        _, _, results = workloads.run_stream(lowerq, session, requests, None)
        key = workloads.stream_key(workloads.DEFAULT_SEED, n)
        gates["streams"][key] = workloads.stream_digest(requests, [r.render() for r in results])
    with open(os.path.join(HERE, "gates.json"), "w") as fh:
        json.dump(gates, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(gates, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
