"""One measured execution of a workload, in a fresh interpreter.

    python3 perfbench/child.py ROOT WORKLOAD MODE SIZE STREAM_SEED TRACE

MODE is `run` (set up, run the workload, check its outputs) or `setup`
(set up only). SIZE is `full` or `smoke`. The result is one JSON object on
the last line of standard output.

Set-up time runs from before `import lowerq` to the end of set-up, so this
file imports nothing else before it.
"""

import os
import sys
import time


def main(argv: list[str]) -> None:
    root, workload = argv[0], argv[1]
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    import lowerq
    import lowerq.cli  # noqa: F401

    # The stream keeps one module and one relation table for its session.
    session = (lowerq.s1_module(), lowerq.RelationTable(2)) if workload == "compute-stream" else None
    setup_s = time.perf_counter() - t0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    workloads.child_main(argv, lowerq, session, setup_s)


if __name__ == "__main__":
    main(sys.argv[1:])
