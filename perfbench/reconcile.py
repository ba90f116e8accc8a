"""Re-measure, once each and in one process, the sizes whose timings ROADMAP.md quotes.

    python3 perfbench/reconcile.py

- `solve` at max degree 40, 60, 80 and 100;
- `verify_adem` at (24, 12) and (48, 24);
- the untraced solver phases at max degree 72, split at the entry of
  `rref_mod_p` and the exit of `nullspace_basis` (only those two are wrapped);
- the 3,009,006 binomials of acceptance criterion 7 (n <= 1000, every k <= n,
  p in 2, 3, 5, 7, 11, 13), through `binom_mod_p` and through bare
  `lucas_binom`.

Single timings, so host drift shows in them; perfbench/BASELINE.md compares
them with the quoted numbers. Prints one JSON object.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import lowerq  # noqa: E402
from lowerq import solver  # noqa: E402

PRIMES = (2, 3, 5, 7, 11, 13)


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def binomials(fn) -> int:
    count = 0
    for p in PRIMES:
        for n in range(1001):
            for k in range(n + 1):
                fn(n, k, p)
                count += 1
    return count


def solver_phases(max_degree: int) -> dict:
    marks = {}
    rref, null = solver.rref_mod_p, solver.nullspace_basis

    def timed_rref(*args):
        marks["rref_in"] = time.perf_counter()
        return rref(*args)

    def timed_null(*args):
        out = null(*args)
        marks["null_out"] = time.perf_counter()
        return out

    solver.rref_mod_p, solver.nullspace_basis = timed_rref, timed_null
    try:
        t0 = time.perf_counter()
        solver.solve_product_table(lowerq.s1_module(), max_degree)
        t1 = time.perf_counter()
    finally:
        solver.rref_mod_p, solver.nullspace_basis = rref, null
    return {
        "assemble_s": marks["rref_in"] - t0,
        "eliminate_s": marks["null_out"] - marks["rref_in"],
        "rectangle_s": t1 - marks["null_out"],
    }


def main() -> None:
    out = {}
    for d in (40, 60, 80, 100):
        secs, res = timed(lowerq.solve_product_table, lowerq.s1_module(), d)
        out[f"solve_D{d}"] = {"s": secs, "rank": res.rank, "free": len(res.free_slots),
                              "equations": res.equations}
    out["solve_D72_phases"] = solver_phases(72)
    for max_index, max_gen in ((24, 12), (48, 24)):
        secs, rep = timed(lowerq.verify_adem, lowerq.s1_module(), max_index, max_gen)
        out[f"verify_adem_{max_index}_{max_gen}"] = {"s": secs, "checked": rep.checked}
    for name, fn in (("binom_mod_p", lowerq.binom_mod_p), ("lucas_binom", lowerq.lucas_binom)):
        secs, count = timed(binomials, fn)
        out[f"binomials_{name}"] = {"s": secs, "calls": count}
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
