"""Layer tracing for the benchmark's traced runs, done entirely from outside
the package.

Entering a `Tracer` (or calling `install()`) replaces each public function
of the eight lowerq modules, and the methods in `METHODS`, by a timing
wrapper. A function is rebound at every module attribute that names it,
because the package imports names directly (`lucas_binom` is bound in
`fields`, `operations` and `actions`; `adem_rewrite` in `verify` and the
package root). Leaving it (or `uninstall()`) puts every original back.

Hot leaves are aggregated into calls, total time and self time per
function, so a million calls do not each become a span. The functions in
`SPANNED`, and each root (one CLI command or one stream request), also
record a span with its parent id and the id of its root.
"""

from __future__ import annotations

import inspect
import time

MODULES = ("fields", "algebra", "operations", "actions", "verify", "solver", "serialize", "cli")

# Validation helpers run inside every constructor; wrapping them would
# double the tracing cost and no per-layer metric reads them.
SKIP = {"fields.check_prime", "fields.is_prime"}

METHODS = {
    "actions": {"ModuleSpec": ("act", "apply_op", "apply_word", "apply_sum", "cartan_expand")},
    "algebra": {
        "GradedElement": ("__init__",),
        "JoinAlgebraSpec": ("join_product", "entry", "slot_target", "sign"),
    },
    "operations": {"RelationTable": ("terms_for",)},
}

# Wrapped names whose distinct argument tuples (after self) are tracked.
DISTINCT = {"actions.ModuleSpec.act", "operations.RelationTable.terms_for"}

SPANNED = {
    "cli.main",
    "solver.solve_product_table",
    "solver.rref_mod_p",
    "solver.nullspace_basis",
    "verify.verify_adem",
    "verify.verify_cartan",
    "verify.verify_sign_laws",
    "serialize.canonical_json",
}

# Wrapped names whose return values feed the per-layer counts.
KEEP_RESULTS = {
    "solver.solve_product_table",
    "verify.verify_adem",
    "verify.verify_cartan",
    "verify.verify_sign_laws",
    "serialize.canonical_json",
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self.results: dict[str, list] = {name: [] for name in KEEP_RESULTS}
        self.spans: list[dict] = []
        self._stack: list[list[float]] = [[0.0]]  # child time of each open call
        self._span_ids: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # --- wrappers -----------------------------------------------------

    def _wrap(self, name: str, fn, spanned: bool):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        seen = self.distinct.get(name)
        kept = self.results.get(name)
        stack = self._stack
        perf = time.perf_counter

        if spanned or kept is not None:
            span_ids = self._span_ids
            spans = self.spans
            origin = self._origin

            def wrapper(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                sid = len(spans)
                parent = span_ids[-1] if span_ids else None
                rec = {"id": sid, "parent": parent, "root": span_ids[0] if span_ids else sid,
                       "name": name}
                spans.append(rec)
                span_ids.append(sid)
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf()
                    dt = t1 - t0
                    span_ids.pop()
                    stack.pop()
                    stack[-1][0] += dt
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt - frame[0]
                    rec["start"] = t0 - origin
                    rec["end"] = t1 - origin
                if kept is not None:
                    kept.append(result)
                return result

            return wrapper

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if seen is not None:
                    seen.add(args[1:])

        return wrapper

    def root(self, name: str, fn):
        """Wrap a benchmark-side entry point (one command or one request) as a root span."""
        return self._wrap(name, fn, spanned=True)

    # --- install / uninstall -------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import importlib

        pkg = self.package.__name__
        modules = {m: importlib.import_module(f"{pkg}.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}  # id(original function) -> wrapper
        for short, mod in modules.items():
            for attr, val in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or name in SKIP
                    or not inspect.isfunction(val)
                    or val.__module__ != mod.__name__
                ):
                    continue
                wrapped[id(val)] = self._wrap(name, val, name in SPANNED)
        for mod in (self.package, *modules.values()):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and id(val) in wrapped:
                    self._set(mod, attr, wrapped[id(val)])
        for short, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[short], cls_name)
                for meth in methods:
                    name = f"{short}.{cls_name}.{meth}"
                    self._set(cls, meth, self._wrap(name, vars(cls)[meth], name in SPANNED))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- results -------------------------------------------------------

    def _self(self, *names: str) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def _calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def _repeat_ratio(self, name: str) -> float:
        calls = self._calls(name)
        return 1.0 - len(self.distinct[name]) / calls if calls else 0.0

    def _solver_phases(self) -> tuple[float, float, float]:
        """Assemble / eliminate / rectangle time of every solve, split at the
        entry of rref_mod_p and the exit of nullspace_basis."""
        by_parent: dict[int, dict[str, dict]] = {}
        for s in self.spans:
            if s["name"] in ("solver.rref_mod_p", "solver.nullspace_basis"):
                by_parent.setdefault(s["parent"], {})[s["name"]] = s
        assemble = eliminate = rectangle = 0.0
        for s in self.spans:
            if s["name"] != "solver.solve_product_table":
                continue
            kids = by_parent[s["id"]]
            rref, null = kids["solver.rref_mod_p"], kids["solver.nullspace_basis"]
            assemble += rref["start"] - s["start"]
            eliminate += null["end"] - rref["start"]
            rectangle += s["end"] - null["end"]
        return assemble, eliminate, rectangle

    def counts(self) -> dict[str, int]:
        """Every exact count the trace yields: calls per wrapped function,
        distinct arguments, and the solver and verify totals."""
        out = {f"{name}.calls": stat[0] for name, stat in sorted(self.stats.items())}
        out.update({f"{name}.distinct": len(seen) for name, seen in sorted(self.distinct.items())})
        solves = self.results["solver.solve_product_table"]
        out["solver.instances"] = sum(r.instances for r in solves)
        out["solver.deferred"] = sum(r.deferred for r in solves)
        out["solver.equations"] = sum(r.equations for r in solves)
        out["solver.rank"] = sum(r.rank for r in solves)
        out["solver.nonzeros"] = sum(
            1 for r in solves for row in r.system.rows for v in row if v
        )
        out["solver.cells"] = sum(len(r.system.rows) * len(r.slots) for r in solves)
        reports = [
            rep
            for name in ("verify.verify_adem", "verify.verify_cartan", "verify.verify_sign_laws")
            for rep in self.results[name]
        ]
        out["verify.checked"] = sum(rep.checked for rep in reports)
        out["verify.failures"] = sum(len(rep.failures) for rep in reports)
        return out

    def per_layer(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json (all but trace.overhead_s)."""
        c = self.counts()
        assemble, eliminate, rectangle = self._solver_phases()
        cli = [n for n in self.stats if n.startswith("cli.")]
        return {
            "actions.act.calls": self._calls("actions.ModuleSpec.act"),
            "actions.act.self_s": self._self("actions.ModuleSpec.act"),
            "actions.act.repeat_ratio": self._repeat_ratio("actions.ModuleSpec.act"),
            "algebra.graded_element.built": self._calls("algebra.GradedElement.__init__"),
            "algebra.graded_element.self_s": self._self("algebra.GradedElement.__init__"),
            "solver.assemble_s": assemble,
            "solver.eliminate_s": eliminate,
            "solver.rectangle_s": rectangle,
            "solver.instances": c["solver.instances"],
            "solver.deferred": c["solver.deferred"],
            "solver.equations": c["solver.equations"],
            "solver.rank": c["solver.rank"],
            "solver.density": c["solver.nonzeros"] / c["solver.cells"] if c["solver.cells"] else 0.0,
            "operations.rewrite_sum.calls": self._calls("operations.rewrite_sum"),
            "operations.rewrite_sum.self_s": self._self("operations.rewrite_sum"),
            "operations.terms_for.calls": self._calls("operations.RelationTable.terms_for"),
            "operations.terms_for.repeat_ratio": self._repeat_ratio("operations.RelationTable.terms_for"),
            "algebra.join_product.calls": self._calls("algebra.JoinAlgebraSpec.join_product"),
            "algebra.join_product.self_s": self._self("algebra.JoinAlgebraSpec.join_product"),
            "fields.lucas_binom.calls": self._calls("fields.lucas_binom"),
            "fields.lucas_binom.self_s": self._self("fields.lucas_binom"),
            "verify.checked": c["verify.checked"],
            "verify.failures": c["verify.failures"],
            "verify.self_s": self._self(
                "verify.verify_adem", "verify.verify_cartan", "verify.verify_sign_laws"
            ),
            "serialize.canonical_json_s": (
                self.stats["serialize.canonical_json"][1] if "serialize.canonical_json" in self.stats else 0.0
            ),
            # Not an exact count: verify reports carry elapsed_ms, whose digits vary.
            "serialize.bytes_out": sum(
                len(text.encode()) for text in self.results["serialize.canonical_json"]
            ),
            "cli.self_s": self._self(*cli),
        }

    def record(self) -> dict:
        """Everything the trace file keeps: per-function stats, counts and spans."""
        return {
            "functions": {
                name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                for name, s in sorted(self.stats.items())
            },
            "counts": self.counts(),
            "spans": self.spans,
        }
