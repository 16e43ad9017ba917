"""Per-layer tracing installed from outside the package.

``Tracer.install`` wraps the public functions of ``cubeclaw.hypercube``,
``detect``, ``witness``, ``verify`` and ``cli`` (plus the
``VertexSet.members`` / ``VertexSet.from_members`` methods) and rebinds
each wrapper in every ``cubeclaw`` module namespace that holds the original
object, because modules import one another's functions by name: ``split``
is bound as both ``hypercube.split`` and ``witness.split``, and a call made
inside the package goes through the importing module's binding.

Every call records a span (function, parent span, job, start, end) in flat
arrays that stay in memory until ``write_spans``.  Per function the tracer
keeps the call count, the inclusive busy time of outermost activations and
the self time (busy time minus the time covered by direct child spans).

Calls made inside ``--workers`` pool processes are not traced: the pool
forks after the wrappers are installed, but the children's spans die with
them.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("hypercube", "detect", "witness", "verify", "cli")

# Argument validators run once per vertex or per VertexSet construction;
# wrapping them would mostly measure the wrapper itself.
UNTRACED = {"check_dim", "check_vertex"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.incl_ns: list[int] = []
        self.self_ns: list[int] = []
        self.depth: list[int] = []  # open activations, so recursion counts once in .s
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.job = -1
        self.stack: list[list[int]] = []  # open spans: [span id, child ns]
        self.claws_found = 0
        self.descent_levels = 0
        self.extremal_nodes = 0
        self.mask_tables: dict[int, tuple[int, ...]] = {}
        self.reports: list[tuple[str, int, float, int]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import cubeclaw
        from cubeclaw.hypercube import VertexSet

        observers = {
            "detect.find_claw": self._observe_claw,
            "witness.find_witness_inductive": self._observe_extraction,
            "verify.extremal_search": self._observe_extremal,
            "hypercube.neighbor_masks": self._observe_neighbor_masks,
            "verify.verify_theorem_exhaustive": self._observe_reports,
            "verify.verify_proposition_exhaustive": self._observe_reports,
            "verify.verify_case_claims": self._observe_reports,
            "verify.random_agreement_test": self._observe_reports,
        }
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"cubeclaw.{layer}"]
            for name, obj in vars(module).items():
                if name.startswith("_") or name in UNTRACED or inspect.isclass(obj):
                    continue
                if callable(obj) and getattr(obj, "__module__", None) == module.__name__:
                    qual = f"{layer}.{name}"
                    replaced[id(obj)] = self._wrap(qual, obj, observers.get(qual))
        modules = [cubeclaw] + [sys.modules[f"cubeclaw.{layer}"] for layer in LAYERS]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, name, replaced[id(obj)])
        members = VertexSet.__dict__["members"]
        VertexSet.members = self._wrap("hypercube.VertexSet.members", members, None)
        from_members = VertexSet.__dict__["from_members"].__func__
        VertexSet.from_members = classmethod(
            self._wrap("hypercube.VertexSet.from_members", from_members, None)
        )

    def _wrap(self, qual: str, fn, observe):
        fid = len(self.names)
        self.names.append(qual)
        for counter in (self.calls, self.incl_ns, self.self_ns, self.depth):
            counter.append(0)
        stack = self.stack
        calls, incl, own, depth = self.calls, self.incl_ns, self.self_ns, self.depth
        span_fn, span_parent, span_job = self.span_fn, self.span_parent, self.span_job
        span_start, span_end = self.span_start, self.span_end
        tracer = self

        def traced(*args, **kwargs):
            sid = len(span_fn)
            span_fn.append(fid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_job.append(tracer.job)
            span_start.append(0)
            span_end.append(0)
            frame = [sid, 0]
            stack.append(frame)
            depth[fid] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                depth[fid] -= 1
                span = end - start
                span_start[sid] = start
                span_end[sid] = end
                calls[fid] += 1
                own[fid] += span - frame[1]
                if depth[fid] == 0:
                    incl[fid] += span
                if stack:
                    stack[-1][1] += span
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- derived counts ----------------------------------------------------

    def _observe_claw(self, args, claw) -> None:
        if claw is not None:
            self.claws_found += 1

    def _observe_extraction(self, args, result) -> None:
        self.descent_levels += len(result[1].steps)

    def _observe_extremal(self, args, result) -> None:
        self.extremal_nodes += result.nodes_explored

    def _observe_neighbor_masks(self, args, table) -> None:
        self.mask_tables[args[0]] = table

    def _observe_reports(self, args, result) -> None:
        for report in result if isinstance(result, list) else [result]:
            self.reports.append(
                (report.check_name, report.universe_size, report.wall_time, report.worker_count)
            )

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer counts and times of everything traced so far."""
        out: dict[str, float] = {}
        for fid, qual in enumerate(self.names):
            out[f"{qual}.calls"] = self.calls[fid]
            out[f"{qual}.s"] = self.incl_ns[fid] / 1e9
            out[f"{qual}.self_s"] = self.self_ns[fid] / 1e9
        claw_calls = out.get("detect.find_claw.calls", 0)
        out["detect.claw_hit_ratio"] = self.claws_found / claw_calls if claw_calls else 0.0
        out["witness.descent_levels"] = self.descent_levels
        out["verify.extremal.nodes"] = self.extremal_nodes
        extremal_s = out.get("verify.extremal_search.s", 0.0)
        out["verify.extremal.nodes_per_s"] = self.extremal_nodes / extremal_s if extremal_s else 0.0
        out["hypercube.neighbor_masks.bytes"] = sum(
            sys.getsizeof(table) + sum(map(sys.getsizeof, table))
            for table in self.mask_tables.values()
        )
        serial = {}
        for check, universe, wall_time, workers in self.reports:
            key = f"verify.{check}"
            if workers == 1:
                serial[key] = wall_time
                out[f"{key}.items_per_s"] = universe / wall_time
            else:
                out[f"{key}.w{workers}.items_per_s"] = universe / wall_time
                if key in serial:
                    out[f"verify.workers{workers}_speedup"] = serial[key] / wall_time
        out["spans"] = len(self.span_fn)
        return out

    def write_spans(self, path: str, job_ids: list[str]) -> None:
        """One JSON header line, then the span arrays back to back."""
        header = {
            "names": self.names,
            "jobs": job_ids,
            "count": len(self.span_fn),
            "arrays": [
                ["function", "i"],
                ["parent", "i"],
                ["job", "i"],
                ["start_ns", "q"],
                ["end_ns", "q"],
            ],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_fn, self.span_parent, self.span_job, self.span_start, self.span_end):
                arr.tofile(fh)
