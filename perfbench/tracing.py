"""Span tracing for the per-layer run, installed from outside the library.

`Tracer.install()` replaces every public function and method listed in
`TARGETS` by a wrapper that records one span (name, start, end, parent) per
call.  Module-level functions are replaced in every `fleet_inverse` module
that binds them, so calls made through `from .x import f` bindings inside the
library are caught as well as calls through the defining module.  Spans are
kept in memory; `Tracer.aggregate()` reduces them to plain sums that can be
merged across processes (the CLI workload traces one forked child per cell),
and `layer_metrics()` turns merged sums into the per-layer metrics named in
`BENCHMARK.json`.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array

import numpy as np

# span name -> (module, attribute path); the span name is "<layer>.<function>"
TARGETS = {
    "network.route_times": ("fleet_inverse.network", "Network.route_times"),
    "network.link_travel_times": ("fleet_inverse.network", "Network.link_travel_times"),
    "network.link_time_jacobian": ("fleet_inverse.network", "Network.link_time_jacobian"),
    "network.route_gradient": ("fleet_inverse.network", "Network.route_gradient"),
    "network.feasible_direction_pd": ("fleet_inverse.network", "Network.feasible_direction_pd"),
    "objective.eval_objective": ("fleet_inverse.objective", "eval_objective"),
    "objective.objective_gradient_in_f": ("fleet_inverse.objective", "objective_gradient_in_f"),
    "objective.classify_convexity": ("fleet_inverse.objective", "classify_convexity"),
    "forward.project": ("fleet_inverse.forward", "FeasibleSet.project"),
    "forward.vertices": ("fleet_inverse.forward", "FeasibleSet.vertices"),
    "forward.fleet_assign": ("fleet_inverse.forward", "fleet_assign"),
    "forward.solve_convex": ("fleet_inverse.forward", "solve_convex"),
    "forward.solve_concave": ("fleet_inverse.forward", "solve_concave"),
    "forward.solve_general": ("fleet_inverse.forward", "solve_general"),
    "forward.certify_local_min": ("fleet_inverse.forward", "certify_local_min"),
    "inverse.solve_inverse": ("fleet_inverse.inverse", "solve_inverse"),
    "inverse.inverse_link_flows": ("fleet_inverse.inverse", "inverse_link_flows"),
    "inverse.route_fiber": ("fleet_inverse.inverse", "route_fiber"),
    "inverse.lipschitz_bound": ("fleet_inverse.inverse", "lipschitz_bound"),
    "inverse.discrete_recover": ("fleet_inverse.inverse", "discrete_recover"),
    "stackelberg.induced_ue": ("fleet_inverse.stackelberg", "induced_ue"),
    "stackelberg.verify_corner_support": ("fleet_inverse.stackelberg", "verify_corner_support"),
    "stackelberg.optimize_corner_mixture": ("fleet_inverse.stackelberg", "optimize_corner_mixture"),
    "stackelberg.compare_routings": ("fleet_inverse.stackelberg", "compare_routings"),
    "dynamics.simulate": ("fleet_inverse.dynamics", "simulate"),
    "scenario.parse_scenario": ("fleet_inverse.scenario", "parse_scenario"),
    "cli.main": ("fleet_inverse.cli", "main"),
    "parallel.ordered_map": ("fleet_inverse.parallel", "ordered_map"),
}
NAMES = tuple(TARGETS)
_ID = {name: i for i, name in enumerate(NAMES)}


def _fleet_assign_counts(result):
    return {
        "forward.iterations": result.trace.iterations,
        "forward.starts": result.trace.starts,
        "forward.nonconverged": int(not result.trace.converged),
    }


def _solve_general_counts(result):
    return {
        "forward.general_minimizers": len(result.minimizer_set),
        "forward.general_starts": result.trace.starts,
    }


def _solve_inverse_counts(result):
    return {
        "inverse.nonconverged": int(not result.converged),
        "inverse.theorem_applies": int(result.certificate.theorem_applies),
        "inverse.multi_solution": int(len(result.solutions) > 1),
    }


# counts read from the public result objects, keyed by span name
RESULT_COUNTS = {
    "forward.fleet_assign": _fleet_assign_counts,
    "forward.solve_general": _solve_general_counts,
    "inverse.solve_inverse": _solve_inverse_counts,
    "dynamics.simulate": lambda states: {"dynamics.days": len(states)},
    "cli.main": lambda code: {f"cli.exit_{code}": 1},
}


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counts: dict[str, float] = {}
        self.origin = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name_id: int) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            idx = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(parent)
            self.ends.append(0.0)
            self.starts.append(time.perf_counter() - self.origin)
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter() - self.origin
        self._stack().pop()

    def _add(self, counts: dict) -> None:
        with self._lock:
            for key, amount in counts.items():
                self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn):
        name_id = _ID[name]
        counts_of = RESULT_COUNTS.get(name)
        tracer = self

        if name == "parallel.ordered_map":
            # worker threads start with an empty span stack; give the spans
            # they open the ordered_map span as parent
            @functools.wraps(fn)
            def traced_map(worker, items, *args, **kwargs):
                items = list(items)
                tracer._add({"parallel.ordered_map.items": len(items)})
                idx = tracer._open(name_id)

                def adopted(item):
                    stack = tracer._stack()
                    stack.append(idx)
                    try:
                        return worker(item)
                    finally:
                        stack.pop()

                try:
                    return fn(adopted, items, *args, **kwargs)
                finally:
                    tracer._close(idx)

            return traced_map

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._add({f"{name}.raised.{type(exc).__name__}": 1})
                raise
            finally:
                tracer._close(idx)
            if counts_of is not None:
                tracer._add(counts_of(result))
            return result

        return traced

    def install(self) -> None:
        """Replace every target at its definition and at every import site."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "fleet_inverse" or key.startswith("fleet_inverse."))
        ]
        for name, (module_name, path) in TARGETS.items():
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            setattr(owner, attr, wrapped)
            if owner is sys.modules[module_name]:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

    def aggregate(self) -> dict[str, float]:
        """Reduce the spans to sums that merge across processes by addition."""
        n = len(self.starts)
        out: dict[str, float] = dict(self.counts)
        if n == 0:
            return out
        names = np.frombuffer(self.name_ids, dtype=np.int32).copy()
        parents = np.frombuffer(self.parents, dtype=np.int32).copy()
        starts = np.frombuffer(self.starts, dtype=np.float64).copy()
        ends = np.frombuffer(self.ends, dtype=np.float64).copy()
        dur = ends - starts

        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        # children of an ordered_map span may overlap in time (worker threads):
        # cover them by the union of their intervals instead of the sum
        map_id = _ID["parallel.ordered_map"]
        map_spans = np.nonzero(names == map_id)[0]
        if len(map_spans):
            order = np.argsort(parents, kind="stable")
            sorted_parents = parents[order]
            for p in map_spans:
                lo, hi = np.searchsorted(sorted_parents, [p, p + 1])
                kids = order[lo:hi]
                covered[p] = _union_length(starts[kids], ends[kids])
        self_time = dur - covered

        # climb all spans to the root at once: the nearest enclosing solver
        # span (fleet_assign or solve_inverse), whether a solve_inverse or an
        # induced_ue span encloses each span, and whether a span of its own
        # name does (its time is then already in that span's total)
        fa, si, ue = _ID["forward.fleet_assign"], _ID["inverse.solve_inverse"], _ID["stackelberg.induced_ue"]
        owner = np.full(n, -1, dtype=np.int32)
        in_inverse = np.zeros(n, dtype=bool)
        in_ue = np.zeros(n, dtype=bool)
        in_same = np.zeros(n, dtype=bool)
        ancestor = parents.copy()
        while True:
            live = ancestor >= 0
            if not live.any():
                break
            above = np.where(live, names[np.maximum(ancestor, 0)], -1)
            first = (owner < 0) & ((above == fa) | (above == si))
            owner[first] = above[first]
            in_inverse |= above == si
            in_ue |= above == ue
            in_same |= above == names
            ancestor = np.where(live, parents[np.maximum(ancestor, 0)], -1)

        calls = np.bincount(names, minlength=len(NAMES))
        total = np.bincount(names[~in_same], weights=dur[~in_same], minlength=len(NAMES))
        own = np.bincount(names, weights=self_time, minlength=len(NAMES))
        for name, i in _ID.items():
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.total_s"] = float(total[i])
            out[f"{name}.self_s"] = float(own[i])

        def count(name, mask):
            return int(np.count_nonzero((names == _ID[name]) & mask))

        for callee in ("objective.objective_gradient_in_f", "objective.eval_objective", "forward.project"):
            out[f"under_fleet_assign.{callee}"] = count(callee, owner == fa)
        out["under_solve_inverse.forward.project"] = count("forward.project", owner == si)
        out["under_solve_inverse.forward.fleet_assign"] = count("forward.fleet_assign", in_inverse)
        out["under_induced_ue.network.route_times"] = count("network.route_times", in_ue)
        return out


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    if len(starts) == 0:
        return 0.0
    order = np.argsort(starts)
    s, e = starts[order], ends[order]
    reach = np.maximum.accumulate(e)
    prev = np.concatenate([[-np.inf], reach[:-1]])
    return float(np.sum(np.clip(e - np.maximum(s, prev), 0.0, None)))


def merge(into: dict[str, float], other: dict[str, float]) -> None:
    for key, value in other.items():
        into[key] = into.get(key, 0) + value


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(agg: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics (the `per_layer` names in BENCHMARK.json) from
    merged aggregates.  Every ratio's base is named in its metric."""
    def g(key: str) -> float:
        return agg.get(key, 0)

    m: dict[str, float] = {}
    for name in (
        "network.route_times", "network.link_travel_times", "network.link_time_jacobian",
        "network.route_gradient", "objective.eval_objective", "objective.objective_gradient_in_f",
        "forward.project", "forward.vertices", "stackelberg.induced_ue", "scenario.parse_scenario",
    ):
        m[f"{name}.calls"] = g(f"{name}.calls")
        m[f"{name}.self_s"] = g(f"{name}.self_s")
    for name in (
        "network.feasible_direction_pd", "forward.fleet_assign", "forward.solve_convex",
        "forward.solve_concave", "forward.solve_general", "forward.certify_local_min",
        "parallel.ordered_map",
    ):
        m[f"{name}.calls"] = g(f"{name}.calls")
        m[f"{name}.total_s"] = g(f"{name}.total_s")
    # inclusive time per call, with the wrappers of nested spans included
    m["network.route_times.us_per_call"] = 1e6 * _ratio(g("network.route_times.total_s"), g("network.route_times.calls"))
    m["forward.project.us_per_call"] = 1e6 * _ratio(g("forward.project.total_s"), g("forward.project.calls"))

    m["objective.classify_convexity.calls"] = g("objective.classify_convexity.calls")
    m["objective.classify_convexity.unsupported"] = g("objective.classify_convexity.raised.UnsupportedDelayError")

    solves = g("forward.fleet_assign.calls")
    m["forward.iterations"] = g("forward.iterations")
    m["forward.starts"] = g("forward.starts")
    m["forward.nonconverged"] = g("forward.nonconverged")
    m["forward.distinct_per_start"] = _ratio(g("forward.general_minimizers"), g("forward.general_starts"))
    m["forward.grad_evals_per_solve"] = _ratio(g("under_fleet_assign.objective.objective_gradient_in_f"), solves)
    m["forward.obj_evals_per_solve"] = _ratio(g("under_fleet_assign.objective.eval_objective"), solves)
    m["forward.projections_per_solve"] = _ratio(g("under_fleet_assign.forward.project"), solves)

    inverses = g("inverse.solve_inverse.calls")
    m["inverse.solve_inverse.calls"] = inverses
    m["inverse.solve_inverse.total_s"] = g("inverse.solve_inverse.total_s")
    m["inverse.solve_inverse.self_s"] = g("inverse.solve_inverse.self_s")
    m["inverse.projections_per_solve"] = _ratio(g("under_solve_inverse.forward.project"), inverses)
    m["inverse.nested_fleet_assign"] = g("under_solve_inverse.forward.fleet_assign")
    m["inverse.nonconverged"] = g("inverse.nonconverged")
    m["inverse.theorem_applies"] = g("inverse.theorem_applies")
    m["inverse.multi_solution"] = g("inverse.multi_solution")
    for name in ("inverse_link_flows", "route_fiber", "lipschitz_bound", "discrete_recover"):
        m[f"inverse.{name}.total_s"] = g(f"inverse.{name}.total_s")

    m["stackelberg.route_times_per_ue"] = _ratio(g("under_induced_ue.network.route_times"), g("stackelberg.induced_ue.calls"))
    for name in ("verify_corner_support", "optimize_corner_mixture", "compare_routings"):
        m[f"stackelberg.{name}.total_s"] = g(f"stackelberg.{name}.total_s")

    m["dynamics.simulate.total_s"] = g("dynamics.simulate.total_s")
    m["dynamics.days"] = g("dynamics.days")
    m["dynamics.ms_per_day"] = 1e3 * _ratio(g("dynamics.simulate.total_s"), g("dynamics.days"))

    m["cli.main.self_s"] = g("cli.main.self_s")
    for code in (0, 2, 3, 5):
        m[f"cli.exit_{code}"] = g(f"cli.exit_{code}")
    m["cli.timeout"] = g("cli.timeout")
    m["parallel.ordered_map.items"] = g("parallel.ordered_map.items")
    return m
