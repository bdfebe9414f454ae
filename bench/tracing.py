"""Per-layer tracing from outside the package.

While a :class:`Tracer` is active, every public function of the layer modules
``cli``, ``schemes``, ``gaussian`` and ``finite_size`` is replaced by a
wrapper that records a span.  The layers import each other's functions by
name and call their own through module globals (``schemes`` also keeps a
scheme -> function table), so the tracer patches every namespace of the
package, including module-level dicts, and puts every original back on exit.

Spans are held in memory as ``[name, layer, start, end, parent, op, error,
info]`` and written out once, after the run.  A span's self time is its
duration minus the time its child spans cover; calls are sequential, so
children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

PACKAGE = "cvqkd_mon"
LAYERS = ("cli", "schemes", "gaussian", "finite_size")

KEYRATE = {"evaluate_keyrate", "keyrate_at_distance", "keyrate_untrusted",
           "keyrate_active", "keyrate_passive"}
SEARCH = {"secure_distance", "optimize_T"}
TRANSFORM = {"apply_beamsplitter", "apply_fiber_channel"}
ESTIMATE = {"mle_sigma2", "confidence_bound"}

NAME, LAYER, START, END, PARENT, OP, ERROR, INFO = range(8)


def _search_outcome(result, d_max: float) -> str:
    if result is None:
        return "insecure_at_zero"
    return "capped" if result == d_max else "normal"


class Tracer:
    """Context manager that wraps the package's layer functions with spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[dict, object, object]] = []

    def _wrap(self, fn, layer: str):
        name = fn.__name__
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if name in ("secure_distance", "simulate_monitor") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if name == "secure_distance":
                    span[INFO] = _search_outcome(result, bound.arguments["d_max"])
                else:
                    span[INFO] = bound.arguments["m"]
            return result

        return wrapper

    def _patch(self, namespace: dict, key, value, wrappers: dict) -> None:
        wrapper = wrappers.get(id(value))
        if wrapper is not None and wrapper[0] is value:
            self._patches.append((namespace, key, value))
            namespace[key] = wrapper[1]

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, value in vars(module).items():
                if (inspect.isfunction(value) and not name.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = (value, self._wrap(value, layer))
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                self._patch(namespace, key, value, wrappers)
                if isinstance(value, dict):
                    for inner_key, inner in list(value.items()):
                        self._patch(value, inner_key, inner, wrappers)
        return self

    def __exit__(self, *exc) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    def write(self, path: Path) -> None:
        """One JSON array per span, times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "layer", "start", "end", "parent",
                                            "op", "error", "info"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s[NAME], s[LAYER], round(s[START] - t0, 9),
                                     round(s[END] - t0, 9), s[PARENT], s[OP], s[ERROR],
                                     s[INFO]]) + "\n")

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op counts and times of each layer, plus ratios between them."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        in_search = [False] * len(spans)
        for i, s in enumerate(spans):
            p = s[PARENT]
            if p >= 0:
                child_time[p] += s[END] - s[START]
                in_search[i] = in_search[p] or spans[p][NAME] in SEARCH

        def parent_of(s):
            return spans[s[PARENT]] if s[PARENT] >= 0 else None

        c: dict[str, float] = {key: 0.0 for key in (
            "cli.self_s", "op_s", "schemes.keyrate_points", "search_points",
            "schemes.keyrate_self_s", "schemes.errors", "schemes.search_calls",
            "schemes.search_self_s", "schemes.searches_capped",
            "schemes.searches_insecure_at_zero", "gaussian.spectrum_calls",
            "gaussian.spectrum_s", "gaussian.entropy_calls", "gaussian.condition_calls",
            "gaussian.transform_calls", "gaussian.transform_s", "gaussian.self_s",
            "gaussian_s", "gaussian.errors", "finite_size.simulate_calls",
            "finite_size.samples_drawn", "finite_size.simulate_s",
            "finite_size.estimate_s", "finite_size.z_calls", "finite_size.self_s")}
        for i, s in enumerate(spans):
            name, layer = s[NAME], s[LAYER]
            duration = s[END] - s[START]
            self_time = duration - child_time[i]
            parent = parent_of(s)
            outermost_in_layer = parent is None or parent[LAYER] != layer
            if layer == "cli":
                c["cli.self_s"] += self_time
                if parent is None:
                    c["op_s"] += duration
            elif layer == "schemes":
                if outermost_in_layer and s[ERROR]:
                    c["schemes.errors"] += 1
                if name in KEYRATE:
                    c["schemes.keyrate_self_s"] += self_time
                    if parent is None or parent[NAME] not in KEYRATE:
                        c["schemes.keyrate_points"] += 1
                        c["search_points"] += in_search[i]
                elif name in SEARCH:
                    c["schemes.search_self_s"] += self_time
                if name == "secure_distance":
                    c["schemes.search_calls"] += 1
                    if s[INFO] in ("capped", "insecure_at_zero"):
                        c[f"schemes.searches_{s[INFO]}"] += 1
            elif layer == "gaussian":
                c["gaussian.self_s"] += self_time
                if outermost_in_layer:
                    c["gaussian_s"] += duration
                    c["gaussian.errors"] += s[ERROR]
                if name == "symplectic_spectrum":
                    c["gaussian.spectrum_calls"] += 1
                    c["gaussian.spectrum_s"] += duration
                elif name == "von_neumann_entropy":
                    c["gaussian.entropy_calls"] += 1
                elif name == "condition_on_homodyne":
                    c["gaussian.condition_calls"] += 1
                elif name in TRANSFORM:
                    c["gaussian.transform_calls"] += 1
                    c["gaussian.transform_s"] += duration
            elif layer == "finite_size":
                c["finite_size.self_s"] += self_time
                if name == "simulate_monitor":
                    c["finite_size.simulate_calls"] += 1
                    c["finite_size.samples_drawn"] += s[INFO] or 0
                    c["finite_size.simulate_s"] += duration
                elif name in ESTIMATE:
                    c["finite_size.estimate_s"] += duration
                elif name == "z_from_epsilon":
                    c["finite_size.z_calls"] += 1

        points, searches = c["schemes.keyrate_points"], c["schemes.search_calls"]
        ratios = {
            "schemes.points_per_search": c["search_points"] / searches if searches else 0.0,
            "schemes.search_point_share": c["search_points"] / points if points else 0.0,
            "gaussian.spectra_per_point": c["gaussian.spectrum_calls"] / points if points else 0.0,
            "gaussian.share_of_op": c["gaussian_s"] / c["op_s"] if c["op_s"] else 0.0,
        }
        c["finite_size.sample_bytes"] = 8.0 * c["finite_size.samples_drawn"]
        per_op = {k: v / n_ops for k, v in c.items()
                  if k not in ("op_s", "search_points", "gaussian_s")}
        return {**per_op, **ratios}
