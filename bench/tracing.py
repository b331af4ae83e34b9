"""Per-layer spans recorded by wrapping runjob's public functions.

The wrappers live in the benchmark, not in runjob: :meth:`Tracer.install`
replaces every binding of each traced function (module attributes, class
attributes and re-exports alike) with a wrapper that records a span.  Spans
are kept in memory as ``(name, start, end, parent)`` and written out once
the plan is over.  Only a traced worker process installs them.
"""

from __future__ import annotations

import functools
import sys
import time

# module -> traced functions, as "function" or "Class.method"
LAYERS = {
    "macro_lang": ["tokenize", "parse_block", "substitute_block",
                   "MacroInterpreter.execute", "check_script"],
    "linker": ["Linker.attach", "Linker.route", "Linker.find", "Linker.lookup_parameter",
               "Linker.run_framework", "Linker.collect_script_objects",
               "Linker.materialize", "Linker.dump_state"],
    "configurator": ["Configurator.apply_macro", "Configurator.define",
                     "Configurator.add_requirement", "Configurator.resolve_value",
                     "Configurator.handle_framework", "Configurator.dump_commands"],
    "trigger_store": ["TriggerStore.read", "TriggerStore.write"],
    "scriptgen": ["build_dag", "requirement_edges", "compose_shell", "ScriptGen.fragments"],
    "builtins": ["Step.fragment_payload", "HelloWorld.fragment_payload", "Fork.run_jobs"],
    "cli": ["materialize_outputs"],
}
# too hot to time: counted only
COUNTED = {"configurator": ["DependencyPattern.matches"]}


def _metric_name(module: str, qualname: str) -> str:
    # the module's main class is implied, as in "linker.find"
    return f"{module}.{qualname.removeprefix('Linker.').removeprefix('Configurator.')}"


TIMED_NAMES = [_metric_name(m, q) for m, names in LAYERS.items() for q in names]
COUNTED_NAMES = [_metric_name(m, q) for m, names in COUNTED.items() for q in names]
EDGE_YIELD = "scriptgen.edge_yield"
OVERHEAD = "trace.overhead_s"


def per_layer_metrics() -> list[dict]:
    """The per-layer metric declarations, in report order."""
    metrics = []
    for name in TIMED_NAMES:
        metrics += [{"name": f"{name}.calls", "unit": "count", "better": "lower"},
                    {"name": f"{name}.s", "unit": "s", "better": "lower"},
                    {"name": f"{name}.self_s", "unit": "s", "better": "lower"}]
    metrics += [{"name": f"{name}.calls", "unit": "count", "better": "lower"}
                for name in COUNTED_NAMES]
    metrics += [{"name": EDGE_YIELD, "unit": "ratio", "better": "higher"},
                {"name": OVERHEAD, "unit": "s", "better": "lower"}]
    return metrics


def _resolve(module, qualname: str):
    owner, _, attr = qualname.rpartition(".")
    return vars(getattr(module, owner))[attr] if owner else getattr(module, attr)


def _rebind(original, replacement) -> int:
    """Replace ``original`` wherever a runjob module or class binds it."""
    count = 0
    for name, module in list(sys.modules.items()):
        if name != "runjob" and not name.startswith("runjob."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
            elif isinstance(value, type) and value.__module__.startswith("runjob"):
                for key, member in list(value.__dict__.items()):
                    if member is original:
                        setattr(value, key, replacement)
                        count += 1
    return count


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: dict[str, int] = dict.fromkeys(COUNTED_NAMES, 0)
        self.edges = 0  # requirement edges returned
        self.edge_attempts = 0  # matches calls made inside requirement_edges
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every traced function; raise if one has no binding left to wrap."""
        import runjob.cli  # noqa: F401  (loads every runjob module)

        targets = [(m, q, self._timed) for m, names in LAYERS.items() for q in names]
        targets += [(m, q, self._counted) for m, names in COUNTED.items() for q in names]
        for module_name, qualname, wrap in targets:
            original = _resolve(sys.modules[f"runjob.{module_name}"], qualname)
            name = _metric_name(module_name, qualname)
            wrapper = wrap(name, original)
            if name == "scriptgen.requirement_edges":
                wrapper = self._edges(wrapper)
            if _rebind(original, wrapper) == 0:
                raise RuntimeError(f"no binding of {name} found to trace")

    def _timed(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
        return traced

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _edges(self, fn):
        matches = COUNTED_NAMES[0]

        @functools.wraps(fn)
        def edges(*args, **kwargs):
            before = self.counts[matches]
            result = fn(*args, **kwargs)
            self.edge_attempts += self.counts[matches] - before
            self.edges += len(result)
            return result
        return edges

    def summary(self) -> dict[str, float]:
        """Per-layer calls, inclusive and self time, counts and edge yield.

        ``.s`` sums the outermost activations of a function only, so a
        recursive call is not counted twice; ``.self_s`` is each span's
        duration minus the time covered by its child spans.
        """
        calls = dict.fromkeys(TIMED_NAMES, 0)
        inclusive = dict.fromkeys(TIMED_NAMES, 0.0)
        self_time = dict.fromkeys(TIMED_NAMES, 0.0)
        open_count = dict.fromkeys(TIMED_NAMES, 0)  # open ancestors per name
        ancestors: list[int] = []
        spans = self.spans
        # spans are stored in start order, so a parent precedes its children
        for index, (name, start, end, parent) in enumerate(spans):
            while ancestors and ancestors[-1] != parent:
                open_count[spans[ancestors.pop()][0]] -= 1
            duration = end - start
            calls[name] += 1
            self_time[name] += duration
            if parent >= 0:
                self_time[spans[parent][0]] -= duration
            if open_count[name] == 0:
                inclusive[name] += duration
            open_count[name] += 1
            ancestors.append(index)
        metrics: dict[str, float] = {}
        for name in TIMED_NAMES:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.s"] = inclusive[name]
            metrics[f"{name}.self_s"] = self_time[name]
        for name in COUNTED_NAMES:
            metrics[f"{name}.calls"] = self.counts[name]
        metrics[EDGE_YIELD] = self.edges / self.edge_attempts if self.edge_attempts else 0.0
        return metrics

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id, parent, name, start, end."""
        with open(path, "w") as handle:
            handle.write("id\tparent\tname\tstart_s\tend_s\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{index}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
