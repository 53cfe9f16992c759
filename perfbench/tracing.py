"""Out-of-program tracing of dairypv's public functions.

The tracer replaces each listed function in every ``dairypv.*`` module
namespace that binds it, so calls made through any import path are seen.
Spanned functions record (name, start, end, parent, op) in memory; counted
functions only bump a per-op counter, because they run up to a million
times per op and a span each would cost more than the work itself.
A function that a later version no longer has is skipped, and its
metrics read 0.
"""

import functools
import gzip
import os
import sys
import time
from array import array
from collections import Counter

# (module, function): recorded as spans.
SPANNED = (
    ("cli", "cli_main"),
    ("io", "load_scenario"),
    ("io", "render_result"),
    ("io", "write_result"),
    ("economics", "net_present_value"),
    ("engine", "run_simulation"),
    ("engine", "run_monte_carlo"),
    ("engine", "step_year"),
    ("calibration", "calibrate"),
    ("calibration", "evaluate_loss"),
)
# (module, function): call counts only.
COUNTED = (
    ("domain", "require_finite"),
    ("economics", "agent_utility"),
    ("engine", "adoption_probability"),
    ("engine", "initialize_state"),
)
PARAMS_VALIDATIONS = "domain.scenario_params.validations"


def _population_bytes(state):
    """Bytes of the numpy arrays held by a simulation state and its agents."""
    total = 0
    for holder in (state, getattr(state, "agents", None)):
        for value in getattr(holder, "__dict__", {}).values():
            if hasattr(value, "nbytes") and hasattr(value, "dtype"):
                total += int(value.nbytes)
    return total


def _argument(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _agent_years(args, kwargs):
    """Farmers evaluated by one step_year call: not-yet-adopted, or 1."""
    try:
        state = _argument(args, kwargs, 0, "state")
        params = _argument(args, kwargs, 1, "params")
        if params.mode == "stochastic":
            return params.total_farmers - state.cumulative_adopters
        return 1.0
    except (AttributeError, IndexError):
        return 0.0


class Tracer:
    """Holds spans and per-op counters for one traced phase."""

    def __init__(self):
        # Spans as parallel arrays, about 34 bytes each: a traced calibrate
        # op records some 80,000 of them.
        self.names = []           # name table; spans store an index into it
        self.name_index = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.counts = {}          # op id -> Counter
        self.extra = {}           # op id -> Counter of non-call quantities
        self._stack = []
        self._installed = []      # (module, attribute, original)
        self.begin_op(-1)

    def begin_op(self, op_id):
        self._op = op_id
        self.counts[op_id] = Counter()
        self.extra[op_id] = Counter()

    def _span(self, name, fn, on_call=None, on_return=None):
        code = len(self.names)
        self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        name_index, starts, ends, parents, ops = (
            self.name_index, self.start, self.end, self.parent, self.op)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            index = len(starts)
            name_index.append(code)
            parents.append(stack[-1] if stack else -1)
            ops.append(self._op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result
        return wrapper

    def _counter(self, name, fn, on_return=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[self._op][name] += 1
            result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result
        return wrapper

    def _hooks(self, name):
        """Extra per-call quantities for a few functions."""
        extra = self.extra

        def agent_years(args, kwargs):
            extra[self._op]["agent_years"] += _agent_years(args, kwargs)

        def population(args, kwargs, state):
            op = extra[self._op]
            op["array_bytes"] = max(op["array_bytes"], _population_bytes(state))

        def written(args, kwargs, _):
            try:
                path = _argument(args, kwargs, 2, "output_path")
                extra[self._op]["write_bytes"] += os.path.getsize(path)
            except (IndexError, OSError):
                pass

        def replications(args, kwargs, summary):
            extra[self._op]["replications"] += getattr(summary, "replications", 0)

        return {
            "engine.step_year": {"on_call": agent_years},
            "engine.initialize_state": {"on_return": population},
            "io.write_result": {"on_return": written},
            "engine.run_monte_carlo": {"on_return": replications},
        }.get(name, {})

    def install(self):
        """Wrap every listed function wherever a dairypv module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dairypv" or n.startswith("dairypv."))]
        for kind, table in (("span", SPANNED), ("count", COUNTED)):
            for module_name, func_name in table:
                owner = sys.modules.get(f"dairypv.{module_name}")
                original = getattr(owner, func_name, None)
                if original is None:
                    continue
                name = f"{module_name}.{func_name}"
                hooks = self._hooks(name)
                if kind == "span":
                    wrapper = self._span(name, original, **hooks)
                else:
                    wrapper = self._counter(name, original, **hooks)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._installed.append((module, attr, original))
                            setattr(module, attr, wrapper)
        params_cls = getattr(sys.modules.get("dairypv.domain"), "ScenarioParams", None)
        post_init = getattr(params_cls, "__post_init__", None)
        if post_init is not None:
            self._installed.append((params_cls, "__post_init__", post_init))
            setattr(params_cls, "__post_init__",
                    self._counter(PARAMS_VALIDATIONS, post_init))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def __len__(self):
        return len(self.start)

    def _rows(self):
        return zip(self.name_index, self.start, self.end, self.parent, self.op)

    def write(self, path):
        """Write all spans as gzip CSV: id,name,start_s,end_s,parent,op."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write("id,name,start_s,end_s,parent,op\n")
            for index, (code, start, end, parent, op) in enumerate(self._rows()):
                handle.write(f"{index},{self.names[code]},{start:.9f},{end:.9f},{parent},{op}\n")

    def summarize(self, ops):
        """Per-name totals over the given op ids.

        Returns {name: {"calls", "total_s", "self_s"}}, where self time is a
        span's duration minus that of its direct child spans.
        """
        ops = set(ops)
        child_time = [0.0] * len(self)
        for _, start, end, parent, _ in self._rows():
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}
        for index, (code, start, end, _, op) in enumerate(self._rows()):
            if op not in ops:
                continue
            entry = totals.setdefault(self.names[code],
                                      {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        for op in ops:
            for name, calls in self.counts.get(op, {}).items():
                totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                totals[name]["calls"] += calls
        return totals

    def extra_total(self, ops, key, combine=sum):
        values = [self.extra[op][key] for op in ops if op in self.extra]
        return combine(values) if values else 0.0
