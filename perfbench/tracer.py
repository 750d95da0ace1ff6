"""Out-of-package tracing: wrap perminv's module-level functions in spans.

Every traced call records a span (name, start, end, parent, whether it
raised); each thread keeps its own stack of open spans.  Spans opened on a
pool thread whose stack is empty are parented to the innermost span open on
the main thread, which is the span waiting for the pool (``regrep.build_m``).
That keeps worker time out of the waiting span's self time instead of
counting it twice.

Self time of a span is its duration minus the length of the union of its
children's intervals; children on other threads overlap each other, hence the
union.  Busy time of a function is the summed duration of its outermost spans
on each thread, summed over threads, so it can exceed wall time.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import Counter, defaultdict

PACKAGE_MODULES = ("young", "regrep", "querysim", "attacks", "cli")

# Public helpers called tens of thousands of times per workload for
# sub-microsecond work: a span around them would cost more than the call.
# Their time stays in their callers' self time.  Private (underscore) names
# are not traced either, so a function's self time includes its private
# helpers, e.g. exact_rank's prime-field eliminations.
UNTRACED = frozenset(
    {
        "young.hook_length",
        "young.hook_product",
        "young.dim",
        "young.transpose",
        "young.is_partition",
        "young.check_partition",
        "young.size",
        "young.level",
        "young.removable",
        "young.bar",
        "young.has_bar",
        "young.trim_first_row",
        "regrep.perm_compose",
        "regrep.perm_inverse",
        "regrep.max_n",
    }
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "outer", "error", "thread")

    def __init__(self, name: str, parent: "Span | None", outer: bool):
        self.name = name
        self.parent = parent
        self.outer = outer
        self.error = False
        self.thread = threading.get_ident()
        self.start = time.perf_counter()
        self.end = self.start


def _label_by_spacing(t):
    return f"t{int(t)}"


def _build_table_label(args, kwargs):
    return _label_by_spacing(kwargs["t"] if "t" in kwargs else args[1])


def _measure_all_label(args, kwargs):
    table = kwargs["table"] if "table" in kwargs else args[1]
    return _label_by_spacing(table.t)


def _exact_rank_counts(args, kwargs, result):
    rows = kwargs["rows"] if "rows" in kwargs else args[0]
    d = min(rows.shape)  # the Gram matrix is taken on the smaller side
    return {"regrep.exact_rank.work_d3": d**3}


def _build_table_counts(args, kwargs, result):
    return {f"attacks.table.t{result.t}.s_entries": result.s_entries}


def _measure_all_counts(args, kwargs, result):
    targets = kwargs.get("targets", args[2] if len(args) > 2 else None)
    m = result.n if targets is None else len(targets)
    # t_avg is the mean of an integer query vector; the product rounds back
    # to the exact total.
    return {f"attacks.measure_all.t{result.t}.queries": round(result.t_avg * m)}


# name -> (suffix from the arguments, counters from the result)
HOOKS = {
    "regrep.exact_rank": (None, _exact_rank_counts),
    "attacks.build_table": (_build_table_label, _build_table_counts),
    "attacks.measure_all": (_measure_all_label, _measure_all_counts),
}


def _traceable(obj, module_name: str) -> bool:
    if getattr(obj, "__module__", None) != module_name:
        return False
    # functools.cache wrappers are not functions but expose __wrapped__.
    return inspect.isfunction(obj) or inspect.isfunction(getattr(obj, "__wrapped__", None))


class Tracer:
    """Collects spans and counters for one process; install() patches the
    package modules in place and uninstall() restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.originals: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._counter_lock = threading.Lock()

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        label, counts = HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_name = name if label is None else f"{name}.{label(args, kwargs)}"
            if stack:
                parent = stack[-1]
            elif stack is not tracer._main_stack and tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            span = Span(span_name, parent, all(s.name != span_name for s in stack))
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if counts is not None:
                with tracer._counter_lock:
                    tracer.counters.update(counts(args, kwargs, result))
            return result

        return traced

    def install(self, modules) -> None:
        """Replace every traceable module-level function in ``modules`` (a
        mapping short name -> module) by a traced wrapper, in every module
        that binds it, so cross-module calls are traced too."""
        wrappers: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if not attr.startswith("_") and _traceable(obj, mod.__name__) and name not in UNTRACED:
                    self.originals[name] = obj
                    wrappers[id(obj)] = self.wrap(name, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)] is not obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def cache_misses(self, name: str) -> int:
        """Cache misses of a functools.cache function: the number of builds."""
        fn = self.originals.get(name)
        info = getattr(fn, "cache_info", None)
        return info().misses if info else 0

    def pool_threads(self, name: str) -> int:
        """Distinct threads other than the caller's that ran children of
        ``name``'s spans: the pool size the program really used."""
        return len({s.thread for s in self.spans
                    if s.parent is not None and s.parent.name == name and s.thread != s.parent.thread})

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, errors, self_s, busy_s, wall_s, child_s."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)].append(s)
        rows: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "errors": 0, "self_s": 0.0, "busy_s": 0.0, "child_s": 0.0, "_iv": []}
        )
        for s in self.spans:
            row = rows[s.name]
            dur = s.end - s.start
            kids = children.get(id(s), ())
            row["calls"] += 1
            row["errors"] += s.error
            row["self_s"] += dur - _union_length(
                [(max(k.start, s.start), min(k.end, s.end)) for k in kids]
            )
            row["child_s"] += sum(k.end - k.start for k in kids)
            if s.outer:
                row["busy_s"] += dur
            row["_iv"].append((s.start, s.end))
        for row in rows.values():
            row["wall_s"] = _union_length(row.pop("_iv"))
        return dict(rows)


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
