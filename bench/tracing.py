"""Spans around the package's functions, and the per-layer split they give.

The fast transforms bind cadd, rows_like, the split_* kernels and the
shared drivers into their own namespaces at import time, so patching
quickfourier.counting alone would miss almost every call.  A Tracer
therefore wraps each package function in the namespace of every module
that binds it, and puts every attribute back on uninstall.

Spans live in flat in-memory columns (name, start, end, parent span,
call id, adds and muls charged, bytes returned) and are written out once,
after the measurement.  A layer is the module that defines a function; its
self time is the time of its spans minus the time of their child spans.
"""

import functools
import importlib
import inspect
import pkgutil
import types
from array import array
from time import perf_counter_ns

import numpy as np

# the counted helpers: their first argument is the OpCounter they charge
COUNTED = ("cadd", "csub", "cmul", "cmul_rows")
HELPERS = COUNTED + ("rows_like",)
TABLE_METHODS = ("half_secant", "half_secants", "eighth_cos", "_value_for")
ENTRY_POINTS = ("cdft", "rdft", "dct0", "dst0")
# their private recursion steps are wrapped too, so the shared drivers'
# own time can be told apart from the recursion they call back into
RECURSIONS = ("classical", "improved")
COLUMNS = (("name", "i"), ("parent", "i"), ("call", "i"), ("start", "q"),
           ("end", "q"), ("adds", "q"), ("muls", "q"), ("nbytes", "q"))


def package_modules(package):
    """The package and each of its submodules."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def snapshot(package):
    """Every module and class attribute the tracer may replace, by identity."""
    counting = importlib.import_module(f"{package.__name__}.counting")
    state = {}
    for mod in package_modules(package):
        for attr, value in vars(mod).items():
            state[(mod.__name__, attr)] = value
    for cls in (counting.TrigTable, counting.OpCounter):
        for attr, value in vars(cls).items():
            state[(cls.__qualname__, attr)] = value
    return state


class Tracer:
    """Install wrappers, collect spans, restore the package."""

    def __init__(self, package):
        self.package = package
        self.names = []
        self._ids = {}
        self.cols = {k: array(code) for k, code in COLUMNS}
        self._stack = [-1]
        self.call_id = -1
        self.counters = []  # every OpCounter created while installed
        self.secant_keys = set()  # distinct (dtype, N, indices) half_secants asked for
        self.secant_calls = 0
        self._saved = []

    # -- spans --------------------------------------------------------------

    def clear(self):
        for col in self.cols.values():
            del col[:]
        self.counters.clear()
        self.secant_keys.clear()
        self.secant_calls = 0

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        c = self.cols
        names, parents, calls, starts, ends = (c[k] for k in ("name", "parent", "call",
                                                              "start", "end"))
        adds, muls, nbytes = c["adds"], c["muls"], c["nbytes"]
        stack = self._stack
        tracer = self

        def open_span():
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            calls.append(tracer.call_id)
            ends.append(0)
            adds.append(0)
            muls.append(0)
            nbytes.append(0)
            stack.append(i)
            starts.append(perf_counter_ns())
            return i

        if fn.__name__ in COUNTED:
            @functools.wraps(fn)
            def wrapper(counter, *args):
                a0, m0 = counter.adds, counter.muls
                i = open_span()
                try:
                    r = fn(counter, *args)
                finally:
                    ends[i] = perf_counter_ns()
                    stack.pop()
                adds[i] = counter.adds - a0
                muls[i] = counter.muls - m0
                nbytes[i] = getattr(r, "nbytes", 0)
                return r
        elif fn.__name__ == "rows_like":
            @functools.wraps(fn)
            def wrapper(*args):
                i = open_span()
                try:
                    r = fn(*args)
                finally:
                    ends[i] = perf_counter_ns()
                    stack.pop()
                nbytes[i] = r.nbytes
                return r
        elif fn.__name__ == "half_secants":
            @functools.wraps(fn)
            def wrapper(table, N, ns):
                tracer.secant_calls += 1
                key = ns if isinstance(ns, range) else tuple(ns)
                tracer.secant_keys.add((table.dtype.str, N, key))
                i = open_span()
                try:
                    return fn(table, N, ns)
                finally:
                    ends[i] = perf_counter_ns()
                    stack.pop()
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                i = open_span()
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[i] = perf_counter_ns()
                    stack.pop()
        return wrapper

    # -- install / uninstall ------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        prefix = self.package.__name__ + "."
        wrappers = {}
        for mod in package_modules(self.package):
            for attr, value in list(vars(mod).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                home = getattr(value, "__module__", "") or ""
                if not home.startswith(prefix) or inspect.isgeneratorfunction(value):
                    continue
                layer = home[len(prefix):]
                public = not value.__name__.startswith("_")
                if not public and not (layer in RECURSIONS and mod.__name__ == home):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, f"{layer}.{value.__name__}")
                self._set(mod, attr, wrappers[value])
        counting = importlib.import_module(prefix + "counting")
        for attr in TABLE_METHODS:
            fn = getattr(counting.TrigTable, attr)
            self._set(counting.TrigTable, attr,
                      self._wrap(fn, f"counting.TrigTable.{attr}"))
        init = counting.OpCounter.__init__
        registry = self.counters

        def counter_init(obj):
            init(obj)
            registry.append(obj)

        self._set(counting.OpCounter, "__init__", counter_init)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- output -------------------------------------------------------------

    def arrays(self):
        return {k: np.frombuffer(col, dtype=np.int32 if code == "i" else np.int64).copy()
                for (k, code), col in zip(COLUMNS, self.cols.values())}

    def counter_totals(self):
        return (sum(c.adds for c in self.counters), sum(c.muls for c in self.counters))

    def record(self):
        """Everything layer_metrics needs, as a mergeable dict of arrays."""
        rec = self.arrays()
        rec["names"] = np.array(self.names)
        adds, muls = self.counter_totals()
        rec["totals"] = np.array([adds, muls, self.secant_calls, len(self.secant_keys)],
                                 dtype=np.int64)
        return rec


def merge(records):
    """One record from several: span and name ids are renumbered."""
    index = {}
    out = {k: [] for k, _ in COLUMNS}
    totals = np.zeros(4, dtype=np.int64)
    offset = 0
    for rec in records:
        remap = np.array([index.setdefault(str(n), len(index)) for n in rec["names"]],
                         dtype=np.int32)
        for k, _ in COLUMNS:
            col = rec[k]
            if k == "name":
                col = remap[col] if len(col) else col
            elif k == "parent":
                col = np.where(col >= 0, col + offset, -1).astype(np.int32)
            out[k].append(col)
        offset += len(rec["name"])
        totals += rec["totals"]
    names = sorted(index, key=index.get)
    merged = {k: np.concatenate(v) if v else np.zeros(0, dtype=np.int64)
              for k, v in out.items()}
    merged["names"] = np.array(names)
    merged["totals"] = totals
    return merged


def _below(parent, mark):
    """For each span, whether a marked span strictly encloses it (pointer jumping)."""
    up = parent.copy()
    valid = up >= 0
    below = np.zeros(len(parent), dtype=bool)
    below[valid] = mark[up[valid]]
    while valid.any():
        hop = up[valid]
        below[valid] |= below[hop]
        up[valid] = up[hop]
        valid = up >= 0
    return below


def layer_metrics(rec):
    """Per-layer counts and times of one pass, from a tracer record."""
    names = [str(n) for n in rec["names"]]
    name, parent = rec["name"], rec["parent"].astype(np.int64)
    dur = (rec["end"] - rec["start"]) / 1e6
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(name))
    self_ms = dur - child
    layer_of = np.array([n.split(".")[0] for n in names] or [""], dtype=object)

    def named(*full):
        return np.isin(name, [i for i, n in enumerate(names) if n in full])

    def in_layer(mod):
        return np.isin(name, np.flatnonzero(layer_of == mod))

    def outer(mask):
        return mask & ~_below(parent, mask)

    helpers = named(*(f"counting.{h}" for h in HELPERS))
    secants = named("counting.TrigTable.half_secants")
    build = outer(named("counting.build_trig_table", "counting.TrigTable._value_for"))
    kernel = in_layer("counting") | in_layer("elaborations")
    m = {
        "counting.helper_calls": int(helpers.sum()),
        "counting.helper_ms": float(dur[helpers].sum()),
        "counting.rows_like_calls": int(named("counting.rows_like").sum()),
        "counting.alloc_mb_computed": float(rec["nbytes"][helpers].sum()) / 2**20,
        "counting.adds": int(rec["adds"].sum()),
        "counting.muls": int(rec["muls"].sum()),
        "counting.half_secants_calls": int(secants.sum()),
        "counting.half_secants_ms": float(dur[secants].sum()),
        "counting.half_secants_repeat_ratio":
            float(rec["totals"][2]) / max(1, int(rec["totals"][3])),
        "counting.table_build_ms": float(dur[build].sum()),
        "elaborations.time_split_calls": int(named(
            "elaborations.split_time_parity_forward",
            "elaborations.split_time_parity_backward").sum()),
        "elaborations.harmonic_split_calls": int(named(
            "elaborations.split_harmonic_parity_forward",
            "elaborations.split_harmonic_parity_backward").sum()),
        "elaborations.self_ms": float(self_ms[in_layer("elaborations")].sum()),
    }
    for mod in RECURSIONS:
        entries = named(*(f"{mod}.{e}" for e in ENTRY_POINTS))
        under = entries | _below(parent, entries)
        calls = int(entries.sum())
        m[f"{mod}.calls"] = calls
        m[f"{mod}.self_ms"] = float(self_ms[in_layer(mod)].sum())
        m[f"{mod}.kernel_calls_per_call"] = float((kernel & under).sum()) / max(1, calls)
    m["shared.packing_ms"] = float(dur[named(
        "shared.interleave_complex", "shared.complex_from_interleaved",
        "shared.complex_from_packed")].sum())
    m["shared.driver_self_ms"] = float(self_ms[named(
        "shared.rdft_packed", "shared.cdft_interleaved")].sum())
    ref = outer(in_layer("reference"))
    m["reference.calls"] = int(ref.sum())
    m["reference.ms"] = float(dur[ref].sum())
    m["costmodel.measured_cost_calls"] = int(named("costmodel.measured_cost").sum())
    m["costmodel.self_ms"] = float(self_ms[in_layer("costmodel")].sum())
    m["tree.build_ms"] = float(dur[outer(named("tree.build_tree"))].sum())
    m["tree.audit_ms"] = float(dur[outer(named("tree.conservation_violations",
                                               "tree.storage_checks"))].sum())
    m["taxonomy.storage_sizes_calls"] = int(named("taxonomy.storage_sizes").sum())
    m["accuracy.self_ms"] = float(self_ms[in_layer("accuracy")].sum())
    m["cli.self_ms"] = float(self_ms[in_layer("cli")].sum())
    return m
