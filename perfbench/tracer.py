"""Per-layer tracing of the ``arl`` package, installed from outside.

``Tracer.install()`` replaces every public function, constructor and
public method of each ``arl`` module with a timing wrapper.  Module-level
functions are rebound everywhere the original object is bound, so the
``from .x import f`` copies in the modules that use ``f`` are wrapped too.
Nothing inside ``src/arl`` is edited.

A span is one call into a wrapped callable: (name, start, end, parent).
Spans are kept in memory in flat arrays and written out by ``write_spans``
when the run ends.  A layer's self time is the length of its spans minus the
part covered by their child spans; calls that stay inside the same layer
split that layer's self time between them and do not change the total.

The counters of the issue-level metrics (matrices built, quotient calls,
distinct canonical towers, ...) are derived from the per-name call counts
plus a few argument hooks, and are reset per forked child: a child is one
user-level run (a suite run or a CLI command), so "distinct" means distinct
within that run.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import os
import time
from array import array

# Layers in dependency order; the layer of a span is the module that defines
# the wrapped callable.
LAYERS = ("intmat", "groups", "zlmod", "hypernat", "towers", "arcat",
          "upsilon", "limits", "gen", "suites", "towerfile", "cli")

# Spans stored per child before further spans are only counted.  24 bytes a
# span; the cap keeps a traced child under ~100 MB of span storage.
SPAN_CAP = 4_000_000


def _public_callables(cls):
    """(attribute name, raw class attribute) for the wrappable members of cls."""
    out = []
    for name, raw in vars(cls).items():
        if name == "__init__" or not name.startswith("_"):
            if isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw):
                out.append((name, raw))
    return out


class Tracer:
    def __init__(self, arl_modules: dict):
        self.modules = arl_modules          # layer name -> module object
        self.names: list[str] = []     # span name per wrapped callable
        self._hooks = {}
        self.reset()

    # -- per-child state --------------------------------------------------------

    def reset(self):
        self.stack = []
        self.self_s = [0.0] * len(LAYERS)
        self.calls = array("q", [0] * len(self.names))
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        self.quotient_keys = set()
        self.canonical_keys = set()
        self.towerfile_bytes = 0
        self.snf_base = self._snf_info()

    # -- installation ------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        self.names.append(name)
        self.calls.append(0)
        idx = len(self.names) - 1
        layer_idx = LAYERS.index(layer)
        hook = self._hooks.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = tracer
            t.calls[idx] += 1
            if hook is not None:
                hook(args, kwargs)
            stack = t.stack
            span = len(t.span_name)
            if span < SPAN_CAP:
                t.span_name.append(idx)
                t.span_parent.append(stack[-1][3] if stack else -1)
                t.span_start.append(0.0)
                t.span_end.append(0.0)
            else:
                t.spans_dropped += 1
                span = -1
            frame = [layer_idx, 0.0, 0.0, span]
            stack.append(frame)
            start = frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                t.self_s[layer_idx] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if span >= 0:
                    t.span_start[span] = start
                    t.span_end[span] = end

        return wrapper

    def install(self):
        towers = self.modules["towers"]
        self._hooks = {
            "zlmod.ZlModule.quotient_group": self._hook_quotient,
            "arcat.canonical_l_adic": self._hook_canonical,
            "towerfile.load_tower_file": self._hook_towerfile,
        }
        self._tower_cls = towers.Tower
        self._tail_cls = towers.TailRule
        replaced = {}                       # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = self.modules[layer]
            prefix = mod.__name__
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != prefix:
                    continue
                if inspect.isclass(obj):
                    if issubclass(obj, BaseException):
                        continue
                    for mname, raw in _public_callables(obj):
                        label = f"{layer}.{obj.__name__}.{mname}"
                        if isinstance(raw, staticmethod):
                            new = staticmethod(self._wrap(raw.__func__, label, layer))
                        elif isinstance(raw, classmethod):
                            new = classmethod(self._wrap(raw.__func__, label, layer))
                        else:
                            new = self._wrap(raw, label, layer)
                        setattr(obj, mname, new)
                elif inspect.isfunction(obj) and not attr.startswith("_"):
                    replaced[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", layer))
        # Rebind every module-level binding of a wrapped function, in every
        # arl module and in the package namespace.
        for space in (vars(m) for m in self.modules.values()):
            for attr, obj in list(space.items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    space[attr] = hit[1]
        self.reset()

    # -- argument hooks ------------------------------------------------------------

    def _hook_quotient(self, args, kwargs):
        power = args[1] if len(args) > 1 else kwargs.get("power")
        self.quotient_keys.add((args[0], power))

    def _structural(self, obj):
        if isinstance(obj, self._tower_cls):
            return ("Tower", obj.l, obj.groups, obj.maps,
                    self._structural(obj.tail), obj.starred)
        if isinstance(obj, self._tail_cls):
            return (type(obj).__name__,) + tuple(
                self._structural(getattr(obj, f.name)) for f in dataclasses.fields(obj))
        return obj

    def _hook_canonical(self, args, kwargs):
        key = (self._structural(args[0]), args[1:], tuple(sorted(kwargs.items())))
        self.canonical_keys.add(key)

    def _hook_towerfile(self, args, kwargs):
        path = args[0] if args else kwargs.get("path")
        try:
            self.towerfile_bytes += os.path.getsize(path)
        except OSError:
            pass

    # -- SNF cache counters --------------------------------------------------------

    def _snf_info(self):
        """(hits, misses) of the SNF cache ``intmat._snf_cached``.  Every SNF
        goes through it, so its lookups are the SNF calls and its misses the
        SNFs computed."""
        info = self.modules["intmat"]._snf_cached.cache_info()
        return info.hits, info.misses

    # -- results ---------------------------------------------------------------------

    def snapshot(self) -> dict:
        """This child's counters, as plain data for the parent."""
        calls = {self.names[i]: n for i, n in enumerate(self.calls) if n}
        hits, misses = (now - base for now, base in zip(self._snf_info(), self.snf_base))
        return {
            "calls": calls,
            "self_s": dict(zip(LAYERS, self.self_s)),
            "quotient_distinct": len(self.quotient_keys),
            "canonical_distinct": len(self.canonical_keys),
            "towerfile_bytes": self.towerfile_bytes,
            "snf_calls": hits + misses,
            "snf_misses": misses,
            "spans": len(self.span_name),
            "spans_dropped": self.spans_dropped,
        }

    def write_spans(self, fh):
        """Append this child's spans: one JSON header line, then the four
        columns as raw arrays in native byte order (name index, parent span or -1,
        start and end in ``time.perf_counter`` seconds)."""
        header = {"names": self.names, "spans": len(self.span_name),
                  "columns": ["name:i32", "parent:i32", "start:f64", "end:f64"]}
        fh.write(json.dumps(header).encode() + b"\n")
        for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
            column.tofile(fh)


def summarize(snaps: list[dict], rounds: int) -> dict:
    """Per-layer metrics per round from the children's snapshots."""
    calls: dict[str, int] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    totals = dict.fromkeys(("quotient_distinct", "canonical_distinct", "towerfile_bytes",
                            "snf_calls", "snf_misses", "spans", "spans_dropped"), 0)
    for s in snaps:
        for k, v in s["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in s["self_s"].items():
            self_s[k] += v
        for k in totals:
            totals[k] += s[k]

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    m = {
        "intmat.matrices_built": c("intmat.IntMatrix.__init__"),
        "intmat.snf_calls": totals["snf_calls"],
        "intmat.snf_misses": totals["snf_misses"],
        "intmat.hnf_calls": c("intmat.hermite_normal_form"),
        "groups.groups_built": c("groups.FinAbGroup.__init__"),
        "groups.homs_built": c("groups.GroupHom.__init__"),
        "groups.kernel_image_cokernel_calls": c("groups.hom_kernel", "groups.hom_image",
                                                "groups.hom_cokernel"),
        "zlmod.quotient_calls": c("zlmod.ZlModule.quotient_group"),
        "zlmod.quotient_distinct": totals["quotient_distinct"],
        "towers.towers_built": c("towers.Tower.__init__"),
        "towers.predicate_calls": c("towers.is_zero_system", "towers.is_l_adic"),
        "towers.classify_tail_calls": c("towers.classify_tail"),
        "arcat.canonical_calls": c("arcat.canonical_l_adic"),
        "arcat.canonical_distinct": totals["canonical_distinct"],
        "arcat.stable_image_calls": c("arcat.stable_image_tower", "arcat.stable_image_bound"),
        "upsilon.upsilon_calls": c("upsilon.upsilon"),
        "upsilon.psi_calls": c("upsilon.psi"),
        "limits.limit_calls": c("limits.limit"),
        "suites.cases": c("suites.run_case"),
        "suites.shrink_calls": c("suites.shrink_case"),
        "towerfile.loads": c("towerfile.load_tower_file"),
        "towerfile.bytes": totals["towerfile_bytes"],
        "cli.commands": c("cli.main"),
        "trace.spans": totals["spans"],
        "trace.spans_dropped": totals["spans_dropped"],
    }
    out = {k: v / rounds for k, v in m.items()}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer] / rounds
    return out
