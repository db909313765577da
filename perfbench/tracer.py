"""Per-layer tracing from outside the package.

The tracer wraps the public functions of every ``shrinkwrap`` module, and
the ``__post_init__`` of every dataclass that defines one, by rebinding
each ``shrinkwrap.*`` module attribute that holds the original.  Modules
import ``core`` functions by name, so rebinding ``core`` alone would miss
most calls.  Nothing under ``src/`` changes.

Every wrapped call pushes a frame on one stack: a call's self time is its
duration minus the time of the wrapped calls it made, and a layer's self
time is the sum over its functions.  Calls are so frequent in ``core`` that
no per-call record is kept; each function has aggregate counters (calls,
inclusive time, self time) and a few result hooks count work (bytes,
probes, candidates).  Unwrapped helpers count toward their caller.

The wrappers test ``active`` first, so an installed but inactive tracer
only passes calls through; untimed input generation is never counted.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

import shrinkwrap
from shrinkwrap import cli, codec, core, domination, sacks, silver, wrapper

LAYERS = {
    "cli": cli, "codec": codec, "wrapper": wrapper, "domination": domination,
    "core": core, "sacks": sacks, "silver": silver,
}

# Leaf helpers called inside the scan loops of other core functions (up to
# millions of times a job).  Timing them would cost more than they do; their
# time counts toward the caller.
UNTRACED = frozenset({
    "core.up_eval", "core.up_scan_bound", "core.up_extends", "core.growth",
    "core.pair_index", "core.pair_of", "core.word_code", "core.shape_code",
})

# Constructors counted but not timed, for the same reason.
COUNT_ONLY = frozenset({"core.UPReal.__post_init__"})

# Hot core functions that call no other timed function.  They skip the
# frame stack (their self time is their whole time), which halves the cost
# of tracing them.
LEAVES = frozenset({"core.up_canonical", "core.up_first_diff"})

# Inclusive time of the outermost call into any function of a group.
TIMED_GROUPS = {
    "codec.encode_ms": ("codec.encode",),
    "codec.decode_ms": ("codec.decode",),
    "wrapper.build_ms": ("wrapper.build_padded_wrapper", "wrapper.build_wrapper"),
    "wrapper.verify_ms": ("wrapper.verify_wrapper",),
    "wrapper.cond4_ms": ("wrapper.verify_condition4",),
    "domination.check_ms": ("domination.check_domination",),
    "core.canonical_ms": ("core.up_canonical",),
    "core.first_diff_ms": ("core.up_first_diff",),
    "sacks.verify_ms": ("sacks.verify_fusion_helper",),
    "sacks.intersect_ms": ("sacks.fusion_intersect",),
    "silver.brute_ms": ("silver.brute_obstruction",),
}

CALL_COUNTS = {
    "core.canonical_calls": "core.up_canonical",
    "core.first_diff_calls": "core.up_first_diff",
    "core.upreal_new_calls": "core.UPReal.__post_init__",
    "sacks.hpt_new_calls": "sacks.HorizonPerfectTree.__post_init__",
}

# Work counted from a call's arguments and result.
HOOKS = {
    "codec.encode": ("codec.bytes_out", lambda args, out: len(out)),
    "codec.decode": ("codec.bytes_in", lambda args, out: len(args[0])),
    "domination.check_domination": ("domination.probes", lambda args, out: len(out.rows)),
    "silver.brute_obstruction": ("silver.candidates", lambda args, out: out.total),
    "core.up_canonical": (
        "core.canonical_noop",
        lambda args, out: out.prefix == args[0].prefix and out.period == args[0].period,
    ),
}


def _targets():
    """(qualified name, owner, attribute, function) for everything to wrap."""
    for layer, mod in LAYERS.items():
        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                if f"{layer}.{name}" not in UNTRACED:
                    yield f"{layer}.{name}", mod, name, obj
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                init = obj.__dict__.get("__post_init__")
                if init is not None:
                    yield f"{layer}.{name}.__post_init__", obj, "__post_init__", init


class Tracer:
    """Counters summed over every pass between ``install`` and ``uninstall``."""

    def __init__(self):
        self.active = False
        # Per function: [calls, inclusive seconds, self seconds].
        self.cells: dict[str, list] = {}
        self.group_time: dict[str, float] = defaultdict(float)
        self.work: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []
        self._group_depth: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        group_of = {
            fn: g for g, fns in TIMED_GROUPS.items() if len(fns) > 1 for fn in fns
        }
        modules = [shrinkwrap, *LAYERS.values()]
        for qual, owner, attr, fn in list(_targets()):
            cell = self.cells.setdefault(qual, [0, 0.0, 0.0])
            if qual in COUNT_ONLY:
                new = self._counting(cell, fn)
            elif qual in LEAVES:
                new = self._leaf(cell, fn, HOOKS.get(qual))
            else:
                new = self._timing(cell, fn, group_of.get(qual), HOOKS.get(qual))
            if inspect.isclass(owner):
                self._rebind(owner, attr, new)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, name, new)

    def _rebind(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    def _counting(self, cell, fn):
        def wrapped(*args, **kwargs):
            if self.active:
                cell[0] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _leaf(self, cell, fn, hook):
        stack, clock, work = self._stack, time.perf_counter, self.work

        def wrapped(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = clock()
            out = fn(*args, **kwargs)
            elapsed = clock() - start
            cell[0] += 1
            cell[1] += elapsed
            cell[2] += elapsed
            if stack:
                stack[-1] += elapsed
            if hook:
                work[hook[0]] += hook[1](args, out)
            return out

        return wrapped

    def _timing(self, cell, fn, group, hook):
        stack, clock = self._stack, time.perf_counter
        group_time, group_depth, work = self.group_time, self._group_depth, self.work

        def wrapped(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if group:
                group_depth[group] += 1
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                cell[0] += 1
                cell[1] += elapsed
                cell[2] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if group:
                    group_depth[group] -= 1
                    if not group_depth[group]:
                        group_time[group] += elapsed
            if hook:
                work[hook[0]] += hook[1](args, out)
            return out

        return wrapped

    def counts(self) -> dict[str, int]:
        """Everything that must repeat exactly when the same jobs run again."""
        out = {f"calls:{q}": cell[0] for q, cell in self.cells.items()}
        out.update(self.work)
        return dict(sorted(out.items()))

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for qual, cell in self.cells.items():
            out[qual.split(".", 1)[0]] += cell[2]
        return out

    def metrics(self, jobs: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (mean per job, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for layer, t in self.layer_self().items():
            out[f"{layer}.self_ms"] = (1e3 * t / jobs, "ms")
        for name, fns in TIMED_GROUPS.items():
            t = self.group_time[name] if len(fns) > 1 else self.cells[fns[0]][1]
            out[name] = (1e3 * t / jobs, "ms")
        for name, qual in CALL_COUNTS.items():
            out[name] = (self.cells[qual][0] / jobs, "count")
        for name in ("codec.bytes_out", "codec.bytes_in"):
            out[name] = (self.work[name] / jobs, "bytes")
        for name in ("domination.probes", "silver.candidates"):
            out[name] = (self.work[name] / jobs, "count")
        canon = self.cells["core.up_canonical"][0]
        out["core.canonical_noop_share"] = (
            self.work["core.canonical_noop"] / canon if canon else 0.0, "share"
        )
        return out
