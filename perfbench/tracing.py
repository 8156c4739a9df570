"""Spans and counters recorded from outside greenstock.

Nothing under ``src/`` knows about tracing: ``Tracer.install`` replaces each
public function of the layer modules with a timing wrapper in every
namespace that bound it (``cli`` imports by name, ``game`` binds ``core``'s
kernels, best-response dynamics looks ``rps_best_response`` up as a module
global), wraps the samplers' ``sample`` methods, and hands back a function
that puts every original back.

Spans are aggregated per name while they run: call count, total time and
the time covered by nested spans, so self time is ``total - child``.
``take`` returns the aggregate since the last ``take`` and starts a new
one; the benchmark calls it once per operation.
"""

from __future__ import annotations

import functools
import importlib
import time
import types

import numpy as np

LAYERS = ("core", "game", "allocation", "simulate", "cli")
SAMPLERS = ("Exponential", "HyperExp2", "TruncatedNormal")

# The deep-truncation sampler path: at the default floor a truncated normal
# with cv >= 0.9 accepts about 3% of its base-normal draws.
DEEP_CV = 0.9


class SpanNeverFired(RuntimeError):
    """A span a metric depends on recorded no call, e.g. after a rename."""


def sampler_label(dist) -> str:
    kind = type(dist).__name__
    if kind == "Exponential":
        return "exponential"
    if kind == "HyperExp2":
        return "hyperexp2"
    return "truncnorm-deep" if dist.cv >= DEEP_CV else "truncnorm"


class CountingGenerator:
    """Delegates every method to a numpy Generator and counts the variates
    it returns, so the random stream is the one the sampler would draw."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.drawn = 0

    def __getattr__(self, attr):
        method = getattr(self._rng, attr)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.drawn += int(np.size(out))
            return out

        return counted


# Spans whose distinct argument tuples are counted, for useful-work ratios.
DISTINCT_ARGS = ("allocation.breakeven_rate",)


class Tracer:
    """Aggregated spans per name, draw counts per sampler label, and the
    distinct argument tuples of the spans in ``DISTINCT_ARGS``."""

    def __init__(self):
        self._stats: dict[str, list[int]] = {}      # name -> [calls, total_ns, child_ns]
        self._stack: list[int] = []                 # child time of each open span
        self._args: dict[str, set] = {name: set() for name in DISTINCT_ARGS}
        self._draws: dict[str, list[int]] = {}      # label -> [requested, drawn, ns]

    def _wrap(self, name: str, fn):
        rec = self._stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        seen = self._args.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if seen is not None:
                seen.add((args, tuple(sorted(kwargs.items()))))
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[0] += 1
                rec[1] += dt
                rec[2] += stack.pop()
                if stack:
                    stack[-1] += dt

        return wrapper

    def _wrap_sampler(self, name: str, method):
        timed = self._wrap(name, method)
        draws = self._draws

        @functools.wraps(method)
        def sample(dist, rng, n):
            proxy = CountingGenerator(rng)
            t0 = time.perf_counter_ns()
            out = timed(dist, proxy, n)
            rec = draws.setdefault(sampler_label(dist), [0, 0, 0])
            rec[0] += n
            rec[1] += proxy.drawn
            rec[2] += time.perf_counter_ns() - t0
            return out

        return sample

    def install(self, package):
        """Wrap the public functions of every layer module of `package`.

        Returns a function that restores every binding it replaced.
        """
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        namespaces = [vars(package)] + [vars(m) for m in modules]
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)

        undo = []
        for ns in namespaces:
            for key, value in list(ns.items()):
                if key.startswith("__"):
                    continue
                if isinstance(value, types.FunctionType) and value in wrapped:
                    ns[key] = wrapped[value]
                    undo.append((ns, key, value))
                elif isinstance(value, dict):
                    # Tables of function tuples, such as the CLI's SCENARIOS.
                    for k, entry in list(value.items()):
                        if isinstance(entry, tuple) and any(
                                isinstance(x, types.FunctionType) and x in wrapped
                                for x in entry):
                            value[k] = tuple(
                                wrapped.get(x, x) if isinstance(x, types.FunctionType) else x
                                for x in entry)
                            undo.append((value, k, entry))

        for cls_name in SAMPLERS:
            cls = getattr(modules[LAYERS.index("simulate")], cls_name)
            method = vars(cls)["sample"]
            setattr(cls, "sample", self._wrap_sampler(f"simulate.{cls_name}.sample", method))
            undo.append((cls, "sample", method))

        def restore():
            for target, key, original in reversed(undo):
                if isinstance(target, type):
                    setattr(target, key, original)
                else:
                    target[key] = original

        return restore

    def take(self) -> "Snapshot":
        """Aggregates since the previous call; the counters restart at zero."""
        snap = Snapshot(
            spans={name: tuple(rec) for name, rec in self._stats.items()},
            distinct={name: len(seen) for name, seen in self._args.items()},
            draws={label: tuple(rec) for label, rec in self._draws.items()},
        )
        for rec in self._stats.values():
            rec[:] = [0, 0, 0]
        for seen in self._args.values():
            seen.clear()
        self._draws.clear()
        return snap


class Snapshot:
    """Span aggregates of one operation or, summed, of one pass."""

    def __init__(self, spans=None, distinct=None, draws=None):
        self.spans = spans or {}
        self.distinct = distinct or {}
        self.draws = draws or {}

    @staticmethod
    def total(snaps) -> "Snapshot":
        out = Snapshot()
        for snap in snaps:
            for field in ("spans", "distinct", "draws"):
                acc = getattr(out, field)
                for key, value in getattr(snap, field).items():
                    if isinstance(value, tuple):
                        prev = acc.get(key, (0,) * len(value))
                        acc[key] = tuple(a + b for a, b in zip(prev, value))
                    else:
                        acc[key] = acc.get(key, 0) + value
        return out

    def _span(self, name: str) -> tuple[int, int, int]:
        rec = self.spans.get(name)
        if rec is None or rec[0] == 0:
            raise SpanNeverFired(f"declared span {name!r} never fired")
        return rec

    def calls(self, name: str) -> int:
        return self._span(name)[0]

    def total_ns(self, name: str) -> int:
        return self._span(name)[1]

    def mean_ns(self, name: str) -> float:
        calls, total, _ = self._span(name)
        return total / calls

    def layer(self, prefix: str) -> tuple[int, int, int]:
        """(calls, total_ns, self_ns) summed over spans named `prefix`.*"""
        recs = [rec for name, rec in self.spans.items() if name.startswith(prefix + ".")]
        calls = sum(r[0] for r in recs)
        if calls == 0:
            raise SpanNeverFired(f"no span of layer {prefix!r} fired")
        return calls, sum(r[1] for r in recs), sum(r[1] - r[2] for r in recs)

    def draw(self, label: str) -> tuple[int, int, int]:
        rec = self.draws.get(label)
        if rec is None or rec[0] == 0:
            raise SpanNeverFired(f"sampler {label!r} never drew")
        return rec


def parse_importtime(stderr: str, package: str = "greenstock") -> dict[str, float | int]:
    """Cumulative import seconds of `package` and of the named modules it
    loads, plus the number of modules its import loaded, from the output of
    ``python -X importtime -c "import <package>"``."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name_field = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue                               # the column header
        name = name_field.strip()
        depth = (len(name_field) - len(name_field.lstrip(" ")) - 1) // 2
        entries.append((name, depth, int(cumulative) * 1e-6))
    top = [k for k, (name, depth, _) in enumerate(entries) if name == package and depth == 0]
    if not top:
        raise ValueError(f"no top-level import of {package!r} in the importtime output")
    end = top[-1]
    start = end
    while start > 0 and entries[start - 1][1] > 0:
        start -= 1
    subtree = entries[start:end + 1]

    def cumulative_of(module: str) -> float:
        return next((cum for name, _, cum in subtree if name == module), 0.0)

    return {
        f"{package}.import_s": entries[end][2],
        f"{package}.import.simulate_s": cumulative_of(f"{package}.simulate"),
        f"{package}.import.allocation_s": cumulative_of(f"{package}.allocation"),
        f"{package}.import.scipy_stats_s": cumulative_of("scipy.stats"),
        f"{package}.import.scipy_special_s": cumulative_of("scipy.special"),
        f"{package}.import.numpy_s": cumulative_of("numpy"),
        f"{package}.import.modules": len(subtree),
    }
