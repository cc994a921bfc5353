"""Span recorder for the traced run, kept entirely outside the package.

``Tracer.install`` wraps the package's public entry points and the
``FiniteGroup`` methods listed below. A module-level function is replaced
in every ``forcing_lab`` module that holds it, so names bound at import
(``catalog``'s ``from_generators``, ``exponents``' ``build_forcing_sequence``,
the package's re-exports) are patched where they are looked up. Methods are
patched on their class. Every call records a span: name, start, end, parent
span and operation id. Spans stay in memory until ``aggregate`` or
``write_spans`` reads them.

Not wrapped, so their time counts as self time of whichever wrapped caller
runs them: ``FiniteGroup.agemo``, ``is_normal``, ``center``, ``orders``,
``classify.is_cyclic`` and ``is_generalized_quaternion``, and
``groups.direct_product`` / ``subgroup_as_group`` (both end in the wrapped
``from_generators``).
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

FUNCTIONS = (
    ("groupspec", "parse_group_spec"),
    ("groups", "from_generators"),
    ("classify", "p_group_profile"),
    ("classify", "sylow_decomposition"),
    ("forcing", "build_forcing_sequence"),
    ("forcing", "verify_certificate"),
    ("exponents", "delta_for_p_group"),
    ("exponents", "delta_for_nilpotent"),
    ("exponents", "replay_trace"),
    ("certio", "emit"),
    ("certio", "parse"),
)

FINITE_GROUP_METHODS = (
    "quotient",
    "conjugacy_classes",
    "lower_exponent_p_series",
    "frattini",
    "subgroup_closure",
    "commutator_subgroup",
    "intermediate_index_p_subgroups",
)

# Calls whose tracemalloc peak is recorded when the tracer's ``memory`` flag
# is set. tracemalloc slows every allocation several times over, so it runs
# only inside these calls and only in a pass whose times are not used.
MEMORY_SPANS = ("forcing.build_forcing_sequence", "forcing.verify_certificate")

MB = 1024 * 1024


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent, op, nested-in-same-name]
        self.spans: list[list[Any]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self.memory = False
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op,
                           self._active[name] > 0])
        self._stack.append(sid)
        self._active[name] += 1
        return sid

    def end(self, sid: int) -> None:
        span = self.spans[sid]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._active[span[0]] -= 1

    def _wrap(self, name: str, fn: Callable[..., Any],
              after: Callable[[Any, tuple], None] | None = None) -> Callable[..., Any]:
        watch = name in MEMORY_SPANS
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            memory = watch and tracer.memory
            if memory:
                started = not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.on_error(name, exc)
                raise
            finally:
                tracer.end(sid)
                if memory:
                    peak = (tracemalloc.get_traced_memory()[1] - base) / MB
                    tracer.peaks[name] = max(tracer.peaks[name], peak)
                    if started:
                        tracemalloc.stop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def on_error(self, name: str, exc: Exception) -> None:
        if name == "forcing.build_forcing_sequence" and type(exc).__name__ in (
                "CyclicGroup", "QuaternionGroup"):
            self.counters["forcing.refused"] += 1

    # -- counters recorded where the work happens --------------------------

    def _after_build(self, cert: Any, args: tuple) -> None:
        self.counters["forcing.chain_entries"] += len(cert.chain)

    def _after_verify(self, report: Any, args: tuple) -> None:
        self.counters["forcing.verify.conditions"] += len(report.checks)

    def _after_emit(self, data: bytes, args: tuple) -> None:
        self.counters["certio.bytes"] += len(data)

    def _after_init(self, result: Any, args: tuple) -> None:
        # 4 bytes per int32 entry of the n x n product table, computed from
        # the shape, not measured.
        n = args[0].order
        self.counters["groups.table_bytes_computed"] += 4 * n * n

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch the loaded package."""
        import forcing_lab.groups as groups_mod

        if self._patches:
            raise RuntimeError("tracer is already installed")

        modules = [m for k, m in sys.modules.items()
                   if (k == "forcing_lab" or k.startswith("forcing_lab.")) and m is not None]
        after = {
            "forcing.build_forcing_sequence": self._after_build,
            "forcing.verify_certificate": self._after_verify,
            "certio.emit": self._after_emit,
        }
        for mod_name, fn_name in FUNCTIONS:
            mod = sys.modules[f"forcing_lab.{mod_name}"]
            original = getattr(mod, fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapper = self._wrap(name, original, after.get(name))
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, attr, wrapper)
        fg = groups_mod.FiniteGroup
        for method in FINITE_GROUP_METHODS:
            self._patch(fg, method, self._wrap(f"groups.FiniteGroup.{method}",
                                               vars(fg)[method]))
        self._patch(fg, "__init__", self._wrap("groups.FiniteGroup.init", vars(fg)["__init__"],
                                               self._after_init))
        sub = groups_mod.Subgroup
        self._patch(sub, "__post_init__", self._wrap("groups.Subgroup.init",
                                                     vars(sub)["__post_init__"]))

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take_pass(self, first_span: int) -> dict[str, float]:
        """Per-layer metrics of the spans from ``first_span`` on and of the
        counters since the previous call, which are then cleared."""
        if self._stack:
            raise RuntimeError("pass ended inside an open span")
        out = aggregate(self.spans, first_span, self.counters, self.peaks)
        self.counters.clear()
        self.peaks.clear()
        return out


def aggregate(spans: list[list[Any]], first_span: int, counters: dict[str, float],
              peaks: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from the spans at ``first_span`` and after.

    ``total_s`` sums the spans that are not nested in a span of the same
    name, so recursion (a product spec parsing its parts) is not counted
    twice. ``self_s`` is each span's duration minus its direct children's.
    """
    children: dict[int, float] = defaultdict(float)
    for span in spans[first_span:]:
        if span[3] is not None:
            children[span[3]] += span[2] - span[1]
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    for sid in range(first_span, len(spans)):
        name, start, end, _parent, _op, nested = spans[sid]
        calls[name] += 1
        if not nested:
            total[name] += end - start
        self_time[name] += end - start - children.get(sid, 0.0)
    out: dict[str, float] = {}
    for name in sorted(calls):
        if name == "op":
            continue
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.total_s"] = total[name]
        out[f"{name}.self_s"] = self_time[name]
    for name, value in counters.items():
        out[name] = value
    for name, value in peaks.items():
        out[f"{name}.peak_mb"] = value
    return _with_ratio(out)


def merge(parts: list[dict[str, float]]) -> dict[str, float]:
    """Combine per-layer metrics of several processes: peaks take the
    maximum, the ratio is recomputed, everything else adds up."""
    out: dict[str, float] = defaultdict(float)
    for part in parts:
        for name, value in part.items():
            if name.endswith(".peak_mb"):
                out[name] = max(out[name], value)
            else:
                out[name] += value
    return _with_ratio(dict(out))


def _with_ratio(out: dict[str, float]) -> dict[str, float]:
    """Add the useful-work ratio, quotients formed per certificate chain
    entry, where a certificate was built."""
    entries = out.get("forcing.chain_entries", 0)
    if entries:
        quotients = out.get("groups.FiniteGroup.quotient.calls", 0)
        out["groups.quotients_per_chain_entry"] = quotients / entries
    return out


def write_spans(path: Path, spans: list[list[Any]]) -> None:
    """Write spans as JSON lines; a span's id is its position in the list."""
    with path.open("w") as fh:
        for sid, (name, start, end, parent, op, _nested) in enumerate(spans):
            fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")


def adopt(spans: list[list[Any]], child: list[list[Any]], root_parent: int) -> None:
    """Append a child process's spans, renumbering their parents and hanging
    its top-level spans under ``root_parent``."""
    offset = len(spans)
    for name, start, end, parent, op, nested in child:
        spans.append([name, start, end, root_parent if parent is None else parent + offset,
                      op, nested])
