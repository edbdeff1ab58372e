"""Layer spans, work counts and the dense-matrix guard for the benchmark.

Spans are recorded from the benchmark's own files: each traced function is
replaced, for the duration of one operation, at the name its caller looks it
up under (a module attribute), so the program itself is not edited. A
function that a later refactor deletes or renames is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

#: Refuse a rate-kernel call whose [n_states x n_users] float64 output would
#: exceed this many bytes. The kernel's measured peak is about three times
#: its output array (contended_su: 309 MB largest channel, ~1 GB peak RSS),
#: so 1 GiB keeps every admitted workload well inside an 8 GB machine while
#: stadium 200/20000 SU (over 50 GB for its largest channel) is refused
#: before it allocates.
DENSE_BYTES_BUDGET = 1 << 30


class DenseBudgetExceeded(RuntimeError):
    """A rate kernel would allocate more dense state x user bytes than allowed."""


def dense_matrix_bytes(states, n_users_total: int) -> int:
    """Computed (not measured) size of one kernel's float64 output array."""
    return 8 * int(states.shape[0]) * int(n_users_total)


def _kernel_args(args, kwargs):
    """(assoc, members, states, n_users_total) of a *_channel_state_rates call,
    or None when a later signature no longer matches this one."""
    names = ("gains", "assoc", "aps", "members", "states", "tech", "n_users_total")
    bound = dict(zip(names, args), **kwargs)
    try:
        return bound["assoc"], bound["members"], bound["states"], bound["n_users_total"]
    except KeyError:
        return None


class DenseGuard:
    """Pre-flight check run before each contended rate-kernel call."""

    def __init__(self, budget: int = DENSE_BYTES_BUDGET):
        self.budget = budget
        self.refused: str | None = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def guarded(*args, **kwargs):
            call = _kernel_args(args, kwargs)
            if call is None:
                return fn(*args, **kwargs)
            _, _, states, n_users = call
            need = dense_matrix_bytes(states, n_users)
            if need > self.budget:
                self.refused = (
                    f"{name} would allocate {need / 2**20:.0f} MiB "
                    f"({states.shape[0]} states x {n_users} users), over the "
                    f"{self.budget / 2**20:.0f} MiB dense-matrix budget")
                raise DenseBudgetExceeded(self.refused)
            return fn(*args, **kwargs)
        return guarded

    @contextmanager
    def installed(self):
        rates = importlib.import_module("wlanmodel.rates")
        names = [n for n in ("su_channel_state_rates", "mu_channel_state_rates")
                 if hasattr(rates, n)]
        saved = {n: getattr(rates, n) for n in names}
        try:
            for n in names:
                setattr(rates, n, self.wrap(f"rates.{n}", saved[n]))
            yield self
        finally:
            for n, fn in saved.items():
                setattr(rates, n, fn)


# ---------------------------------------------------------------------------
# Work counts recorded at span boundaries

def _count_gains(counts, details, args, kwargs, result):
    counts["propagation.pairs"] += result.ap_to_ut.size + result.ap_to_ap.size


def _count_chain(counts, details, args, kwargs, result):
    per_channel = {str(ch): int(c.model.n_states) for ch, c in sorted(result.items())}
    modes = {str(ch): c.model.mode.value for ch, c in sorted(result.items())}
    counts["csma.states"] += sum(per_channel.values())
    counts["csma.max_channel_states"] = max(
        counts["csma.max_channel_states"], max(per_channel.values(), default=0))
    counts["csma.maximal_only_channels"] += sum(
        m == "maximal_only" for m in modes.values())
    details.setdefault("chain_states_per_channel", []).append(per_channel)
    details.setdefault("chain_mode_per_channel", []).append(modes)


def _count_kernel(counts, details, args, kwargs, result):
    # A changed signature gives None here; the TypeError marks the span uncounted.
    assoc, members, states, n_users = _kernel_args(args, kwargs)
    channel_users = sum(len(assoc.sets.get(a, ())) for a in members)
    counts["rates.state_user_pairs"] += int(states.shape[0]) * channel_users
    counts["rates.dense_matrix_bytes"] += dense_matrix_bytes(states, n_users)


def _count_oracle(counts, details, args, kwargs, result):
    counts["oracle.realizations"] += int(result.n_realizations)
    counts["oracle.resample_events"] += int(result.resample_events)


@dataclass(frozen=True)
class Target:
    module: str      # module whose attribute the caller looks up
    attr: str
    span: str        # <layer>.<function>
    count: object = None


#: Every traced call site. A function imported into a second module is
#: wrapped there too, because its callers look it up under that name.
TARGETS = (
    Target("wlanmodel.pipeline", "evaluate", "pipeline.evaluate"),
    Target("wlanmodel.pipeline", "mc_validate", "pipeline.mc_validate"),
    Target("wlanmodel.pipeline", "write_report", "pipeline.write_report"),
    Target("wlanmodel.pipeline", "write_validation", "pipeline.write_validation"),
    Target("wlanmodel.pipeline", "build_scenario", "scenario.load"),
    Target("wlanmodel.pipeline", "gain_matrix", "propagation.gain_matrix", _count_gains),
    Target("wlanmodel.radio_plan", "assign_channels", "radio_plan.assign_channels"),
    Target("wlanmodel.radio_plan", "associate_users", "radio_plan.associate_users"),
    Target("wlanmodel.radio_plan", "build_clusters", "radio_plan.build_clusters"),
    Target("wlanmodel.radio_plan", "associate_users_to_clusters",
           "radio_plan.associate_users_to_clusters"),
    Target("wlanmodel.csma", "build_contention_graph", "csma.build_contention_graph"),
    Target("wlanmodel.csma", "channel_ctmcs", "csma.channel_ctmcs", _count_chain),
    Target("wlanmodel.rates", "peak_rate_matrix", "rates.peak_rate_matrix"),
    Target("wlanmodel.rates", "su_channel_state_rates", "rates.su_channel_state_rates",
           _count_kernel),
    Target("wlanmodel.rates", "mu_channel_state_rates", "rates.mu_channel_state_rates",
           _count_kernel),
    Target("wlanmodel.oracle", "mu_channel_state_rates", "rates.mu_channel_state_rates",
           _count_kernel),
    Target("wlanmodel.rates", "spectral_efficiency", "rates.spectral_efficiency"),
    Target("wlanmodel.rates", "average_over_ctmc", "rates.average_over_ctmc"),
    Target("wlanmodel.rates", "dist_mu_rate", "rates.dist_mu_rate"),
    Target("wlanmodel.oracle", "dist_mu_rate", "rates.dist_mu_rate"),
    Target("wlanmodel.rates", "throughput_report", "rates.throughput_report"),
    Target("wlanmodel.metrics", "summarize", "metrics.summarize"),
    Target("wlanmodel.oracle", "mc_su_rate", "oracle.mc_su_rate", _count_oracle),
    Target("wlanmodel.oracle", "mc_mu_rate", "oracle.mc_mu_rate", _count_oracle),
    Target("wlanmodel.oracle", "mc_dist_rate", "oracle.mc_dist_rate", _count_oracle),
)

SPAN_NAMES = tuple(dict.fromkeys(t.span for t in TARGETS))

#: Spans whose self time is reported: they contain other traced spans.
SELF_TIMED = ("pipeline.evaluate", "pipeline.mc_validate",
              "rates.mu_channel_state_rates", "oracle.mc_mu_rate",
              "oracle.mc_dist_rate")

#: Spans whose call counts are reported (the rest run once per evaluation).
CALL_COUNTED = ("rates.spectral_efficiency", "rates.su_channel_state_rates",
                "rates.mu_channel_state_rates", "rates.dist_mu_rate")

#: Catch-all spans: their self time is not attributed to a layer.
UNATTRIBUTED = ("pipeline.evaluate", "pipeline.mc_validate")

_KERNELS = ("rates.su_channel_state_rates", "rates.mu_channel_state_rates")
_ORACLES = ("oracle.mc_su_rate", "oracle.mc_mu_rate", "oracle.mc_dist_rate")

#: Work counts and the spans that record them.
COUNTS = {
    "propagation.pairs": ("propagation.gain_matrix",),
    "csma.states": ("csma.channel_ctmcs",),
    "csma.max_channel_states": ("csma.channel_ctmcs",),
    "csma.maximal_only_channels": ("csma.channel_ctmcs",),
    "rates.state_user_pairs": _KERNELS,
    "rates.dense_matrix_bytes": _KERNELS,
    "oracle.realizations": _ORACLES,
    "oracle.resample_events": _ORACLES,
}


class Tracer:
    """In-memory span recorder; one operation at a time."""

    def __init__(self):
        # (op, span id, parent span id or None, name, start, end)
        self.spans: list[tuple] = []
        self.absent: set[Target] = set()
        self.uncounted: set[str] = set()   # spans whose count hook no longer fits
        self._stack: list[int] = []
        self._op = -1
        self._counts: dict[int, Counter] = defaultdict(Counter)
        self._details: dict[int, dict] = defaultdict(dict)

    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[span_id] = (self._op, span_id, parent,
                                       target.span, start, end)
            if target.count is not None:
                try:
                    target.count(self._counts[self._op], self._details[self._op],
                                 args, kwargs, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    self.uncounted.add(target.span)
            return result
        return traced

    @contextmanager
    def operation(self, op: int):
        """Trace every target while one operation runs, then restore them."""
        self._op = op
        saved = []
        self.absent = set()
        for t in TARGETS:
            module = importlib.import_module(t.module)
            fn = getattr(module, t.attr, None)
            if fn is None:
                self.absent.add(t)
                continue
            saved.append((module, t.attr, fn))
            setattr(module, t.attr, self._wrap(t, fn))
        try:
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def op_profile(self, op: int) -> dict:
        """Busy time, self time and calls per span name, plus work counts."""
        spans = [s for s in self.spans if s[0] == op]
        child_time: Counter = Counter()
        for _, _, parent, _, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        busy, self_time, calls = Counter(), Counter(), Counter()
        for _, span_id, _, name, start, end in spans:
            busy[name] += end - start
            self_time[name] += end - start - child_time[span_id]
            calls[name] += 1
        return {"busy": busy, "self": self_time, "calls": calls,
                "counts": dict(self._counts[op]), "details": self._details[op],
                "attributed": sum(v for k, v in self_time.items()
                                  if k not in UNATTRIBUTED)}

    def absent_spans(self) -> set[str]:
        """Span names none of whose call sites exist in the program."""
        return set(SPAN_NAMES) - {t.span for t in TARGETS if t not in self.absent}
