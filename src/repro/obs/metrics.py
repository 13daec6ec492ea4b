"""Dependency-free telemetry registry: labeled counters, gauges, histograms.

The serving stack runs as one coordinator plus N worker *processes*, so the
registry is built around two constraints:

* **lock-free per process** — every metric family lives in exactly one
  process and is only ever touched from that process's serving loop, so
  increments are plain dictionary updates with no locks or atomics;
* **mergeable across processes** — :meth:`MetricsRegistry.snapshot` renders
  the whole registry as a plain JSON-able dictionary, and
  :func:`merge_snapshots` folds many such snapshots (one per worker, plus
  the coordinator's) into a pool-wide view: counters and histogram buckets
  sum, gauges keep the last value seen.

Histograms use **fixed log-scale buckets** (:data:`DEFAULT_BUCKETS_MS`, a
power-of-two ladder from one microsecond to ~134 seconds, in milliseconds):
fixed bounds are what makes worker snapshots mergeable bucket-by-bucket, and
a log scale spans the paper's dichotomy — the same query shape can cost
microseconds (exact DP) or seconds (a Karp–Luby sampling loop).

:func:`render_prometheus` turns any snapshot (merged or not) into the
Prometheus text exposition format, which is what ``repro metrics`` prints;
:func:`histogram_quantile` recovers approximate quantiles (p50/p99) from
bucket counts, which is what ``repro top`` displays.

>>> registry = MetricsRegistry()
>>> requests = registry.counter("requests_total", "Requests served.", ("route",))
>>> requests.labels("exact-dp").inc()
>>> requests.labels("exact-dp").inc()
>>> snap = registry.snapshot()
>>> dict(counter_samples(snap, "requests_total"))
{('exact-dp',): 2.0}
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Fixed log-scale histogram bounds in milliseconds: ``0.001 * 2**i`` for
#: ``i`` in ``range(28)`` — one microsecond up to ~134 seconds, plus the
#: implicit ``+inf`` overflow bucket every histogram carries.
DEFAULT_BUCKETS_MS: Tuple[float, ...] = tuple(0.001 * 2**i for i in range(28))


class _CounterChild:
    """One labeled time series of a :class:`Counter` (monotone float)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the series."""
        if amount < 0:
            raise ValueError(f"counters only go up, got increment {amount}")
        self.value += amount


class _GaugeChild:
    """One labeled time series of a :class:`Gauge` (settable float)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the series to ``value``."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the series."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the series."""
        self.value -= amount


class _HistogramChild:
    """One labeled series of a :class:`Histogram`: bucket counts, sum, extremes."""

    __slots__ = ("counts", "sum", "count", "min", "max", "_bounds")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self._bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot is +inf
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation (bucketed by upper bound, inclusive)."""
        self.counts[bisect_left(self._bounds, value)] += 1
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value


class _Family:
    """Common machinery of one named metric family (a set of label series)."""

    kind = ""
    _child_type: type = _CounterChild

    def __init__(self, name: str, help: str, labelnames: Tuple[str, ...]) -> None:
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._children: Dict[Tuple[str, ...], Any] = {}

    def labels(self, *labelvalues: Any):
        """The child series for ``labelvalues`` (created on first use).

        Values are stringified, mirroring Prometheus label semantics; the
        child object is stable, so hot paths should bind it once
        (``child = family.labels("w0")``) and call methods on the child.
        """
        key = tuple(str(v) for v in labelvalues)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes {len(self.labelnames)} label(s) "
                f"{self.labelnames}, got {len(key)}"
            )
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def _make_child(self):
        return self._child_type()

    def _snapshot(self) -> Dict[str, Any]:
        return {
            "help": self.help,
            "labelnames": list(self.labelnames),
            "samples": [
                [list(key), child.value]
                for key, child in sorted(self._children.items())
            ],
        }


class Counter(_Family):
    """A monotonically increasing metric family (e.g. requests served).

    Unlabeled counters can be bumped directly with :meth:`inc`; labeled
    counters go through :meth:`~_Family.labels`.
    """

    kind = "counter"
    _child_type = _CounterChild

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabeled series (requires ``labelnames=()``)."""
        self.labels().inc(amount)

    def value(self, *labelvalues: Any) -> float:
        """The current value of one series (0.0 if never incremented)."""
        key = tuple(str(v) for v in labelvalues)
        child = self._children.get(key)
        return child.value if child is not None else 0.0


class Gauge(_Family):
    """A settable metric family (e.g. current queue depth)."""

    kind = "gauge"
    _child_type = _GaugeChild

    def set(self, value: float) -> None:
        """Set the unlabeled series (requires ``labelnames=()``)."""
        self.labels().set(value)

    def value(self, *labelvalues: Any) -> float:
        """The current value of one series (0.0 if never set)."""
        key = tuple(str(v) for v in labelvalues)
        child = self._children.get(key)
        return child.value if child is not None else 0.0


class Histogram(_Family):
    """A bucketed distribution family with fixed log-scale bounds.

    All series of one family share the same bounds (and all histograms
    default to :data:`DEFAULT_BUCKETS_MS`), which is what keeps snapshots
    from different worker processes mergeable bucket-by-bucket.
    """

    kind = "histogram"
    _child_type = _HistogramChild

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Tuple[str, ...],
        buckets: Sequence[float] = DEFAULT_BUCKETS_MS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram buckets must be strictly increasing")
        self.buckets = bounds

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        """Observe into the unlabeled series (requires ``labelnames=()``)."""
        self.labels().observe(value)

    def _snapshot(self) -> Dict[str, Any]:
        return {
            "help": self.help,
            "labelnames": list(self.labelnames),
            "buckets": list(self.buckets),
            "samples": [
                [
                    list(key),
                    {
                        "counts": list(child.counts),
                        "sum": child.sum,
                        "count": child.count,
                        "min": child.min if child.count else None,
                        "max": child.max if child.count else None,
                    },
                ]
                for key, child in sorted(self._children.items())
            ],
        }


class MetricsRegistry:
    """A process-local collection of named metric families.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking for an
    existing name returns the existing family (and raises if the kind or
    label names disagree), so independent modules can share one family
    without coordination.
    """

    def __init__(self) -> None:
        self._families: "Dict[str, _Family]" = {}

    def _family(self, cls, name: str, help: str, labelnames, **kwargs):
        existing = self._families.get(name)
        if existing is not None:
            if not isinstance(existing, cls) or existing.labelnames != tuple(
                labelnames
            ):
                raise ValueError(
                    f"metric {name!r} already registered as a "
                    f"{existing.kind} with labels {existing.labelnames}"
                )
            return existing
        family = cls(name, help, tuple(labelnames), **kwargs)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        """Get or create the :class:`Counter` family ``name``."""
        return self._family(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        """Get or create the :class:`Gauge` family ``name``."""
        return self._family(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS_MS,
    ) -> Histogram:
        """Get or create the :class:`Histogram` family ``name``."""
        return self._family(Histogram, name, help, labelnames, buckets=buckets)

    def snapshot(self) -> Dict[str, Any]:
        """The whole registry as a plain JSON-able dictionary.

        The shape is stable across processes and releases::

            {"counters":   {name: {"help", "labelnames", "samples"}},
             "gauges":     {...},
             "histograms": {name: {..., "buckets", "samples"}}}

        where each counter/gauge sample is ``[labelvalues, value]`` and each
        histogram sample is ``[labelvalues, {"counts", "sum", "count",
        "min", "max"}]`` (the extremes are ``None`` on an empty series).
        Snapshots are cheap (no locks — the registry is process-local by
        design) and are what crosses the worker reply pipes.
        """
        snap: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, family in self._families.items():
            snap[family.kind + "s"][name] = family._snapshot()
        return snap


def _merge_plain(target: Dict[str, Any], source: Dict[str, Any], summing: bool) -> None:
    for name, family in source.items():
        mine = target.get(name)
        if mine is None:
            target[name] = {
                "help": family["help"],
                "labelnames": list(family["labelnames"]),
                "samples": [[list(k), v] for k, v in family["samples"]],
            }
            continue
        merged = {tuple(k): v for k, v in mine["samples"]}
        for key, value in family["samples"]:
            key = tuple(key)
            if summing:
                merged[key] = merged.get(key, 0.0) + value
            else:
                merged[key] = value  # gauges: last snapshot wins
        mine["samples"] = [[list(k), merged[k]] for k in sorted(merged)]


def _merge_extreme(ours: Dict[str, Any], theirs: Dict[str, Any], key: str, pick):
    """One extreme of two merged samples (called before their counts sum).

    An empty series is neutral; a non-empty one without the field (written
    before extremes were tracked) makes the merged extreme unknown.
    """
    if not theirs["count"]:
        return ours.get(key)
    if not ours["count"]:
        return theirs.get(key)
    mine, other = ours.get(key), theirs.get(key)
    return None if mine is None or other is None else pick(mine, other)


def _merge_histograms(target: Dict[str, Any], source: Dict[str, Any]) -> None:
    for name, family in source.items():
        mine = target.get(name)
        if mine is None:
            target[name] = {
                "help": family["help"],
                "labelnames": list(family["labelnames"]),
                "buckets": list(family["buckets"]),
                "samples": [
                    [list(k), dict(v, counts=list(v["counts"]))]
                    for k, v in family["samples"]
                ],
            }
            continue
        if list(mine["buckets"]) != list(family["buckets"]):
            raise ValueError(
                f"histogram {name!r} has mismatched buckets across snapshots"
            )
        merged = {tuple(k): v for k, v in mine["samples"]}
        for key, sample in family["samples"]:
            key = tuple(key)
            ours = merged.get(key)
            if ours is None:
                merged[key] = dict(sample, counts=list(sample["counts"]))
            else:
                ours["counts"] = [
                    a + b for a, b in zip(ours["counts"], sample["counts"])
                ]
                ours["min"] = _merge_extreme(ours, sample, "min", min)
                ours["max"] = _merge_extreme(ours, sample, "max", max)
                ours["sum"] += sample["sum"]
                ours["count"] += sample["count"]
        mine["samples"] = [[list(k), merged[k]] for k in sorted(merged)]


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold many per-process snapshots into one pool-wide snapshot.

    Counters and histograms sum series-by-series (histograms additionally
    bucket-by-bucket, which the fixed shared bounds make well-defined);
    gauges keep the value from the last snapshot that carries the series —
    processes that must not collide on a gauge should label it (e.g. by
    worker index).  The inputs are left untouched.
    """
    merged: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
    for snap in snapshots:
        _merge_plain(merged["counters"], snap.get("counters", {}), summing=True)
        _merge_plain(merged["gauges"], snap.get("gauges", {}), summing=False)
        _merge_histograms(merged["histograms"], snap.get("histograms", {}))
    return merged


def counter_samples(
    snapshot: Dict[str, Any], name: str
) -> List[Tuple[Tuple[str, ...], float]]:
    """The ``(labelvalues, value)`` series of one counter in a snapshot."""
    family = snapshot.get("counters", {}).get(name)
    if family is None:
        return []
    return [(tuple(k), v) for k, v in family["samples"]]


def counter_value(
    snapshot: Dict[str, Any], name: str, labelvalues: Sequence[str] = ()
) -> float:
    """One counter series' value in a snapshot (0.0 when absent)."""
    wanted = tuple(str(v) for v in labelvalues)
    for key, value in counter_samples(snapshot, name):
        if key == wanted:
            return value
    return 0.0


def counter_total(snapshot: Dict[str, Any], name: str) -> float:
    """The sum of every series of one counter in a snapshot."""
    return sum(value for _, value in counter_samples(snapshot, name))


def histogram_quantile(
    bounds: Sequence[float],
    counts: Sequence[int],
    q: float,
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
) -> float:
    """Approximate the ``q``-quantile of a bucketed distribution.

    ``bounds`` are the finite bucket upper bounds and ``counts`` the
    per-bucket observation counts (one longer than ``bounds`` — the last
    slot is the ``+inf`` overflow).  The estimate interpolates linearly
    inside the winning bucket, the standard Prometheus rule; an empty
    histogram yields ``0.0`` and the overflow bucket yields its lower bound.
    ``minimum`` / ``maximum`` are the series' observed extremes (the
    ``"min"`` / ``"max"`` of a snapshot sample); when given, the estimate
    is clamped to them, so it never leaves the observed range — a single
    observation reports itself at every quantile.
    """
    estimate = _bucket_quantile(bounds, counts, q)
    if minimum is not None:
        estimate = max(estimate, minimum)
    if maximum is not None:
        estimate = min(estimate, maximum)
    return estimate


def _bucket_quantile(bounds: Sequence[float], counts: Sequence[int], q: float) -> float:
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    cumulative = 0.0
    for i, count in enumerate(counts):
        cumulative += count
        if cumulative >= rank and count:
            if i >= len(bounds):  # overflow bucket: clamp to its lower edge
                return float(bounds[-1]) if bounds else 0.0
            lower = float(bounds[i - 1]) if i > 0 else 0.0
            upper = float(bounds[i])
            fraction = (rank - (cumulative - count)) / count
            return lower + (upper - lower) * fraction
    return float(bounds[-1]) if bounds else 0.0  # pragma: no cover


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def _format_labels(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{n}="{v}"' for n, v in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


def render_prometheus(snapshot: Dict[str, Any]) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Counters and gauges become one line per series; histograms expand to
    cumulative ``_bucket{le=...}`` lines plus ``_sum`` and ``_count``, the
    standard encoding.  The output of :func:`merge_snapshots` renders the
    pool-wide view; this is what ``repro metrics`` prints.
    """
    lines: List[str] = []
    for kind in ("counters", "gauges", "histograms"):
        for name, family in sorted(snapshot.get(kind, {}).items()):
            if family["help"]:
                lines.append(f"# HELP {name} {family['help']}")
            lines.append(f"# TYPE {name} {kind[:-1]}")
            labelnames = family["labelnames"]
            if kind != "histograms":
                for labelvalues, value in family["samples"]:
                    lines.append(
                        f"{name}{_format_labels(labelnames, labelvalues)} "
                        f"{_format_value(value)}"
                    )
                continue
            bounds = family["buckets"]
            for labelvalues, sample in family["samples"]:
                cumulative = 0
                for bound, count in zip(
                    list(bounds) + ["+Inf"], sample["counts"]
                ):
                    cumulative += count
                    le = bound if isinstance(bound, str) else f"{bound:g}"
                    pairs = list(zip(labelnames, labelvalues)) + [("le", le)]
                    rendered = ",".join(f'{n}="{v}"' for n, v in pairs)
                    lines.append(
                        f"{name}_bucket{{{rendered}}} {cumulative}"
                    )
                suffix = _format_labels(labelnames, labelvalues)
                lines.append(f"{name}_sum{suffix} {_format_value(sample['sum'])}")
                lines.append(f"{name}_count{suffix} {sample['count']}")
    return "\n".join(lines) + ("\n" if lines else "")
