"""Aggregation rules of the host-cost benchmark.

Pure functions over the per-repeat records that the ``hostbench`` binary
prints, kept apart from the orchestration in run.py so that
test_aggregate.py can check them on hand-made data:

* timings are reported as a median with quartiles and the repeat count;
* a latency tail is the highest percentile of a fixed ladder that still
  has at least ``MIN_BEYOND`` samples beyond it, reported with the sample
  count;
* every ratio carries its numerator and denominator;
* requests are counted once (see Requests): those not accepted by the
  end of a correct repeat, and every request of a repeat that failed its
  correctness check.
"""

import math
import statistics
from fractions import Fraction

# A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def spread(values):
    """(q1, median, q3) of `values` (Python's inclusive=False quartiles)."""
    values = list(values)
    if not values:
        raise ValueError("spread of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def median(values):
    return spread(values)[1]


def _rank(count, pct):
    """1-based nearest rank ceil(pct/100 * count), in exact arithmetic so
    that e.g. p99.9 of 10000 samples is rank 9990, not 9991."""
    return max(1, math.ceil(Fraction(str(pct)) * count / 100))


def nearest_rank(sorted_samples, pct):
    """Nearest-rank percentile: the sample at index ceil(pct/100 * n) - 1."""
    n = len(sorted_samples)
    if n == 0:
        raise ValueError("percentile of no samples")
    return sorted_samples[min(_rank(n, pct), n) - 1]


def samples_beyond(count, pct):
    """Samples strictly past the nearest-rank `pct` percentile of `count`."""
    return count - _rank(count, pct) if count else 0


def supports(count, pct):
    """Whether `count` samples support reporting the `pct` percentile."""
    return samples_beyond(count, pct) >= MIN_BEYOND


def tail_percentile(count, ladder=PERCENTILE_LADDER):
    """Highest ladder percentile with at least MIN_BEYOND samples beyond
    it, or None when not even the lowest qualifies."""
    best = None
    for pct in ladder:
        if supports(count, pct):
            best = pct
    return best


class Ratio:
    """A ratio that always travels with its base."""

    def __init__(self, num, den):
        self.num = num
        self.den = den

    @property
    def value(self):
        """num / den; 0.0 for an empty base (the text form says n/a)."""
        return self.num / self.den if self.den else 0.0

    def text(self, num_label, den_label):
        shown = f"{self.value:.6g}" if self.den else "n/a"
        return (f"{shown} ({num_label} {_fmt(self.num)} / "
                f"{den_label} {_fmt(self.den)})")


def _fmt(x):
    return f"{x:.6g}" if isinstance(x, float) else str(x)


class Requests:
    """Client requests of a set of repeat records, counted once.

    Each record has ``submitted``, ``accepted`` and ``correct``.
    ``unaccepted`` counts the requests of correct records that were not
    accepted when the run ended; ``gate_failed`` counts every request of
    the records that failed their correctness check."""

    def __init__(self, records):
        self.attempted = self.unaccepted = self.gate_failed = 0
        for r in records:
            self.attempted += r["submitted"]
            if r["correct"]:
                self.unaccepted += r["submitted"] - r["accepted"]
            else:
                self.gate_failed += r["submitted"]

    def fail_ratio(self):
        """(submitted - accepted) / submitted, a failed record counting
        all of its requests."""
        return Ratio(self.unaccepted + self.gate_failed, self.attempted)

    def accept_ratio(self):
        """1 - fail_ratio, with the same base."""
        return Ratio(self.attempted - self.unaccepted - self.gate_failed,
                     self.attempted)


def pooled_latency(sample_lists):
    """Sorted union of per-repeat latency samples."""
    pooled = []
    for s in sample_lists:
        pooled.extend(s)
    pooled.sort()
    return pooled
