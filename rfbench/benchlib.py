"""Pure helpers of the rfbench runner: the percentile rule, failure
accounting, metric assembly, and the check that emitted metric names match
BENCHMARK.json.  Kept free of I/O so test_benchlib.py can pin them."""

import json
import math
import statistics

# The end-to-end metrics, in BENCHMARK.json order.
END_TO_END = (
    "samples_per_s",
    "block_p50_us",
    "block_p99_us",
    "ttfb_p50_us",
    "ttfb_p99_us",
    "setup_s",
    "rss_mb",
)

MIN_BEYOND = 10


def tail_percentile(values, target=0.99, min_beyond=MIN_BEYOND):
    """The nearest-rank `target` percentile of `values`, lowered to the
    highest percentile that still has at least `min_beyond` samples above
    its rank, but never below the median (a run too short for the rule
    reports its median as the tail).  Returns (value, percentile, count),
    percentile in (0, 1]."""
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = math.ceil(target * n) - 1          # nearest-rank index
    rank = max(min(rank, n - 1 - min_beyond), math.ceil(0.5 * n) - 1)
    return ordered[rank], (rank + 1) / n, n


STRETCHES = 4
MIN_STRETCH = 20 * MIN_BEYOND


def steady_tail(values, stretches=STRETCHES, min_stretch=MIN_STRETCH):
    """The tail of a run: `values`, in the order they were measured, cut
    into up to `stretches` equal consecutive stretches of at least
    `min_stretch` samples, and the median of the stretches'
    tail_percentile values.  A contention burst of a shared machine moves
    the tail of the stretch it falls in, not the run's; a run too short
    to cut reports the tail_percentile of the whole.  Returns (value,
    percentile, count, stretches), percentile the median of the
    stretches' effective percentiles."""
    n = len(values)
    k = min(stretches, n // min_stretch)
    if k < 2:
        return (*tail_percentile(values), 1)
    tails = [tail_percentile(values[i * n // k:(i + 1) * n // k])
             for i in range(k)]
    return (statistics.median(t[0] for t in tails),
            statistics.median(t[1] for t in tails), n, k)


MIN_WINDOWS = 3


def throughput(windows, samples, wall_s):
    """Samples per second: the median over the timed loop's ~1 s windows
    (a slow stretch of a shared machine moves one window, not the run);
    the whole-run ratio when the run is too short for MIN_WINDOWS."""
    rates = [s / w for s, w in windows if w > 0]
    if len(rates) >= MIN_WINDOWS:
        return statistics.median(rates)
    return samples / wall_s


def failure_accounting(attempted, failed):
    """(failed_frac, correct) of a run.  Every operation that threw or
    failed a check counts once against the operations attempted."""
    if not (isinstance(attempted, int) and isinstance(failed, int)):
        raise TypeError("attempted and failed must be whole numbers")
    if attempted < 1 or failed < 0 or failed > attempted:
        raise ValueError(f"inconsistent counts: {failed} of {attempted}")
    return failed / attempted, failed == 0


def end_to_end(record):
    """End-to-end metric values from one untraced workload record, plus the
    sample counts and effective percentiles behind the tail metrics."""
    block_p99, block_q, block_n, block_k = steady_tail(record["block_us"])
    ttfb_p99, ttfb_q, ttfb_n, ttfb_k = steady_tail(record["ttfb_us"])
    values = {
        "samples_per_s": throughput(record["windows"], record["samples"],
                                    record["wall_s"]),
        "block_p50_us": statistics.median(record["block_us"]),
        "block_p99_us": block_p99,
        "ttfb_p50_us": statistics.median(record["ttfb_us"]),
        "ttfb_p99_us": ttfb_p99,
        "setup_s": statistics.median(record["setup_s"]),
        "rss_mb": record["rss_mb"],
    }
    counts = {
        "block": {"count": block_n, "tail_percentile": block_q,
                  "stretches": block_k},
        "ttfb": {"count": ttfb_n, "tail_percentile": ttfb_q,
                 "stretches": ttfb_k},
        "setup": {"count": len(record["setup_s"])},
        "windows": {"count": len(record["windows"])},
    }
    return values, counts


def load_spec(path):
    with open(path) as handle:
        return json.load(handle)


def declared(spec, trace):
    """{name: unit} of the metrics BENCHMARK.json declares for a run."""
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def check_names(values, spec, trace):
    """Raise unless `values` carries exactly the declared metric names."""
    expected = set(declared(spec, trace))
    got = set(values)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        raise ValueError(f"metric names disagree with BENCHMARK.json: "
                         f"missing {missing}, undeclared {extra}")


def result_line(values, spec, trace, attempted, failed):
    """The last stdout line: one JSON object with exactly the keys
    correct, attempted, failed and metrics."""
    check_names(values, spec, trace)
    units = declared(spec, trace)
    _, correct = failure_accounting(attempted, failed)
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})
