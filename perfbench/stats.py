"""Arithmetic the benchmark driver relies on, kept apart so it can be tested.

Spans are dicts with "start", "end" (seconds) and "parent" (index of the
enclosing span, -1 for a root), in the order the child opened them.
"""

import statistics


def union_length(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span["parent"] >= 0:
            children[span["parent"]].append(index)
    result = []
    for index, span in enumerate(spans):
        clipped = [(max(spans[c]["start"], span["start"]), min(spans[c]["end"], span["end"]))
                   for c in children[index]]
        result.append((span["end"] - span["start"]) - union_length(clipped))
    return result


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(values, n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def failures(reps):
    """(failed, attempted) units: the fail_ratio's numerator and base.

    A unit is one simulation: one per repetition of the online and replay
    workloads, one per scenario of a campaign. A repetition whose process
    failed as a whole counts all its units as failed.
    """
    attempted = sum(rep["units"] for rep in reps)
    failed = sum(rep["failed_units"] for rep in reps)
    return failed, attempted
