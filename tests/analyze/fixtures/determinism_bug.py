"""Seeded determinism hazards: route selection driven by set hash order.

Dynamically invisible — any single run picks *some* route and completes;
only comparing runs across ``PYTHONHASHSEED`` values would expose the
divergence, which the trace sanitizer never does.  The determinism lint
flags both shapes statically.
"""


def pick_route(width):
    lanes = {f"lane{i}" for i in range(width)}
    for lane in lanes:              # det-unordered-iter: hash-order choice
        return lane
    return None


def total_latency(samples):
    observed = {float(s) for s in samples}
    return sum(observed)            # det-float-accum: hash-order accumulation
