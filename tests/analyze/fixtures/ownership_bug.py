"""Seeded ownership hazard: a transfer started behind the dataplane's back.

The run completes and moves the right bytes, but the path policy and the
per-class ledger never see the traffic.  ``module-ownership`` flags the
call outside ``dataplane``/``hw``.
"""


def raw_put(fabric, desc):
    return fabric.start_transfer(desc)  # module-ownership: dataplane bypass
