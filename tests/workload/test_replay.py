"""Trace replay: schema validation, both interpreters, shard equality."""

import time

import pytest

from repro.workload.replay import (
    ReplayError,
    ReplayWorkload,
    lower,
    parse_jsonl,
)

HEADER = '{"schema": "repro.workload.replay/1", "ranks": %d, "name": "t"}\n'


def _sched(ranks, *lines):
    return parse_jsonl(HEADER % ranks + "\n".join(lines) + "\n", source="t.jsonl")


PINGPONG = [
    '{"rank": 0, "op": "compute", "us": 5}',
    '{"rank": 0, "op": "send", "peer": 1, "bytes": 4096, "tag": "a", "class": "pp"}',
    '{"rank": 1, "op": "recv", "peer": 0, "tag": "a"}',
    '{"rank": 1, "op": "send", "peer": 0, "bytes": 4096, "tag": "b", "class": "pp"}',
    '{"rank": 0, "op": "recv", "peer": 1, "tag": "b"}',
    '{"rank": 0, "op": "barrier"}',
    '{"rank": 1, "op": "barrier"}',
]


# -- validation ---------------------------------------------------------------

def test_missing_header_schema():
    with pytest.raises(ReplayError, match="schema"):
        parse_jsonl('{"ranks": 2}\n', source="x.jsonl")


def test_bad_peer_flagged_with_line():
    with pytest.raises(ReplayError, match=r"t\.jsonl:2"):
        _sched(2, '{"rank": 0, "op": "send", "peer": 7, "bytes": 1, "tag": "a"}')


def test_self_send_rejected():
    with pytest.raises(ReplayError, match="own rank"):
        _sched(2, '{"rank": 0, "op": "send", "peer": 0, "bytes": 1, "tag": "a"}')


def test_unmatched_channel_rejected():
    with pytest.raises(ReplayError, match="send\\(s\\) but"):
        _sched(2, '{"rank": 0, "op": "send", "peer": 1, "bytes": 8, "tag": "a"}')


def test_collective_disagreement_rejected():
    with pytest.raises(ReplayError, match="lists"):
        _sched(
            2,
            '{"rank": 0, "op": "allreduce", "bytes": 64}',
            '{"rank": 1, "op": "allreduce", "bytes": 128}',
        )


def test_dep_must_reference_earlier_id():
    with pytest.raises(ReplayError, match="earlier step"):
        _sched(1, '{"rank": 0, "op": "compute", "us": 1, "deps": ["nope"]}')


@pytest.mark.parametrize("us", ["NaN", "Infinity", "-Infinity", "1e400", "true", "-1"])
def test_compute_time_must_be_finite_non_negative(us):
    with pytest.raises(ReplayError, match=r"t\.jsonl:2: .*finite non-negative"):
        _sched(1, '{"rank": 0, "op": "compute", "us": %s}' % us)


def test_huge_rank_count_parses_without_per_rank_tables():
    # Steps name the ranks that need id tables; the header's count is
    # only an upper bound (the machine check comes at run time).
    sched = parse_jsonl(HEADER % 10**12 + '{"rank": 0, "op": "compute", "us": 1}\n')
    assert sched.ranks == 10**12


def test_huge_rank_count_lowers_only_the_named_ranks():
    sched = parse_jsonl(
        HEADER % 10**12
        + '{"rank": 0, "op": "compute", "us": 1}\n{"rank": 0, "op": "compute", "us": 2}\n'
    )
    assert list(lower(sched)) == [0]


def test_groupless_collective_missing_ranks_counted_not_listed():
    # Checking that every rank posted the barrier must not build a
    # 10**12-entry member list: the error names the smallest missing rank.
    t0 = time.perf_counter()
    with pytest.raises(ReplayError, match=r"x\.jsonl:2: .*first is rank 1\b"):
        parse_jsonl(HEADER % 10**12 + '{"rank": 0, "op": "barrier"}\n', source="x.jsonl")
    assert time.perf_counter() - t0 < 1.0


def test_unhashable_dep_rejected():
    with pytest.raises(ReplayError, match=r"t\.jsonl:2: .*earlier step"):
        _sched(1, '{"rank": 0, "op": "compute", "us": 1, "deps": [[1]]}')


# -- execution ----------------------------------------------------------------

def test_world_mode_replay():
    wl = ReplayWorkload(_sched(2, *PINGPONG))
    res = wl.run(machine="gh200-1x4")
    assert res.mode == "world"
    assert res.events_popped > 0
    assert res.class_bytes["pp"]["bytes"] == 8192
    assert res.class_bytes["pp"]["transfers"] == 2
    assert "schedule" in res.digests and "series" in res.digests


def test_replay_deterministic():
    sched = _sched(2, *PINGPONG)
    a = ReplayWorkload(sched).run(machine="gh200-1x4")
    b = ReplayWorkload(sched).run(machine="gh200-1x4")
    assert a.digests == b.digests
    assert a.events_popped == b.events_popped


def _ring_sched(n=8):
    lines = []
    for r in range(n):
        peer = (r + 1) % n
        lines.append(
            '{"rank": %d, "op": "send", "peer": %d, "bytes": 65536, '
            '"tag": "ring", "class": "ring"}' % (r, peer)
        )
        lines.append(
            '{"rank": %d, "op": "recv", "peer": %d, "tag": "ring"}'
            % (r, (r - 1) % n)
        )
        lines.append('{"rank": %d, "op": "allreduce", "bytes": 262144}' % r)
        lines.append('{"rank": %d, "op": "barrier"}' % r)
    return _sched(n, *lines)


def test_too_many_ranks_rejected():
    with pytest.raises(ReplayError, match="GPU"):
        ReplayWorkload(_ring_sched(8)).run(machine="gh200-1x4")


def test_cluster_mode_shards_bit_identical():
    wl = ReplayWorkload(_ring_sched(8))
    seq = wl.run(machine="gh200-2x4")
    par = wl.run(machine="gh200-2x4", shards=2)
    assert seq.mode == "sequential" and par.mode == "mp"
    assert seq.digests == par.digests
    assert seq.events_popped == par.events_popped
    assert seq.class_bytes == par.class_bytes


def test_jsonl_round_trip_digest_stable():
    sched = _sched(2, *PINGPONG)
    again = parse_jsonl(sched.to_jsonl(), source="rt.jsonl")
    assert again.digest == sched.digest


def test_fingerprint_folds_in_schedule_digest():
    a = ReplayWorkload(_sched(2, *PINGPONG))
    b = ReplayWorkload(_sched(2, *PINGPONG[:-2],
                              '{"rank": 0, "op": "barrier"}',
                              '{"rank": 1, "op": "barrier"}'))
    assert a.fingerprint() == b.fingerprint()
    c = ReplayWorkload(_sched(
        2,
        '{"rank": 0, "op": "send", "peer": 1, "bytes": 1, "tag": "a"}',
        '{"rank": 1, "op": "recv", "peer": 0, "tag": "a"}',
    ))
    assert c.fingerprint() != a.fingerprint()
