"""Receiver-side tag matching.

:class:`TagMatcher` implements MPI's two-queue scheme: posted receives and
unexpected messages, matched on (communicator, source, tag) with
``MPI_ANY_SOURCE`` / ``MPI_ANY_TAG`` wildcards, preserving the
non-overtaking order guarantee for identical envelopes.

The partitioned setup_t exchange needs no wildcards (matching is
"communicator, rank, tag, and the order in which they are posted" — paper
Section II-B1), so it is an exact-key FIFO: ``MpiRuntime.part_matcher``
is a keyed :class:`~repro.sim.resources.Channel`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

ANY = -1  # wildcard for source/tag


def envelope_matches(posted_src: int, posted_tag: int, src: int, tag: int) -> bool:
    """Does an incoming (src, tag) satisfy a posted (source, tag) pattern?"""
    return (posted_src == ANY or posted_src == src) and (
        posted_tag == ANY or posted_tag == tag
    )


class TagMatcher:
    """MPI posted-receive / unexpected-message matching for one rank."""

    def __init__(self) -> None:
        # Both lists ordered by posting/arrival time (non-overtaking).
        self._posted: List[Tuple[int, int, int, Any]] = []  # (comm_id, src, tag, rreq)
        self._unexpected: List[Tuple[int, int, int, Any]] = []  # (comm_id, src, tag, msg)

    # -- receiver posts a receive ------------------------------------------------
    def post_recv(self, comm_id: int, source: int, tag: int, rreq: Any) -> Optional[Any]:
        """Try to match an unexpected message; otherwise queue the receive.

        Returns the matched message, or None if the receive was queued.
        """
        for i, (c, s, t, msg) in enumerate(self._unexpected):
            if c == comm_id and envelope_matches(source, tag, s, t):
                del self._unexpected[i]
                return msg
        self._posted.append((comm_id, source, tag, rreq))
        return None

    # -- progress engine delivers a message ----------------------------------------
    def deliver(self, comm_id: int, src: int, tag: int, msg: Any) -> Optional[Any]:
        """Try to match a posted receive; otherwise queue as unexpected.

        Returns the matched posted receive request, or None if queued.
        """
        for i, (c, s, t, rreq) in enumerate(self._posted):
            if c == comm_id and envelope_matches(s, t, src, tag):
                del self._posted[i]
                return rreq
        self._unexpected.append((comm_id, src, tag, msg))
        return None
