"""Shared helper functions for the test suite."""

import threading
from collections import Counter


def hit_spans(hits):
    """Canonical span set for comparing hit collections."""
    return {
        (h.guide_name, h.strand, h.start, h.end, h.mismatches, h.rna_bulges, h.dna_bulges)
        for h in hits
    }


def hit_multiset(hits):
    """Canonical span *multiset* — counts duplicates a set would hide.

    The differential suite compares executors with this so that a path
    that reports the same site twice (e.g. a broken chunk-boundary
    dedupe) cannot pass by colliding into one set element.
    """
    return Counter(
        (h.guide_name, h.sequence_name, h.strand, h.start, h.end,
         h.mismatches, h.rna_bulges, h.dna_bulges)
        for h in hits
    )


def assert_equivalent_hits(*hit_lists):
    """Assert every hit collection carries the identical hit multiset."""
    reference = hit_multiset(hit_lists[0])
    for other in hit_lists[1:]:
        assert hit_multiset(other) == reference


def report_spans(reports):
    """Canonical span set from engine (position, label) reports."""
    spans = set()
    for position, label in reports:
        start, end = label.span_at(position)
        spans.add((label.guide_name, label.strand, start, end))
    return spans


class DispatchGate:
    """Hold one scheduler's batches in flight until :meth:`release`.

    Wraps that scheduler instance's ``_dispatch_batch``: a batch sets
    :attr:`reached`, then waits (bounded) for the release before it
    runs. A test that kills, drains or signals a server calls
    :meth:`wait_reached` first, so its request is provably admitted and
    still unanswered when the event lands.
    """

    def __init__(self, scheduler, *, hold_seconds=60.0):
        self.reached = threading.Event()
        self._released = threading.Event()
        dispatch = scheduler._dispatch_batch

        def held(*args):
            self.reached.set()
            self._released.wait(hold_seconds)
            return dispatch(*args)

        scheduler._dispatch_batch = held

    def wait_reached(self, timeout=10.0):
        assert self.reached.wait(timeout), "no batch reached the dispatch gate"

    def release(self):
        self._released.set()
