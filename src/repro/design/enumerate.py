"""Candidate protospacer enumeration over a target region.

A design run starts by finding every window of the target region that
a nuclease could actually cut: a guide-length protospacer with the
PAM motif adjacent on the correct side, on either strand. Candidates
are reported in **guide orientation** (the protospacer as the guide
would be synthesised) with their genomic span on the + strand of the
region, matching the coordinate conventions of
:class:`~repro.grna.hit.OffTargetHit`. Where the PAM and the
protospacer sit in the + strand window, for each PAM side and strand,
is :func:`repro.core.compiler.site_offsets`.

The scan is PAM first, Cas-OFFinder's order and the kernel's: per
strand, the PAM positions' 5-bit masks are tested straight from the
region's codes (a genome ``N`` satisfies only a pattern ``N``), a
prefix count of ``N`` keeps the starts whose protospacer is concrete
``ACGT`` (a candidate overlapping an ``N`` run cannot be synthesised),
and records are built only for the starts that pass, cut from the
region and its reverse complement, each decoded once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .. import alphabet
from ..core.bitparallel import _exact_filter, _strand_layout
from ..core.compiler import STRANDS, site_offsets
from ..errors import DesignError
from ..genome.sequence import Sequence
from ..grna.guide import _MAX_LENGTH, Guide
from ..grna.pam import Pam, get_pam


@dataclass(frozen=True)
class Candidate:
    """One candidate protospacer found in the target region.

    Attributes
    ----------
    name:
        Deterministic identifier, unique within one enumeration:
        derived from the sequence name, start coordinate, and strand.
    protospacer:
        Concrete ``ACGT`` protospacer in guide orientation (5'→3' as
        the guide would be synthesised).
    pam_site:
        The concrete genomic bases under the PAM motif, in guide
        orientation.
    sequence_name:
        Name of the region sequence the candidate lies on.
    strand:
        ``"+"`` or ``"-"``.
    start, end:
        Half-open span of the **full site** (protospacer + PAM) on the
        + strand of the region, whatever the strand or PAM side.
    """

    name: str
    protospacer: str
    pam_site: str
    sequence_name: str
    strand: str
    start: int
    end: int

    @property
    def site_length(self) -> int:
        return self.end - self.start

    def to_guide(self, pam: Pam) -> Guide:
        """The :class:`Guide` that would be synthesised for this candidate.

        ``min_length`` is pinned to the candidate's own length so short
        (tru-gRNA) designs flow through every downstream layer that
        rebuilds guides — compiler, cache, wire — without tripping the
        default length floor.
        """
        return Guide(
            self.name, self.protospacer, pam, min_length=len(self.protospacer)
        )


def _scan_sequence(
    sequence: Sequence, pam: Pam, guide_length: int
) -> list[Candidate]:
    """Candidates of one sequence, ordered by (start, strand)."""
    codes = sequence.codes
    n, window = codes.size, guide_length + len(pam)
    limit = max(n - window + 1, 0)
    n_before = np.concatenate(([0], np.cumsum(codes == alphabet.CODE_N)))
    # In guide orientation, a site on either strand reads as a + site.
    pam_at, proto_at = site_offsets(pam.side, "+", guide_length, len(pam))
    text, rc = sequence.text, sequence.reverse_complement().text
    found: list[Candidate] = []
    for strand in STRANDS:
        b_off, exact = _strand_layout(pam, strand, guide_length)
        concrete = n_before[b_off + guide_length :][:limit] == n_before[b_off:][:limit]
        passed = _exact_filter(codes, exact, limit, 0) & concrete
        for start in np.flatnonzero(passed).tolist():
            site = (
                text[start : start + window]
                if strand == "+"
                else rc[n - start - window : n - start]
            )
            found.append(
                Candidate(
                    name=f"{sequence.name}:{start}:{'fwd' if strand == '+' else 'rev'}",
                    protospacer=site[proto_at : proto_at + guide_length],
                    pam_site=site[pam_at : pam_at + len(pam)],
                    sequence_name=sequence.name,
                    strand=strand,
                    start=start,
                    end=start + window,
                )
            )
    return sorted(
        found, key=lambda candidate: (candidate.start, candidate.strand == "-")
    )


def enumerate_candidates(
    region: Union[Sequence, Iterable[Sequence]],
    pam: Union[Pam, str] = "NGG",
    *,
    guide_length: int = 20,
) -> tuple[Candidate, ...]:
    """Every candidate protospacer in *region* for *pam*.

    Both strands are always scanned. Candidates are ordered by
    (sequence, start, strand) — forward before reverse at the same
    start — which is the deterministic order every downstream stage
    preserves.

    Raises :class:`~repro.errors.DesignError` for an unusable
    *guide_length* (< 1 or beyond the guide model's maximum), and for
    two region sequences of one name, whose candidates would share
    names and so each other's off-target sets.
    """
    resolved = pam if isinstance(pam, Pam) else get_pam(pam)
    if not isinstance(guide_length, int) or isinstance(guide_length, bool):
        raise DesignError(f"guide_length must be an integer, got {guide_length!r}")
    if not 1 <= guide_length <= _MAX_LENGTH:
        raise DesignError(
            f"guide_length {guide_length} outside [1, {_MAX_LENGTH}]"
        )
    sequences = [region] if isinstance(region, Sequence) else list(region)
    if not sequences:
        raise DesignError("no region sequences to enumerate")
    candidates: list[Candidate] = []
    names: set[str] = set()
    for sequence in sequences:
        if sequence.name in names:
            raise DesignError(
                f"region sequence name {sequence.name!r} repeats; candidate "
                f"names (sequence:start:strand) must be unique"
            )
        names.add(sequence.name)
        candidates.extend(_scan_sequence(sequence, resolved, guide_length))
    return tuple(candidates)
