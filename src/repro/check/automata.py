"""Static well-formedness verification of compiled automata.

Every automaton form the pipeline produces — edge-labelled NFAs,
homogeneous (STE) networks, full ANML element networks with counters
and gates, and 2-stride pair automata — is checked *before* anything
executes it, the way the AP SDK's placement tools and HyperScan's
pattern compiler validate their inputs. Each rule models a concrete
platform failure:

======== ======== ======================================================
rule     severity platform constraint it models
======== ======== ======================================================
AUT001   E/W      unreachable state: a report STE no enable path ever
                  drives silently never fires (missed off-targets);
                  unreachable non-report states waste fabric capacity.
AUT002   W        dead state: reachable but no path to any report —
                  occupies STEs/LUTs without ever contributing a match.
AUT003   E        a start STE that cannot reach any report state scans
                  the whole genome for nothing.
AUT004   E        empty character class: the STE can never match, so
                  every path through it is severed at run time.
AUT005   E        no start states: the network never activates.
AUT006   E        no report states: the search can never produce a hit.
CNT001   E        counter with no count inputs holds 0 forever; its
                  budget gate output is a constant.
CNT002   W        counter target exceeds its count-input count: in a
                  window design each mismatch STE pulses at most once
                  per window, so the counter can never saturate and the
                  over-budget suppression is inert.
CNT003   E        non-positive counter target (rejected by constructors,
                  caught here for externally-loaded networks).
GAT001   E        malformed gate arity: NOT needs exactly one input,
                  AND/OR at least one — anything else is a wiring bug.
NET001   E        report element not driven (transitively) by any start
                  STE — the element-network form of AUT001.
STR001   E        strided state reachable at two different pair depths:
                  its report geometry is ambiguous, so genomic spans
                  cannot be reconstructed from pair indices.
STR002   E        report geometry mismatch: the state's pair depth
                  implies a symbol span that contradicts the report's
                  declared ``site_length``/``pad_suffix``.
STR003   E        nonsensical report metadata (``pad_suffix`` outside
                  {0, 1}, non-positive ``site_length``).
CAP001   E        one guide's automaton exceeds the device: a guide is
                  an indivisible placement unit, so no number of passes
                  makes it fit.
CAP002   W        the library needs multiple configuration passes —
                  legal, but each pass re-streams the genome and pays
                  reconfiguration time.
CAP003   I        per-guide placement breakdown (STEs/LUTs needed vs
                  remaining in the current pass).
CAP004   I        device utilisation of the full library.
CAP005   I        bit-parallel kernel state-plane pricing: every
                  (rna, dna) diagonal band of a bulged budget costs a
                  full set of mismatch planes per strand pattern, so a
                  bulged panel's working set scales with
                  bands x (mismatches + 1) x 2 x guides.
CAP006   W        a single pattern's plane count exceeds the pricing
                  threshold: per-block kernel state no longer fits the
                  fast cache tier, so the budget shape — not the
                  genome — dominates scan cost.
======== ======== ======================================================

Reachability here is structural (wires), not symbolic: an STE whose
class is empty still "conducts" for reachability purposes but is
flagged by AUT004 on its own.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Sequence

from ..automata.elements import ElementNetwork, ElementView
from ..automata.homogeneous import HomogeneousAutomaton, StartMode
from ..automata.nfa import Nfa
from ..automata.striding import StridedAutomaton
from ..core.compiler import CompiledLibrary
from ..errors import CapacityError
from ..platforms.resources import fpga_luts_for
from ..platforms.spec import ApSpec, FpgaSpec
from .report import CheckReport, Diagnostic, Severity


def _reachable(starts: Iterable[int], edges: Sequence[Sequence[int]]) -> set[int]:
    """States reachable from *starts* over the forward edge lists."""
    seen = set(starts)
    queue = deque(seen)
    while queue:
        state = queue.popleft()
        for target in edges[state]:
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return seen


def _reverse(num_states: int, edges: Sequence[Sequence[int]]) -> list[list[int]]:
    reverse: list[list[int]] = [[] for _ in range(num_states)]
    for source in range(num_states):
        for target in edges[source]:
            reverse[target].append(source)
    return reverse


def _check_graph(
    report: CheckReport,
    *,
    subject: str,
    num_states: int,
    starts: list[int],
    reporters: list[int],
    edges: Sequence[Sequence[int]],
    element_name: Callable[[int], str],
    kind: str,
) -> set[int]:
    """The shared start/report/reachability rules; returns the reachable set."""
    if not starts:
        report.add(
            Diagnostic(
                Severity.ERROR,
                "AUT005",
                f"{kind} has no start states — it can never activate",
                subject=subject,
                hint="mark at least one start state (all-input for unanchored search)",
            )
        )
    if not reporters:
        report.add(
            Diagnostic(
                Severity.ERROR,
                "AUT006",
                f"{kind} has no report states — it can never produce a hit",
                subject=subject,
                hint="attach a report/accept label to the final states",
            )
        )
    reachable = _reachable(starts, edges)
    reporter_set = set(reporters)
    for state in range(num_states):
        if state in reachable:
            continue
        if state in reporter_set:
            report.add(
                Diagnostic(
                    Severity.ERROR,
                    "AUT001",
                    "report state is unreachable from every start — its reports can never fire",
                    subject=subject,
                    element=element_name(state),
                    hint="wire an enable path from a start state, or mark it a start",
                )
            )
        else:
            report.add(
                Diagnostic(
                    Severity.WARNING,
                    "AUT001",
                    "state is unreachable from every start",
                    subject=subject,
                    element=element_name(state),
                    hint="remove it or wire it in; unreachable states still occupy capacity",
                )
            )
    co_reachable = _reachable(reporters, _reverse(num_states, edges))
    for state in sorted(reachable):
        if state in co_reachable:
            continue
        if state in set(starts):
            report.add(
                Diagnostic(
                    Severity.ERROR,
                    "AUT003",
                    "start state cannot reach any report state",
                    subject=subject,
                    element=element_name(state),
                    hint="a start that reports nothing scans the input for nothing",
                )
            )
        else:
            report.add(
                Diagnostic(
                    Severity.WARNING,
                    "AUT002",
                    "dead state: no path to any report state",
                    subject=subject,
                    element=element_name(state),
                    hint="dead states occupy STEs/LUTs without contributing matches",
                )
            )
    return reachable


# -- homogeneous (STE) automata ------------------------------------------


def check_homogeneous(
    automaton: HomogeneousAutomaton, *, subject: str = "automaton"
) -> CheckReport:
    """Verify a homogeneous automaton (the form spatial platforms load)."""
    report = CheckReport()
    stes = list(automaton.stes())
    for ste in stes:
        if not ste.char_class:
            report.add(
                Diagnostic(
                    Severity.ERROR,
                    "AUT004",
                    f"STE {ste.name!r} has an empty character class and can never match",
                    subject=subject,
                    element=f"ste{ste.ste_id}",
                    hint="give the STE a non-empty symbol set or delete it",
                )
            )
    edges = [automaton.successors(ste.ste_id) for ste in stes]
    _check_graph(
        report,
        subject=subject,
        num_states=len(stes),
        starts=[ste.ste_id for ste in stes if ste.start is not StartMode.NONE],
        reporters=[ste.ste_id for ste in stes if ste.reports],
        edges=edges,
        element_name=lambda state: f"ste{state}",
        kind="automaton",
    )
    return report


# -- edge-labelled NFAs --------------------------------------------------


def check_nfa(nfa: Nfa, *, subject: str = "nfa") -> CheckReport:
    """Verify an edge-labelled NFA (the compilers' intermediate form)."""
    report = CheckReport()
    edges: list[list[int]] = []
    for state in range(nfa.num_states):
        out = [target for _, target in nfa.transitions_from(state)]
        out.extend(nfa.epsilon_from(state))
        edges.append(out)
        for char_class, target in nfa.transitions_from(state):
            if not char_class:
                report.add(
                    Diagnostic(
                        Severity.ERROR,
                        "AUT004",
                        f"edge {nfa.name_of(state)!r} -> {nfa.name_of(target)!r} "
                        "has an empty character class",
                        subject=subject,
                        element=nfa.name_of(state),
                        hint="an empty-class edge can never be taken",
                    )
                )
    _check_graph(
        report,
        subject=subject,
        num_states=nfa.num_states,
        starts=sorted(nfa.start_states()),
        reporters=[
            state for state in range(nfa.num_states) if nfa.accept_labels(state)
        ],
        edges=edges,
        element_name=nfa.name_of,
        kind="NFA",
    )
    return report


# -- full ANML element networks ------------------------------------------


def check_element_network(
    network: ElementNetwork, *, subject: str = "network"
) -> CheckReport:
    """Verify a mixed STE/gate/counter network (the counter design's form)."""
    report = CheckReport()
    views: list[ElementView] = list(network.elements())
    n = len(views)
    edges: list[list[int]] = [[] for _ in range(n)]
    for view in views:
        for source in (*view.inputs, *view.count_inputs, *view.reset_inputs):
            edges[source].append(view.element_id)
    starts = [
        view.element_id
        for view in views
        if view.kind == "ste" and view.start is not StartMode.NONE
    ]
    reporters = [view.element_id for view in views if view.reports]
    if not starts:
        report.add(
            Diagnostic(
                Severity.ERROR,
                "AUT005",
                "element network has no start STEs — it can never activate",
                subject=subject,
                hint="mark at least one STE all-input or start-of-data",
            )
        )
    if not reporters:
        report.add(
            Diagnostic(
                Severity.ERROR,
                "AUT006",
                "element network has no reporting elements",
                subject=subject,
                hint="mark_report() the accept gate or final STE",
            )
        )
    reachable = _reachable(starts, edges)
    for view in views:
        name = f"{view.kind}{view.element_id}"
        if view.kind == "ste" and view.char_class is not None and not view.char_class:
            report.add(
                Diagnostic(
                    Severity.ERROR,
                    "AUT004",
                    "STE has an empty character class and can never match",
                    subject=subject,
                    element=name,
                    hint="give the STE a non-empty symbol set or delete it",
                )
            )
        if view.kind == "gate":
            arity_bad = (
                len(view.inputs) != 1
                if view.gate_kind is not None and view.gate_kind.value == "not"
                else not view.inputs
            )
            if arity_bad:
                report.add(
                    Diagnostic(
                        Severity.ERROR,
                        "GAT001",
                        f"{view.gate_kind.value if view.gate_kind else 'gate'} gate has "
                        f"{len(view.inputs)} input(s)",
                        subject=subject,
                        element=name,
                        hint="NOT gates take exactly one input; AND/OR at least one",
                    )
                )
        if view.kind == "counter":
            target = view.counter_target or 0
            if target <= 0:
                report.add(
                    Diagnostic(
                        Severity.ERROR,
                        "CNT003",
                        f"counter target {target} is not positive",
                        subject=subject,
                        element=name,
                        hint="a saturating counter needs a positive target",
                    )
                )
            if not view.count_inputs:
                report.add(
                    Diagnostic(
                        Severity.ERROR,
                        "CNT001",
                        "counter has no count inputs — it holds zero forever",
                        subject=subject,
                        element=name,
                        hint="connect_count() the mismatch STEs to it",
                    )
                )
            elif target > len(view.count_inputs):
                report.add(
                    Diagnostic(
                        Severity.WARNING,
                        "CNT002",
                        f"counter target {target} exceeds its {len(view.count_inputs)} "
                        "count input(s); in a window design it can never saturate",
                        subject=subject,
                        element=name,
                        hint="the over-budget gate is inert — lower the target or the budget",
                    )
                )
        if view.reports and view.element_id not in reachable:
            report.add(
                Diagnostic(
                    Severity.ERROR,
                    "NET001",
                    "reporting element is not driven by any start STE",
                    subject=subject,
                    element=name,
                    hint="wire an enable/count path from a start STE",
                )
            )
        elif view.element_id not in reachable:
            report.add(
                Diagnostic(
                    Severity.WARNING,
                    "AUT001",
                    "element is not driven by any start STE",
                    subject=subject,
                    element=name,
                    hint="remove it or wire it in",
                )
            )
    return report


# -- 2-stride pair automata ----------------------------------------------


def check_strided(
    automaton: StridedAutomaton, *, subject: str = "strided"
) -> CheckReport:
    """Verify a 2-symbol strided automaton, including report geometry."""
    report = CheckReport()
    n = automaton.num_states
    edges = [automaton.successors(state) for state in range(n)]
    starts = [state for state in range(n) if automaton.is_start(state)]
    reporters = [state for state in range(n) if automaton.reports_of(state)]
    reachable = _check_graph(
        report,
        subject=subject,
        num_states=n,
        starts=starts,
        reporters=reporters,
        edges=edges,
        element_name=lambda state: f"state{state}",
        kind="strided automaton",
    )
    for state in range(n):
        if not automaton.pair_class_of(state):
            report.add(
                Diagnostic(
                    Severity.ERROR,
                    "AUT004",
                    "strided state matches no symbol pair",
                    subject=subject,
                    element=f"state{state}",
                    hint="give the state a non-empty pair class or delete it",
                )
            )
    # Pair-depth analysis: every reachable state must sit at a unique
    # number of consumed pairs, or report spans are ambiguous.
    depth: dict[int, int] = {}
    inconsistent: set[int] = set()
    queue: deque[int] = deque()
    for state in starts:
        depth[state] = 1
        queue.append(state)
    while queue:
        state = queue.popleft()
        for target in edges[state]:
            proposed = depth[state] + 1
            if target not in depth:
                depth[target] = proposed
                queue.append(target)
            elif depth[target] != proposed and target not in inconsistent:
                inconsistent.add(target)
                report.add(
                    Diagnostic(
                        Severity.ERROR,
                        "STR001",
                        f"state is reachable at pair depths {depth[target]} and "
                        f"{proposed} — its report geometry is ambiguous",
                        subject=subject,
                        element=f"state{target}",
                        hint="strided grids must be layered: one depth per state",
                    )
                )
    for state in reporters:
        if state not in reachable or state in inconsistent:
            continue
        for strided_report in automaton.reports_of(state):
            if strided_report.pad_suffix not in (0, 1) or strided_report.site_length < 1:
                report.add(
                    Diagnostic(
                        Severity.ERROR,
                        "STR003",
                        f"report declares pad_suffix={strided_report.pad_suffix}, "
                        f"site_length={strided_report.site_length}",
                        subject=subject,
                        element=f"state{state}",
                        hint="pad_suffix must be 0 or 1 and site_length positive",
                    )
                )
                continue
            consumed = 2 * depth[state] - strided_report.pad_suffix
            if consumed not in (strided_report.site_length, strided_report.site_length + 1):
                report.add(
                    Diagnostic(
                        Severity.ERROR,
                        "STR002",
                        f"state at pair depth {depth[state]} spans {consumed} symbols "
                        f"but the report declares site_length {strided_report.site_length}",
                        subject=subject,
                        element=f"state{state}",
                        hint="phase-0 spans equal site_length; phase-1 spans site_length+1",
                    )
                )
    return report


# -- capacity pre-flight -------------------------------------------------


def capacity_diagnostics(
    compiled: CompiledLibrary, spec: ApSpec | FpgaSpec
) -> CheckReport:
    """Pre-flight placement of *compiled* onto *spec*, with per-guide breakdown.

    This is the single capacity rule both spatial engines route their
    ``validate_capacity`` through. Guides are packed greedily, in
    order, into configuration passes; a guide is an indivisible
    placement unit, so one that exceeds the whole device is a CAP001
    error no multi-pass schedule can fix.
    """
    report = CheckReport()
    if isinstance(spec, ApSpec):
        platform = spec.name
        unit = "STEs"
        capacity = spec.capacity_stes
        cost_of: Callable[[int], int] = lambda stes: stes
    else:
        platform = spec.name
        unit = "LUTs"
        capacity = spec.luts
        cost_of = lambda stes: fpga_luts_for(stes, spec)
    passes = 1
    remaining = capacity
    total = 0
    for compiled_guide in compiled:
        needed = cost_of(compiled_guide.num_stes)
        total += needed
        name = compiled_guide.guide.name
        if needed > capacity:
            report.add(
                Diagnostic(
                    Severity.ERROR,
                    "CAP001",
                    f"guide {name!r} needs {needed} {unit}; device fits {capacity}",
                    subject=platform,
                    element=name,
                    hint="a guide is an indivisible placement unit — lower the "
                    "mismatch/bulge budget to shrink its automaton",
                )
            )
            continue
        if needed > remaining:
            passes += 1
            remaining = capacity
        remaining -= needed
        report.add(
            Diagnostic(
                Severity.INFO,
                "CAP003",
                f"guide {name!r}: {needed} {unit} (pass {passes}, {remaining} remaining)",
                subject=platform,
                element=name,
            )
        )
    if passes > 1:
        report.add(
            Diagnostic(
                Severity.WARNING,
                "CAP002",
                f"library needs {passes} configuration passes on {platform}",
                subject=platform,
                hint="each pass re-streams the genome and pays reconfiguration time",
            )
        )
    report.add(
        Diagnostic(
            Severity.INFO,
            "CAP004",
            f"library totals {total} {unit} against a per-pass capacity of "
            f"{capacity} ({total / capacity:.1%} of one pass)",
            subject=platform,
        )
    )
    return report


def require_capacity(compiled: CompiledLibrary, spec: ApSpec | FpgaSpec) -> None:
    """Raise :class:`CapacityError` when any guide cannot fit *spec* at all.

    The exception message carries the full per-guide breakdown so the
    operator sees *which* guide overflows and by how much, not just a
    totals line.
    """
    report = capacity_diagnostics(compiled, spec)
    if report.ok:
        return
    lines = [diagnostic.render() for diagnostic in report.errors]
    lines.extend(
        diagnostic.render()
        for diagnostic in report.sorted()
        if diagnostic.severity is not Severity.ERROR and diagnostic.rule == "CAP003"
    )
    raise CapacityError("\n".join(lines))


#: Planes per strand pattern above which CAP006 warns: 64 uint64 rows
#: per lane word is the point where one pattern's banded state stops
#: fitting alongside the gathered lane boards in a typical L2 slice and
#: the kernel's per-block cost becomes budget-shaped instead of flat.
KERNEL_PLANE_WARN_THRESHOLD = 64


def kernel_plane_diagnostics(compiled: CompiledLibrary) -> CheckReport:
    """Price the bit-parallel kernel's state planes for *compiled*.

    The banded kernel keeps one uint64 bit-plane per
    ``(rna, dna, mismatch)`` state row and strand pattern: a bulged
    budget of ``r`` RNA and ``d`` DNA bulges spans ``(r+1) x (d+1)``
    diagonal bands, each carrying its own ``mismatches + 1`` planes —
    so every extra band a budget asks for is a whole extra plane set,
    per guide, per strand. Mismatch-only budgets price as the
    thermometer set (``mismatches`` counting planes plus the exceed
    plane); the PAM is checked once per lane group, not per pattern.
    CAP005 reports the breakdown; CAP006 warns when
    one pattern's plane count crosses
    :data:`KERNEL_PLANE_WARN_THRESHOLD`.
    """
    report = CheckReport()
    budget = compiled.budget
    bands = (budget.rna_bulges + 1) * (budget.dna_bulges + 1)
    if budget.has_bulges:
        planes_per_pattern = bands * (budget.mismatches + 1)
        shape = (
            f"{bands} diagonal band(s) "
            f"[rna={budget.rna_bulges}, dna={budget.dna_bulges}] "
            f"x {budget.mismatches + 1} mismatch plane(s)"
        )
    else:
        planes_per_pattern = budget.mismatches + 1
        shape = f"{budget.mismatches} thermometer plane(s) + exceed"
    patterns = 2 * len(compiled)
    report.add(
        Diagnostic(
            Severity.INFO,
            "CAP005",
            f"bit-parallel kernel: {planes_per_pattern} state plane(s) per "
            f"strand pattern ({shape}); {patterns} pattern(s) -> "
            f"{planes_per_pattern * patterns} plane-rows per lane word",
            subject="kernel",
        )
    )
    if planes_per_pattern > KERNEL_PLANE_WARN_THRESHOLD:
        report.add(
            Diagnostic(
                Severity.WARNING,
                "CAP006",
                f"budget shape prices {planes_per_pattern} state planes per "
                f"pattern (threshold {KERNEL_PLANE_WARN_THRESHOLD}); the "
                "banded working set will dominate kernel scan cost",
                subject="kernel",
                hint="lower the bulge or mismatch budget, or split the panel",
            )
        )
    return report


# -- whole-library entry point -------------------------------------------


def check_compiled_library(
    compiled: CompiledLibrary,
    *,
    specs: Iterable[ApSpec | FpgaSpec] = (),
) -> CheckReport:
    """Verify every guide's machine-form automaton, plus capacity on *specs*."""
    report = CheckReport()
    for compiled_guide in compiled:
        report.extend(
            check_homogeneous(
                compiled_guide.homogeneous,
                subject=f"guide:{compiled_guide.guide.name}",
            )
        )
        report.extend(
            check_nfa(
                compiled_guide.combined,
                subject=f"guide:{compiled_guide.guide.name}",
            )
        )
    for spec in specs:
        report.extend(capacity_diagnostics(compiled, spec))
    report.extend(kernel_plane_diagnostics(compiled))
    report.add(
        Diagnostic(
            Severity.INFO,
            "CAP004",
            f"library: {len(compiled)} guide(s), {compiled.num_stes} STEs total",
            subject="library",
        )
    )
    return report
