"""Assertion cone-of-influence screening for candidate repairs.

Given a base (buggy) design and a patched candidate, :func:`edit_impact`
computes the set of signals whose driving logic the edit changes, via the
ISSUE-8 per-node content keys: a node present in only one of the two
designs is "changed", and the union of def sets of changed nodes over both
designs over-approximates every signal whose driver differs.

:func:`cone_screen` then proves, when it can, that the candidate's verdict
must equal the base design's verdict so the verifier may skip simulation
(``cone_skip``).  The proof obligations, all checked structurally:

1. **Same observation points.** Signal tables (names, widths, kinds,
   signedness, declared ranges), parameters and assertion content keys are
   identical.  Identical signal tables also pin the stimulus: the stimulus
   generator reads only the input-port table, so both designs receive
   byte-identical input vectors for any seed.
2. **Same clock.** The simulator's clock detection reads the global
   clock-candidate list, so both designs must agree on it.
3. **No static combinational cycles in either design.**  The only
   data-dependent simulation error is settle non-convergence, which a
   cycle-free combinational dependency graph rules out; hence an edit that
   assertions cannot observe also cannot introduce or remove simulation
   errors.
4. **Edit disjoint from every assertion cone.**  Assertion cones are
   transitive fan-ins of the property body *plus* the clocking signal and
   ``disable iff`` identifiers, computed on the base design.  Any path from
   a changed definition to a cone signal would have to enter through an
   *unchanged* node's edge; that edge exists in the base graph too, so the
   changed definition would itself be in the base cone.  Checking
   ``changed_defs ∩ base_cone == ∅`` is therefore sound on its own.

Adversarial edits fall out of these checks automatically: parameter edits
fail (1); clock, reset and ``disable iff`` drivers are inside every cone
they matter to, so edits to them fail (4); assertion edits change assertion
keys and fail (1).

A candidate the screen cannot skip is always simulated.  Newly
*introduced combinational loops* in particular are never rejected
statically -- a loop that settles (``a = a | b``) simulates to a genuine
pass -- the screen only refuses to **skip** such candidates, which is all
soundness requires, and non-settling loops surface as ``sim_error`` on the
normal simulation path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analyze.dfg import SignalDfg
from repro.artifacts.canon import assertion_key
from repro.hdl.elaborate import ElaboratedDesign


def _signal_table(design: ElaboratedDesign) -> tuple[tuple[str, int, str, bool, int, int], ...]:
    return tuple(
        (s.name, s.width, s.kind, s.signed, s.msb, s.lsb)
        for s in (design.signals[name] for name in sorted(design.signals))
    )


@dataclass(frozen=True)
class EditImpact:
    """The signals whose driving logic differs between base and patched."""

    comparable: bool  # structurally comparable designs (see cone_screen rule 1/2)
    reason: str  # why not comparable, empty when comparable
    changed_signals: tuple[str, ...] = ()


def edit_impact(base: SignalDfg, patched: SignalDfg) -> EditImpact:
    """Diff two designs at node-key granularity into a changed-signal set."""
    if _signal_table(base.design) != _signal_table(patched.design):
        return EditImpact(False, "signal tables differ")
    if base.design.parameters != patched.design.parameters:
        return EditImpact(False, "parameters differ")
    base_assertions = [assertion_key(spec) for spec in base.design.assertions]
    patched_assertions = [assertion_key(spec) for spec in patched.design.assertions]
    if base_assertions != patched_assertions:
        return EditImpact(False, "assertions differ")
    if base.design.clock_candidates() != patched.design.clock_candidates():
        return EditImpact(False, "clock candidates differ")
    base_keys = base.node_keys()
    patched_keys = patched.node_keys()
    changed = {
        key
        for key in set(base_keys) | set(patched_keys)
        if base_keys.get(key, 0) != patched_keys.get(key, 0)
    }
    changed_defs: set[str] = set()
    for dfg in (base, patched):
        for node in dfg.nodes:
            if node.key in changed:
                changed_defs |= node.defs
    return EditImpact(True, "", tuple(sorted(changed_defs)))


@dataclass(frozen=True)
class ScreenDecision:
    """Outcome of the cone screen for one candidate."""

    skip: bool  # True: base verdict provably equals the candidate's verdict
    reason: str
    changed_signals: tuple[str, ...] = ()
    overlap: tuple[str, ...] = ()  # changed signals inside some assertion cone


def union_assertion_cone(dfg: SignalDfg) -> frozenset[str]:
    """Union of every checked assertion's cone of influence."""
    cone: set[str] = set()
    for signals in dfg.assertion_cones().values():
        cone |= signals
    return frozenset(cone)


def cone_screen(base: SignalDfg, patched: SignalDfg) -> ScreenDecision:
    """Decide whether the candidate's verdict provably equals the base's."""
    impact = edit_impact(base, patched)
    if not impact.comparable:
        return ScreenDecision(False, impact.reason)
    if base.combinational_cycles():
        return ScreenDecision(
            False, "base design has a combinational loop", impact.changed_signals
        )
    if patched.combinational_cycles():
        return ScreenDecision(
            False, "candidate introduces a combinational loop", impact.changed_signals
        )
    cone = union_assertion_cone(base)
    overlap = tuple(sorted(set(impact.changed_signals) & cone))
    if overlap:
        return ScreenDecision(
            False, "edit reaches an assertion cone", impact.changed_signals, overlap
        )
    return ScreenDecision(
        True, "edit disjoint from every assertion cone", impact.changed_signals
    )


def cone_overlap(dfg: SignalDfg, signals: "frozenset[str] | set[str]") -> frozenset[str]:
    """The subset of ``signals`` inside some assertion's cone of influence."""
    return frozenset(signals) & union_assertion_cone(dfg)


__all__ = [
    "EditImpact",
    "ScreenDecision",
    "cone_overlap",
    "cone_screen",
    "edit_impact",
    "union_assertion_cone",
]
