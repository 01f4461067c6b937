"""Design-equality oracle for tests: one canonical text per elaborated design.

Two designs with equal texts are interchangeable to the simulator and the
checker.  The text covers everything either can observe: the signal table
(names, widths, kinds, signedness, declared ranges), parameters, every
settle/clocked/initial node and every assertion, each rendered with the
per-node keys of :mod:`repro.artifacts.canon`.  Derived state (dependency
graph, driver lines) is recomputed from these, so it is not rendered.
"""

from repro.artifacts.canon import (
    assertion_key,
    assign_node_key,
    block_node_key,
    initial_node_key,
)


def design_canonical_text(design):
    """The canonical text of one elaborated design (None for no design)."""
    if design is None:
        return None
    parts = [f"module {design.name}", "signals:"]
    for name in sorted(design.signals):
        signal = design.signals[name]
        parts.append(
            f"  {name}:w{signal.width}:{signal.kind}:s{int(signal.signed)}"
            f":[{signal.msb}:{signal.lsb}]"
        )
    parts.append("parameters:")
    for name in sorted(design.parameters):
        parts.append(f"  {name}={design.parameters[name]}")
    parts.append("assigns:")
    parts.extend(f"  {assign_node_key(a)}" for a in design.continuous_assigns)
    parts.append("comb:")
    parts.extend(f"  {block_node_key(b)}" for b in design.comb_blocks)
    parts.append("seq:")
    parts.extend(f"  {block_node_key(b)}" for b in design.seq_blocks)
    parts.append("initial:")
    parts.extend(f"  {initial_node_key(i)}" for i in design.initial_blocks)
    parts.append("assertions:")
    parts.extend(f"  {assertion_key(spec)}" for spec in design.assertions)
    return "\n".join(parts)
