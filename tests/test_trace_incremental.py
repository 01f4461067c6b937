"""Incremental sample materialisation of the compiled simulator's trace.

The compiled backend records change events only, at most one per signal
per cycle; ``step()`` realises just the newest sample from them.  Driving
it cycle by cycle -- with column builds in between -- on a design with
negedge-clocked and asynchronously reset blocks must give, at every step,
the interpreter's sample and live values, a freshly rebuilt column memo
that equals the interpreter's columns, and finally a materialised trace
equal to the interpreter's.  The event streams themselves must be exactly
the changes of the interpreter's samples.
"""

import random

import numpy as np
import pytest

from repro.corpus.templates import all_families
from repro.hdl.lint import compile_source
from repro.sim.compile import CompiledSimulator
from repro.sim.engine import InterpSimulator, SimulatorOptions
from repro.sim.stimulus import StimulusGenerator

FAMILIES = all_families()

MIXED_EDGES_SOURCE = """
module mixed_edges(
    input wire clk,
    input wire rst_n,
    input wire [3:0] d,
    output reg [3:0] q,
    output reg [3:0] n,
    output wire [3:0] s
);
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) q <= 4'd0;
        else q <= q + d;
    end
    always @(negedge clk) begin
        n <= q ^ d;
    end
    assign s = q + n;
endmodule
"""


def stimulus(cycles=40, seed=4):
    rng = random.Random(seed)
    vectors = []
    for cycle in range(cycles):
        # Reset held for two cycles, then pulsed low now and then.
        rst_n = 0 if cycle < 2 or rng.random() < 0.15 else 1
        vectors.append({"rst_n": rst_n, "d": rng.randrange(16)})
    return vectors


@pytest.mark.parametrize(
    "options", [None, SimulatorOptions(x_initial_state=True)], ids=["zero_init", "x_init"]
)
def test_step_by_step_samples_and_columns_match_interpreter(options):
    design = compile_source(MIXED_EDGES_SOURCE).design
    assert design is not None
    compiled = CompiledSimulator(design, options=options)
    interp = InterpSimulator(design, options=options)
    assert compiled._negedge_blocks and compiled._async_triggers
    names = sorted(design.signals)
    trace = compiled.trace
    previous = trace.columns(names)
    for inputs in stimulus():
        sample = compiled.step(inputs)
        expected = interp.step(inputs)
        assert sample.cycle == expected.cycle
        assert sample.pre_edge == expected.pre_edge, f"pre-edge, cycle {sample.cycle}"
        for name in names:
            assert compiled.value(name) == interp.value(name), f"{name}, cycle {sample.cycle}"
        assert len(trace._cache) == len(trace)
        columns = trace.columns(names)
        assert columns is not previous, "recording a cycle must drop the columns memo"
        assert columns.cycles == previous.cycles + 1
        oracle = interp.trace.columns(names)
        for name in names:
            assert np.array_equal(columns.values[name], oracle.values[name]), name
            assert np.array_equal(columns.xmasks[name], oracle.xmasks[name]), name
        previous = columns
    assert trace.materialized() == interp.trace


def assert_events_are_sample_changes(trace, oracle) -> None:
    """Each signal's events are its settled initial value (point -1), then
    one ``(cycle, value, xmask)`` per cycle whose sample in ``oracle`` (the
    interpreter's trace) differs from the value held before it: so no
    signal has two events in one cycle, and none records an unchanged value."""
    assert len(trace) == len(oracle) > 0
    for name, events in trace.events.items():
        initial = events[0]
        assert initial[0] == -1, name
        expected = [initial]
        for sample in oracle:
            value = sample.sampled(name)
            if (value.value, value.xmask) != expected[-1][1:]:
                expected.append((sample.cycle, value.value, value.xmask))
        assert events == expected, name


@pytest.mark.parametrize(
    "options", [None, SimulatorOptions(x_initial_state=True)], ids=["zero_init", "x_init"]
)
def test_mixed_edges_events_are_one_per_cycle(options):
    design = compile_source(MIXED_EDGES_SOURCE).design
    vectors = stimulus()
    trace = CompiledSimulator(design, options=options).run(vectors)
    assert_events_are_sample_changes(trace, InterpSimulator(design, options=options).run(vectors))
    # The negedge block and the async reset both change signals after the
    # preponed sample; those changes land on the next cycle's point.
    assert any(len(trace.events[name]) > 2 for name in ("q", "n", "s"))


@pytest.mark.parametrize("family", FAMILIES, ids=[f.name for f in FAMILIES])
def test_event_stream_round_trips_against_samples(family):
    artifact = family.build(f"events_{family.name}", **family.parameter_grid[0])
    design = compile_source(artifact.source).design
    vectors = StimulusGenerator(design, seed=3).mixed_stimulus(random_cycles=24).vectors
    trace = CompiledSimulator(design).run(vectors)
    assert_events_are_sample_changes(trace, InterpSimulator(design).run(vectors))
