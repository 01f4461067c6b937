"""Golden simulation tests: one hand-checked design per template family.

These run on the compiled backend, the one production builds;
`test_backend_differential` separately proves the interpreter agrees.
"""

import pytest

from repro.corpus.templates.arbiters import build_priority_arbiter
from repro.corpus.templates.composite import build_pipelined_adder
from repro.corpus.templates.counters import build_up_counter
from repro.corpus.templates.datapath import build_alu
from repro.corpus.templates.fsm import build_sequence_detector
from repro.corpus.templates.shift import build_shift_register
from repro.hdl.lint import compile_source
from repro.sim.compile import CompiledSimulator
from repro.sim.engine import InterpSimulator


def simulator_for(source: str) -> CompiledSimulator:
    result = compile_source(source)
    assert result.ok and result.design is not None, result.render()
    return CompiledSimulator(result.design)


def test_up_counter_counts_wraps_and_flags_max():
    sim = simulator_for(build_up_counter("dut", width=4, has_enable=1, saturate=0).source)
    sim.step({"rst_n": 0, "en": 0})
    assert sim.peek("count") == 0
    for expected in range(1, 16):
        sim.step({"rst_n": 1, "en": 1})
        assert sim.peek("count") == expected
    assert sim.peek("at_max") == 1
    sim.step({"rst_n": 1, "en": 0})  # disabled: holds at max
    assert sim.peek("count") == 15
    sim.step({"rst_n": 1, "en": 1})  # wraps
    assert sim.peek("count") == 0 and sim.peek("at_max") == 0


def test_alu_registered_ops_and_zero_flag():
    sim = simulator_for(build_alu("dut", width=8, registered=1).source)
    sim.step({"rst_n": 0, "start": 0, "op": 0, "a": 0, "b": 0})
    sim.step({"rst_n": 1, "start": 1, "op": 0, "a": 3, "b": 5})
    assert sim.peek("result") == 8 and sim.peek("zero") == 0
    sim.step({"rst_n": 1, "start": 1, "op": 1, "a": 5, "b": 5})
    assert sim.peek("result") == 0 and sim.peek("zero") == 1
    sim.step({"rst_n": 1, "start": 0, "op": 4, "a": 0xFF, "b": 0x0F})
    assert sim.peek("result") == 0, "result must hold when start is low"
    sim.step({"rst_n": 1, "start": 1, "op": 4, "a": 0xFF, "b": 0x0F})
    assert sim.peek("result") == 0xF0


def test_shift_register_sipo_and_word_ready_pulse():
    sim = simulator_for(build_shift_register("dut", width=4, direction="left").source)
    sim.step({"rst_n": 0, "shift_en": 0, "serial_in": 0})
    for bit in (1, 0, 1, 1):
        sim.step({"rst_n": 1, "shift_en": 1, "serial_in": bit})
    assert sim.peek("data") == 0b1011
    assert sim.peek("word_ready") == 1, "word_ready pulses after the 4th bit"
    sim.step({"rst_n": 1, "shift_en": 0, "serial_in": 0})
    assert sim.peek("word_ready") == 0


def test_sequence_detector_finds_pattern_1011():
    sim = simulator_for(build_sequence_detector("dut", pattern="1011").source)
    sim.step({"rst_n": 0, "bit_valid": 0, "bit_in": 0})
    for bit in (1, 0, 1, 1):
        sim.step({"rst_n": 1, "bit_valid": 1, "bit_in": bit})
    assert sim.peek("detected") == 1
    # Overlap: "1011" ends in "1", prefix of the pattern, so "011" completes again.
    for bit, expected in ((0, 0), (1, 0), (1, 1)):
        sim.step({"rst_n": 1, "bit_valid": 1, "bit_in": bit})
        assert sim.peek("detected") == expected


def test_priority_arbiter_grants_lowest_index():
    sim = simulator_for(build_priority_arbiter("dut", requesters=4).source)
    sim.step({"rst_n": 0, "req": 0})
    sim.step({"rst_n": 1, "req": 0b0110})
    assert sim.peek("grant") == 0b0010, "bit 1 outranks bit 2"
    assert sim.peek("grant_q") == 0b0010
    assert sim.peek("any_grant") == 1
    sim.step({"rst_n": 1, "req": 0b1000})
    assert sim.peek("grant") == 0b1000
    sim.step({"rst_n": 1, "req": 0})
    assert sim.peek("grant") == 0 and sim.peek("any_grant") == 0


def test_pipelined_adder_latency_and_offset():
    sim = simulator_for(build_pipelined_adder("dut", stages=3, width=8).source)
    sim.step({"rst_n": 0, "in_valid": 0, "in_data": 0})
    sim.step({"rst_n": 1, "in_valid": 1, "in_data": 10})
    assert sim.peek("out_valid") == 0
    sim.step({"rst_n": 1, "in_valid": 0, "in_data": 0})
    assert sim.peek("out_valid") == 0
    sim.step({"rst_n": 1, "in_valid": 0, "in_data": 0})
    assert sim.peek("out_valid") == 1, "valid emerges after 3 stages"
    assert sim.peek("out_data") == 10 + 1 + 2 + 3
    sim.step({"rst_n": 1, "in_valid": 0, "in_data": 0})
    assert sim.peek("out_valid") == 0


@pytest.mark.parametrize(
    "simulator_class", [CompiledSimulator, InterpSimulator], ids=["compiled", "interp"]
)
def test_trace_samples_preponed_values(simulator_class):
    """The trace's pre-edge sample lags the post-edge state by one update."""
    result = compile_source(build_up_counter("dut", width=4, has_enable=0).source)
    assert result.ok
    sim = simulator_class(result.design)
    settled = []
    for rst_n in (0, 1, 1, 1):
        sim.step({"rst_n": rst_n})
        settled.append(sim.peek("count"))
    assert [s.sampled("count").to_int() for s in sim.trace] == [0, 0, 1, 2]
    assert settled == [0, 1, 2, 3]
