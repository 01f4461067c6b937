"""VCD writer tests: one hand-checked golden dump plus, for one design per
template family, a round-trip check that re-parses the emitted VCD and
compares every value change against the trace it was generated from."""

import pytest

from repro.corpus.templates import all_families
from repro.corpus.templates.counters import build_up_counter
from repro.hdl.lint import compile_source
from repro.sim.compile import CompiledSimulator
from repro.sim.stimulus import StimulusGenerator
from repro.sim.vcd import vcd_string

# Hand-checked: 2-bit enabled counter over reset, two counted cycles, one
# held cycle (en low), and the step onto the maximum value (at_max rises).
GOLDEN_COUNTER_VCD = """$date
  generated by repro.sim
$end
$timescale 1ns $end
$scope module dut $end
$var wire 1 ! at_max $end
$var wire 1 " clk $end
$var wire 2 # count $end
$var wire 1 $ en $end
$var wire 1 % rst_n $end
$upscope $end
$enddefinitions $end
#0
0!
0"
b00 #
0$
0%
#10
b01 #
1$
1%
#20
b10 #
#30
0$
#40
1!
b11 #
1$
"""


def compiled_design(source: str):
    result = compile_source(source)
    assert result.ok and result.design is not None, result.render()
    return result.design


def test_counter_vcd_matches_golden():
    design = compiled_design(build_up_counter("dut", width=2, has_enable=1, saturate=0).source)
    trace = CompiledSimulator(design).run(
        [
            {"rst_n": 0, "en": 0},
            {"rst_n": 1, "en": 1},
            {"rst_n": 1, "en": 1},
            {"rst_n": 1, "en": 0},
            {"rst_n": 1, "en": 1},
        ]
    )
    assert vcd_string(trace, module_name="dut") == GOLDEN_COUNTER_VCD


def parse_vcd(text: str) -> tuple[dict[str, int], list[tuple[int, dict[str, str]]]]:
    """Minimal VCD reader: (signal widths, [(time, {signal: bits}), ...])."""
    widths: dict[str, int] = {}
    name_of_code: dict[str, str] = {}
    changes: list[tuple[int, dict[str, str]]] = []
    in_definitions = True
    for line in text.splitlines():
        line = line.strip()
        if in_definitions:
            if line.startswith("$var"):
                _, _, width, code, name = line.split()[:5]
                widths[name] = int(width)
                name_of_code[code] = name
            elif line == "$enddefinitions $end":
                in_definitions = False
            continue
        if line.startswith("#"):
            changes.append((int(line[1:]), {}))
        elif line.startswith("b"):
            bits, code = line[1:].split()
            changes[-1][1][name_of_code[code]] = bits
        elif line:
            changes[-1][1][name_of_code[line[1:]]] = line[0]
    return widths, changes


def format_bits(value) -> str:
    bits = []
    for position in reversed(range(value.width)):
        if (value.xmask >> position) & 1:
            bits.append("x")
        else:
            bits.append(str((value.value >> position) & 1))
    return "".join(bits)


@pytest.mark.parametrize("family", all_families(), ids=lambda family: family.name)
def test_vcd_round_trips_against_trace(family):
    """The dump for one design per family reconstructs the trace exactly."""
    artifact = family.build(f"vcd_{family.name}", **family.parameter_grid[0])
    design = compiled_design(artifact.source)
    vectors = StimulusGenerator(design, seed=7).random_stimulus(cycles=6).vectors
    trace = CompiledSimulator(design).run(vectors)

    widths, changes = parse_vcd(vcd_string(trace, module_name=artifact.name))
    assert set(widths) == set(trace.signals)
    for name, width in widths.items():
        assert width == trace.samples[0].post_edge[name].width

    assert [time for time, _ in changes] == [sample.cycle * 10 for sample in trace.samples]
    state: dict[str, str] = {}
    for (_, delta), sample in zip(changes, trace.samples):
        state.update(delta)
        # Every recorded change must land on the sample's post-edge value...
        for name in delta:
            assert state[name] == format_bits(sample.post_edge[name])
        # ...and unchanged signals must still agree (nothing was dropped).
        for name in trace.signals:
            assert state[name] == format_bits(sample.post_edge[name]), name
