"""Feature extraction against a naive oracle, and the caches it relies on.

The fast extractors do each piece of per-case work once: the source is
split into lines once (``SourceFile.lines``), the case's normalised code
lines form one set, the dependency distances to the asserted signals are
one map, the n-gram model keeps exact per-context totals, and a fix batch
computes the original line's terms once.  The oracle below is the
straightforward per-candidate formulation those replaced; every feature
matrix and every ranked candidate must match it bit for bit.
"""

import dataclasses
import math
import random

import numpy as np
import pytest

from repro.bugs.mutators import line_identifiers
from repro.corpus import spec as corpus_spec
from repro.corpus.generator import Corpus, CorpusSample
from repro.corpus.templates import all_families
from repro.dataaug.pipeline import DataAugmentationPipeline, PipelineConfig
from repro.hdl.source import SourceFile, strip_comment
from repro.model.assertsolver_model import AssertSolverModel
from repro.model.case import RepairCase
from repro.model.features import FixFeatureExtractor, LocalisationFeatureExtractor
from repro.model.ngram import NgramLanguageModel
from repro.model.policy import RepairPolicy
from repro.model.sft import SftConfig
from repro.model.tokenizer import BOS_TOKEN, EOS_TOKEN, tokenize_line

# ---------------------------------------------------------------------- #
# the naive oracle
# ---------------------------------------------------------------------- #


def naive_token_probability(model, previous2, token):
    """Interpolated trigram probability, re-summing each context's counts."""
    vocabulary = max(1, len(model.unigrams))

    def unigram(token):
        return (model.unigrams.get(token, 0) + model.alpha) / (
            model.total_tokens + model.alpha * vocabulary
        )

    def bigram(previous, token):
        context = model.bigrams.get(previous)
        if not context:
            return unigram(token)
        total = sum(context.values())
        return (context.get(token, 0) + model.alpha) / (total + model.alpha * vocabulary)

    def trigram(previous2, token):
        context = model.trigrams.get(previous2)
        if not context:
            return bigram(previous2[1], token)
        total = sum(context.values())
        return (context.get(token, 0) + model.alpha) / (total + model.alpha * vocabulary)

    lambda1, lambda2, lambda3 = model.interpolation
    return (
        lambda1 * unigram(token)
        + lambda2 * bigram(previous2[1], token)
        + lambda3 * trigram(previous2, token)
    )


def naive_naturalness(model, line):
    tokens = tokenize_line(line)[1:-1]
    if not tokens:
        return -0.0
    padded = [BOS_TOKEN, BOS_TOKEN, *tokens, EOS_TOKEN]
    total = 0.0
    for index in range(2, len(padded)):
        probability = naive_token_probability(
            model, (padded[index - 2], padded[index - 1]), padded[index]
        )
        total += math.log(max(probability, 1e-12))
    return -(-total / (len(tokens) + 1))


def naive_line(case, number):
    return case.buggy_source.split("\n")[number - 1]


class NaiveLocalisation(LocalisationFeatureExtractor):
    """Re-runs the backwards search from the asserted signals for every line."""

    def _cone_proximity(self, case, assigned):
        if not assigned or case.design is None or not case.asserted_signals:
            return 0.0
        graph = case.design.dependency_graph
        distance = {name: 0 for name in case.asserted_signals if name in graph}
        frontier = list(distance)
        while frontier:
            next_frontier = []
            for name in frontier:
                for dep in graph.get(name, ()):
                    if dep not in distance:
                        distance[dep] = distance[name] + 1
                        next_frontier.append(dep)
            frontier = next_frontier
        best = min((distance.get(name, 99) for name in assigned), default=99)
        return 1.0 / (1.0 + best)


class NaiveFix(FixFeatureExtractor):
    """One candidate at a time: every original-line term recomputed, the
    case's code lines re-normalised, each n-gram context re-summed."""

    def extract(self, case, original_line, candidate_line):
        original = strip_comment(original_line).strip()
        candidate = strip_comment(candidate_line).strip()
        model = self.language_model
        if model is None or model.total_tokens == 0:
            lm_gain = 0.0
        else:
            gain = naive_naturalness(model, candidate) - naive_naturalness(model, original)
            lm_gain = float(np.clip(gain, -2.0, 2.0))

        def spec_overlap(code):
            identifiers = {name.lower() for name in line_identifiers(code)}
            if not identifiers:
                return 0.0
            return len(identifiers & case.spec_tokens) / len(identifiers)

        def cone_fraction(cone, code):
            identifiers = set(line_identifiers(code))
            if not identifiers:
                return 0.0
            return len(identifiers & cone) / len(identifiers)

        normalised = " ".join(candidate.split())
        reuses = False
        if normalised and normalised != " ".join(original.split()):
            for number in case.code_line_numbers:
                other = " ".join(strip_comment(naive_line(case, number)).strip().split())
                if other == normalised:
                    reuses = True
                    break
        touches = bool(set(line_identifiers(candidate)) & case.asserted_signals)
        cone = case.failing_cone
        cone_gain = (
            cone_fraction(cone, candidate) - cone_fraction(cone, original) if cone else 0.0
        )
        return np.array(
            [
                1.0,
                lm_gain,
                spec_overlap(candidate) - spec_overlap(original),
                float(reuses),
                float(touches),
                self._edit_size(original, candidate),
                cone_gain,
            ]
        )

    def extract_batch(self, case, original_line, candidates):
        rows = [self.extract(case, original_line, candidate) for candidate in candidates]
        if not rows:
            return np.zeros((0, len(self.feature_names())))
        return np.vstack(rows)


def naive_policy(policy):
    oracle = RepairPolicy(weights=policy.weights.copy(), language_model=policy.language_model)
    oracle._localisation_extractor = NaiveLocalisation(policy.language_model)
    oracle._fix_extractor = NaiveFix(policy.language_model)
    return oracle


def ranked(policy, case, k):
    return [
        (line, candidate.fixed_line, candidate.pattern, joint)
        for line, candidate, joint in policy.top_candidates(case, k=k)
    ]


# ---------------------------------------------------------------------- #
# a small pipeline run over every other family
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def trained():
    seed = 1213
    rng = random.Random(seed)
    corpus = Corpus()
    for family in all_families()[::2]:
        artifact = family.build(f"{family.name}_00", **family.parameter_grid[0])
        spec = corpus_spec.build_spec(artifact, seed=rng.randrange(1_000_000))
        corpus.samples.append(CorpusSample(artifact=artifact, spec=spec))
    datasets = DataAugmentationPipeline(PipelineConfig.small(seed=seed)).run(corpus)
    model = AssertSolverModel(seed=seed)
    model.pretrain(datasets.verilog_pt)
    model.supervised_finetune(
        datasets.sva_bug_train, datasets.verilog_bug, config=SftConfig(epochs=2)
    )
    entries = datasets.sva_bug_train + datasets.sva_eval_machine
    return model, entries


def test_feature_matrices_and_ranking_match_the_naive_oracle(trained):
    model, entries = trained
    assert len(entries) >= 20
    policy = model.snapshot().policy
    oracle = naive_policy(policy)
    lines_checked = 0
    for entry in entries:
        fast_case, slow_case = RepairCase.from_entry(entry), RepairCase.from_entry(entry)
        fast, slow = policy.analyse(fast_case), oracle.analyse(slow_case)
        assert fast.line_numbers == slow.line_numbers
        assert np.array_equal(fast.line_features, slow.line_features), entry.name
        for number in fast.line_numbers:
            fast_options = policy.fix_options(fast_case, number)
            slow_options = oracle.fix_options(slow_case, number)
            assert [c.fixed_line for c in fast_options.candidates] == [
                c.fixed_line for c in slow_options.candidates
            ]
            assert np.array_equal(fast_options.features, slow_options.features), (
                entry.name, number
            )
            lines_checked += 1
        assert ranked(policy, fast_case, 5) == ranked(oracle, slow_case, 5), entry.name
    assert lines_checked > 100


def test_one_candidate_extract_is_a_row_of_the_batch(trained):
    model, entries = trained
    extractor = FixFeatureExtractor(model.policy.language_model)
    case = RepairCase.from_entry(entries[0])
    original = case.line_text(case.candidate_lines()[0])
    candidates = [original, original.replace("<=", "="), "assign x = 1'b0;", ""]
    batch = extractor.extract_batch(case, original, candidates)
    assert batch.shape == (len(candidates), len(extractor.feature_names()))
    for row, candidate in zip(batch, candidates):
        assert np.array_equal(extractor.extract(case, original, candidate), row)
    assert extractor.extract_batch(case, original, []).shape == (0, batch.shape[1])


# ---------------------------------------------------------------------- #
# the n-gram model's context totals
# ---------------------------------------------------------------------- #

FIRST_TEXT = """\
module a (input wire clk, input wire [3:0] d, output reg [3:0] q);
    always @(posedge clk) q <= d;
endmodule
"""

SECOND_TEXT = """\
module b (input wire clk, input wire rst_n, output reg [7:0] count);
    always @(posedge clk) begin
        if (!rst_n) count <= 8'd0;
        else count <= count + 8'd1;
    end
endmodule
"""

PROBE_LINES = (
    "q <= d;",
    "count <= count + 8'd1;",
    "if (!rst_n) count <= 8'd0;",
    "assign y = a & b;",
    "",
)


def test_refitting_keeps_context_totals_exact():
    model = NgramLanguageModel()
    model.fit_text(FIRST_TEXT)
    before = [model.line_surprisal(line) for line in PROBE_LINES]
    model.fit_text(SECOND_TEXT)
    after = [model.line_surprisal(line) for line in PROBE_LINES]

    fresh = NgramLanguageModel()
    fresh.fit_corpus([FIRST_TEXT, SECOND_TEXT])
    assert after == [fresh.line_surprisal(line) for line in PROBE_LINES]
    assert after != before
    for context, counts in model.bigrams.items():
        assert model.bigram_totals[context] == sum(counts.values())
    for context, counts in model.trigrams.items():
        assert model.trigram_totals[context] == sum(counts.values())
    assert [model.line_naturalness(line) for line in PROBE_LINES] == [
        naive_naturalness(model, line) for line in PROBE_LINES
    ]


# ---------------------------------------------------------------------- #
# the policy's per-case cache
# ---------------------------------------------------------------------- #

COUNTER_SOURCE = """\
module counter (
    input wire clk,
    input wire rst_n,
    output reg [3:0] count
);
    always @(posedge clk) begin
        if (!rst_n) count <= 4'd0;
        else count <= count + 4'd1;
    end
    property p_wrap;
        @(posedge clk) disable iff (!rst_n) count == 4'd15 |=> count == 4'd0;
    endproperty
    a_wrap: assert property (p_wrap);
endmodule
"""

GRAY_SOURCE = """\
module counter (
    input wire clk,
    input wire rst_n,
    input wire enable,
    output reg [3:0] binary,
    output wire [3:0] gray
);
    assign gray = binary ^ (binary >> 1);
    always @(posedge clk) begin
        if (!rst_n) binary <= 4'd0;
        else if (enable) binary <= binary + 4'd1;
        else binary <= binary;
    end
    property p_hold;
        @(posedge clk) disable iff (!rst_n) !enable |=> binary == $past(binary);
    endproperty
    a_hold: assert property (p_hold);
endmodule
"""


def test_a_case_with_a_reused_name_gets_its_own_features():
    first = RepairCase(
        name="shared_name", spec="a wrapping counter", buggy_source=COUNTER_SOURCE,
        logs="failed assertion counter.a_wrap at cycle 17\n",
    )
    second = RepairCase(
        name="shared_name", spec="a binary counter with a gray output",
        buggy_source=GRAY_SOURCE, logs="failed assertion counter.a_hold at cycle 5\n",
    )
    policy = RepairPolicy()
    policy.top_candidates(first, k=5)
    assert ranked(policy, second, 5) == ranked(RepairPolicy(), second, 5)
    assert policy.analyse(second).line_numbers == second.candidate_lines()


def test_cases_with_equal_content_share_one_analysis():
    case = RepairCase(
        name="counter_case", spec="a wrapping counter", buggy_source=COUNTER_SOURCE,
        logs="failed assertion counter.a_wrap at cycle 17\n",
    )
    policy = RepairPolicy()
    assert policy.analyse(dataclasses.replace(case, metadata={})) is policy.analyse(case)


# ---------------------------------------------------------------------- #
# SourceFile is immutable
# ---------------------------------------------------------------------- #


def test_source_file_is_frozen_and_splits_once():
    source = SourceFile(COUNTER_SOURCE)
    assert source.lines == COUNTER_SOURCE.split("\n")
    assert source.lines is source.lines
    with pytest.raises(dataclasses.FrozenInstanceError):
        source.text = GRAY_SOURCE
    assert source.line(7) == "        if (!rst_n) count <= 4'd0;"


def test_with_line_replaced_returns_a_new_file():
    source = SourceFile(COUNTER_SOURCE)
    original_lines = list(source.lines)
    edited = source.with_line_replaced(7, "if (!rst_n) count <= 4'd1;")
    assert edited is not source
    assert edited.line(7) == "        if (!rst_n) count <= 4'd1;"
    assert edited.lines == edited.text.split("\n")
    assert source.lines == original_lines
    assert source.text == COUNTER_SOURCE
