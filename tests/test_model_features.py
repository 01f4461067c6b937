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
from repro.corpus.corruptor import SyntaxCorruptor
from repro.corpus.generator import Corpus, CorpusSample
from repro.corpus.templates import all_families
from repro.dataaug.pipeline import DataAugmentationPipeline, PipelineConfig
from repro.hdl.source import SourceFile, strip_comment
from repro.model.assertsolver_model import AssertSolverModel
from repro.model.case import RepairCase
from repro.model.features import FixFeatureExtractor, LocalisationFeatureExtractor
from repro.model.ngram import NgramLanguageModel
from repro.model.fixes import FIX_PATTERNS
from repro.model.policy import PolicyWeights, RepairPolicy
from repro.model.response import candidate_key
from repro.model.sft import SftConfig
from repro.model.tokenizer import BOS_TOKEN, EOS_TOKEN, tokenize_line
from repro.obs import scoped_registry

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

        normalised = " ".join(candidate.split())
        reuses = False
        if normalised and normalised != " ".join(original.split()):
            for number in case.code_line_numbers:
                other = " ".join(strip_comment(naive_line(case, number)).strip().split())
                if other == normalised:
                    reuses = True
                    break
        touches = bool(set(line_identifiers(candidate)) & case.asserted_signals)
        return np.array(
            [
                1.0,
                lm_gain,
                spec_overlap(candidate) - spec_overlap(original),
                float(reuses),
                float(touches),
                self._edit_size(original, candidate),
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


def ranked(policy, case, k, temperature=1.0):
    return [
        (line, candidate.fixed_line, candidate.pattern, joint)
        for line, candidate, joint in policy.top_candidates(case, k, temperature)
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
    # A corrupted copy of every golden feeds Verilog-PT, so the policy has a
    # fitted language model and its surprisal features are not all zero.
    corruptor = SyntaxCorruptor(seed=seed)
    corpus.corrupted = [(sample, corruptor.corrupt(sample.source)) for sample in corpus.samples]
    datasets = DataAugmentationPipeline(PipelineConfig.small(seed=seed)).run(corpus)
    model = AssertSolverModel(seed=seed)
    model.pretrain(datasets.verilog_pt)
    assert model.knowledge.is_trained
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


# ---------------------------------------------------------------------- #
# bounded top-k against exhaustive enumeration
# ---------------------------------------------------------------------- #


def exhaustive_top_candidates(policy, case, k, temperature):
    """Every line expanded into its fixes, then sorted and deduplicated."""
    line_numbers, line_probabilities = policy.line_distribution(case, temperature)
    scored = []
    for line_index, line_number in enumerate(line_numbers):
        assigns_failing = 0 if case.asserted_signals.intersection(
            case.assigned_by_line.get(line_number, ())
        ) else 1
        candidates, fix_probabilities = policy.fix_distribution(case, line_number, temperature)
        for fix_index, candidate in enumerate(candidates):
            joint = float(line_probabilities[line_index] * fix_probabilities[fix_index])
            scored.append((joint, assigns_failing, line_number, candidate.fixed_line, candidate))
    scored.sort(key=lambda item: (-item[0], item[1], item[2], item[3]))
    top, seen = [], set()
    for joint, _assigns_failing, line_number, fixed_line, candidate in scored:
        key = candidate_key(line_number, fixed_line)
        if key not in seen:
            seen.add(key)
            top.append((line_number, candidate.fixed_line, candidate.pattern, joint))
        if len(top) >= k:
            break
    return top


@pytest.mark.parametrize("temperature", [0.2, 1.0])
def test_bounded_top_k_equals_exhaustive_enumeration(trained, temperature):
    model, entries = trained
    reference = model.snapshot().policy
    pruned_cases = 0
    for entry in entries:
        for k in (1, 5, 20, 50):
            # A fresh policy per call, so the lines it expands are this call's.
            policy = model.snapshot().policy
            case = RepairCase.from_entry(entry)
            with scoped_registry() as registry:
                ranking = ranked(policy, case, k, temperature)
            expected = exhaustive_top_candidates(
                reference, RepairCase.from_entry(entry), k, temperature
            )
            assert ranking == expected, (entry.name, k)
            expanded = len(policy.analyse(case).lines)
            counters = registry.counters
            assert counters["model.propose.lines"] == len(case.candidate_lines())
            assert counters["model.propose.lines_expanded"] == expanded
            pruned_cases += expanded < len(case.candidate_lines())
    assert pruned_cases > 0


def counter_case(source=None):
    return RepairCase(
        name="counter_case", spec="a wrapping counter", buggy_source=source or COUNTER_SOURCE,
        logs="failed assertion counter.a_wrap at cycle 17\n",
    )


def weights_favouring(*patterns):
    """Every other rewrite's exponential underflows to 0, so ``patterns``
    share each line's fix probability."""
    weights = PolicyWeights()
    for pattern in patterns:
        weights.fix_patterns[FIX_PATTERNS.index(pattern)] = 1e4
    return weights


@pytest.mark.parametrize("k", [1, 3])
def test_bounded_top_k_keeps_pairs_that_tie_the_kth(k):
    """A pair whose joint equals its line's probability (fix probability
    exactly 1.0) ties the k-th best and may still outrank it on the tie
    break, so the walk stops only strictly below the k-th."""
    case = counter_case()
    weights = weights_favouring("keep_line")  # and the lines all tie
    ranking = ranked(RepairPolicy(weights=weights), case, k)
    assert ranking == exhaustive_top_candidates(RepairPolicy(weights=weights), case, k, 1.0)
    assert ranking[0][0] != case.candidate_lines()[0]


def test_bounded_top_k_counts_equivalent_rewrites_once():
    """``count<=count;`` (keep_line) and ``count <= count;`` (freeze) are one
    pair: together they fill one of the k places, so the walk goes on to
    the next line for the second."""
    case = counter_case(COUNTER_SOURCE.replace("count <= count + 4'd1;", "count<=count;"))
    lines = case.candidate_lines()
    duplicated = next(n for n in lines if "count<=count" in case.line_text(n))

    def skewed(case, temperature=1.0):  # the duplicated line is the likeliest
        return lines, np.array([0.6 if n == duplicated else 0.4 / (len(lines) - 1) for n in lines])

    weights = weights_favouring("keep_line", "assign_freeze_register")
    policy, reference = RepairPolicy(weights=weights), RepairPolicy(weights=weights)
    policy.line_distribution = reference.line_distribution = skewed
    ranking = ranked(policy, case, 2)
    assert ranking == exhaustive_top_candidates(reference, case, 2, 1.0)
    assert ranking[1][0] != duplicated


@pytest.mark.parametrize("k", [0, -3])
def test_top_candidates_refuses_k_below_one(k):
    with pytest.raises(ValueError, match="k >= 1"):
        RepairPolicy().top_candidates(counter_case(), k=k)


# ---------------------------------------------------------------------- #
# the policy's surprisal memo
# ---------------------------------------------------------------------- #


def test_memoised_surprisals_equal_fresh_scores(trained):
    model, entries = trained
    policy = model.snapshot().policy
    for entry in entries[:10]:
        policy.top_candidates(RepairCase.from_entry(entry), k=5)
    language_model = policy.language_model
    assert len(policy._surprisals) > 50
    assert all(
        surprisal == language_model.line_surprisal(code)
        for code, surprisal in policy._surprisals.items()
    )


def test_set_language_model_drops_the_memo(trained):
    model, entries = trained
    policy = model.snapshot().policy
    policy.top_candidates(RepairCase.from_entry(entries[0]), k=5)
    assert policy._surprisals
    policy.set_language_model(policy.language_model)
    assert policy._surprisals == {}
    assert policy._localisation_extractor.surprisals is policy._surprisals
    assert policy._fix_extractor.surprisals is policy._surprisals


def test_snapshot_starts_with_an_empty_memo(trained):
    model, entries = trained
    warm = model.snapshot()
    warm.policy.top_candidates(RepairCase.from_entry(entries[0]), k=5)
    assert warm.policy._surprisals
    assert warm.snapshot().policy._surprisals == {}


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


def test_training_and_proposal_read_no_dataflow_graph(monkeypatch):
    """The repair model reads the design, the spec and the logs, never a
    dataflow graph or an advisory pass: with ``SignalDfg`` unbuildable the
    pipeline, SFT and top-k proposal all run, and the only static-analysis
    counters are the compile gate's lint passes."""
    from repro.analyze import LINT_PASSES
    from repro.analyze.dfg import SignalDfg
    from repro.obs import MetricsRegistry, get_registry, set_registry

    def refuse(self, design):
        raise AssertionError("SignalDfg built")

    monkeypatch.setattr(SignalDfg, "__init__", refuse)
    previous = set_registry(MetricsRegistry())
    try:
        seed = 1217
        rng = random.Random(seed)
        corpus = Corpus()
        for family in all_families()[::4]:
            artifact = family.build(f"{family.name}_00", **family.parameter_grid[0])
            spec = corpus_spec.build_spec(artifact, seed=rng.randrange(1_000_000))
            corpus.samples.append(CorpusSample(artifact=artifact, spec=spec))
        datasets = DataAugmentationPipeline(PipelineConfig.small(seed=seed)).run(corpus)
        model = AssertSolverModel(seed=seed)
        model.pretrain(datasets.verilog_pt)
        model.supervised_finetune(
            datasets.sva_bug_train, datasets.verilog_bug, config=SftConfig(epochs=1)
        )
        entries = datasets.sva_eval_machine or datasets.sva_bug_train
        assert entries
        for entry in entries:
            assert model.propose_topk(RepairCase.from_entry(entry), k=5)
        counters = get_registry().snapshot()["counters"]
    finally:
        set_registry(previous)
    lint_ids = {pass_id for pass_id, _ in LINT_PASSES}
    pass_ids = {
        key[len("analyze.pass."):] for key in counters if key.startswith("analyze.pass.")
    }
    assert pass_ids and pass_ids <= lint_ids


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
    assert [-model.line_surprisal(line) for line in PROBE_LINES] == [
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
    case = counter_case()
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
