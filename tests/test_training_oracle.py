"""SFT and DPO against the training code they replaced, bit for bit.

Both trainers take every log-probability and gradient from
:class:`~repro.model.policy.RepairPolicy` (``line_choice``, ``fix_choice``
and ``choice``), a fix is looked up once per line through
``LineOptions.fix_index``, and DPO records the reference log-probabilities
when it builds its pairs.  The oracle below is the formulation those
replaced: SFT's own softmax-gradient arithmetic, a ``lines_equivalent`` scan
per lookup, and a DPO trainer that keeps a second ``RepairPolicy`` as the
frozen reference and recomputes its log-probabilities for every margin.
The floating-point operations and their order are the same, so weights and
reports must be equal exactly -- no tolerance.
"""

import dataclasses
import math
import random
import re

import numpy as np
import pytest

from repro.dataaug.pipeline import DataAugmentationPipeline, PipelineConfig
from repro.eval.verifier import SemanticVerifier
from repro.hdl.source import lines_equivalent, normalize_line, replace_line, strip_comment
from repro.model.assertsolver_model import AssertSolverModel
from repro.model.case import RepairCase
from repro.model.challenging import PreferenceTriple, collect_challenging_cases
from repro.model.dpo import DpoConfig, DpoReport, DpoTrainer
from repro.model.fixes import FIX_PATTERNS, FixCandidate
from repro.model.policy import LineOptions, RepairPolicy
from repro.model.sft import SftReport, SftTrainer

SEED = 1213

# ---------------------------------------------------------------------- #
# the oracle: the pre-refactor training code
# ---------------------------------------------------------------------- #


def oracle_fix_scan(candidates, fixed_line):
    for index, candidate in enumerate(candidates):
        if lines_equivalent(candidate.fixed_line, fixed_line):
            return index
    return None


def oracle_log_probability(policy, case, line_number, fixed_line, temperature=1.0):
    line_numbers, line_probabilities = policy.line_distribution(case, temperature)
    if line_number not in line_numbers:
        return None
    line_index = line_numbers.index(line_number)
    candidates, fix_probabilities = policy.fix_distribution(case, line_number, temperature)
    fix_index = oracle_fix_scan(candidates, fixed_line)
    if fix_index is None:
        return None
    return float(
        np.log(max(line_probabilities[line_index], 1e-12))
        + np.log(max(fix_probabilities[fix_index], 1e-12))
    )


def oracle_log_probability_gradient(policy, case, line_number, fixed_line, temperature=1.0):
    analysis = policy.analyse(case)
    if line_number not in analysis.line_numbers:
        return None
    line_index = analysis.line_numbers.index(line_number)
    _, line_probabilities = policy.line_distribution(case, temperature)
    line_gradient = (
        analysis.line_features[line_index] - line_probabilities @ analysis.line_features
    ) / max(temperature, 1e-3)

    options = policy.fix_options(case, line_number)
    fix_index = oracle_fix_scan(options.candidates, fixed_line)
    if fix_index is None:
        return None
    _, fix_probabilities = policy.fix_distribution(case, line_number, temperature)
    fix_feature_gradient = (
        options.features[fix_index] - fix_probabilities @ options.features
    ) / max(temperature, 1e-3)
    pattern_gradient = np.zeros(len(FIX_PATTERNS))
    pattern_gradient[options.patterns[fix_index]] += 1.0
    for index, probability in enumerate(fix_probabilities):
        pattern_gradient[options.patterns[index]] -= probability
    pattern_gradient /= max(temperature, 1e-3)
    return {
        "localisation": line_gradient,
        "fix_features": fix_feature_gradient,
        "fix_patterns": pattern_gradient,
    }


class OracleSft(SftTrainer):
    """The SFT trainer with its own gradient arithmetic and candidate scan
    (dataset preparation is inherited: it is not what changed)."""

    def train(self, sva_entries, verilog_bug_entries=()):
        report = SftReport()
        examples = self._prepare(sva_entries, verilog_bug_entries, report)
        if not examples:
            return report
        weights = self._policy.weights
        learning_rate = self._config.learning_rate
        for _ in range(self._config.epochs):
            self._random.shuffle(examples)
            epoch_log_likelihood = 0.0
            for example in examples:
                epoch_log_likelihood += self._update_example(example, learning_rate)
            report.epoch_log_likelihood.append(epoch_log_likelihood / len(examples))
            learning_rate *= self._config.learning_rate_decay
            weights.localisation *= 1.0 - self._config.l2
            weights.fix_features *= 1.0 - self._config.l2
            weights.fix_patterns *= 1.0 - self._config.l2
        accuracy_loc, accuracy_fix = self._evaluate(examples)
        report.final_localisation_accuracy = accuracy_loc
        report.final_fix_accuracy = accuracy_fix
        report.fix_targets_found = sum(
            1 for example in examples if self._fix_target_index(example) is not None
        )
        return report

    def _update_example(self, example, learning_rate):
        policy = self._policy
        weights = policy.weights
        case = example.case
        analysis = policy.analyse(case)
        line_numbers, line_probabilities = policy.line_distribution(case, temperature=1.0)
        line_index = line_numbers.index(example.line_number)
        observed = analysis.line_features[line_index]
        expected = line_probabilities @ analysis.line_features
        weights.localisation += learning_rate * example.weight * (observed - expected)
        weights.localisation *= (
            1.0 - learning_rate * example.weight * self._config.localisation_l2
        )
        log_likelihood = float(np.log(max(line_probabilities[line_index], 1e-12)))

        fix_index = self._fix_target_index(example)
        if fix_index is not None:
            options = policy.fix_options(case, example.line_number)
            _, fix_probabilities = policy.fix_distribution(
                case, example.line_number, temperature=1.0
            )
            observed_fix = options.features[fix_index]
            expected_fix = fix_probabilities @ options.features
            weights.fix_features += learning_rate * example.weight * (observed_fix - expected_fix)
            pattern_update = np.zeros_like(weights.fix_patterns)
            pattern_update[options.patterns[fix_index]] += 1.0
            for index, probability in enumerate(fix_probabilities):
                pattern_update[options.patterns[index]] -= probability
            weights.fix_patterns += learning_rate * example.weight * pattern_update
            log_likelihood += float(np.log(max(fix_probabilities[fix_index], 1e-12)))
        return log_likelihood

    def _fix_target_index(self, example):
        candidates = self._policy.fix_options(example.case, example.line_number).candidates
        return oracle_fix_scan(candidates, example.golden_line)

    def _evaluate(self, examples):
        policy = self._policy
        correct_lines = correct_fixes = fix_total = 0
        for example in examples:
            line_numbers, probabilities = policy.line_distribution(example.case, temperature=1.0)
            if not line_numbers:
                continue
            if line_numbers[int(np.argmax(probabilities))] == example.line_number:
                correct_lines += 1
            fix_index = self._fix_target_index(example)
            if fix_index is None:
                continue
            fix_total += 1
            _, fix_probabilities = policy.fix_distribution(
                example.case, example.line_number, temperature=1.0
            )
            if int(np.argmax(fix_probabilities)) == fix_index:
                correct_fixes += 1
        return (
            correct_lines / len(examples) if examples else 0.0,
            correct_fixes / fix_total if fix_total else 0.0,
        )


def _sigmoid(value):
    if value >= 0:
        return 1.0 / (1.0 + math.exp(-value))
    exponential = math.exp(value)
    return exponential / (1.0 + exponential)


class OracleDpo:
    """The DPO trainer with a second policy as the frozen reference."""

    def __init__(self, policy, reference, config=None):
        self._policy = policy
        self._reference = reference
        self._config = config or DpoConfig()
        self._random = random.Random(self._config.seed)

    def train(self, triples):
        report = DpoReport(triples=len(triples))
        pairs = []
        for triple in triples:
            for negative in triple.negatives[: self._config.max_negatives_per_case]:
                pair = {
                    "case": triple.case,
                    "positive": (triple.positive_line_number, triple.positive_fixed_line),
                    "negative": negative,
                }
                if self._representable(pair):
                    pairs.append(pair)
                    report.pairs += 1
                else:
                    report.pairs_skipped += 1
        if not pairs:
            return report
        report.mean_margin_before = float(np.mean([self._delta(pair) for pair in pairs]))
        learning_rate = self._config.learning_rate
        for _ in range(self._config.epochs):
            self._random.shuffle(pairs)
            epoch_loss = 0.0
            for pair in pairs:
                epoch_loss += self._update_pair(pair, learning_rate)
            report.epoch_loss.append(epoch_loss / len(pairs))
            learning_rate *= 0.9
        report.mean_margin_after = float(np.mean([self._delta(pair) for pair in pairs]))
        return report

    def _representable(self, pair):
        for line_number, fixed_line in (pair["positive"], pair["negative"]):
            for policy in (self._policy, self._reference):
                if oracle_log_probability(policy, pair["case"], line_number, fixed_line) is None:
                    return False
        return True

    def _delta(self, pair):
        case = pair["case"]
        log_p_theta = oracle_log_probability(self._policy, case, *pair["positive"])
        log_n_theta = oracle_log_probability(self._policy, case, *pair["negative"])
        log_p_ref = oracle_log_probability(self._reference, case, *pair["positive"])
        log_n_ref = oracle_log_probability(self._reference, case, *pair["negative"])
        return self._config.beta * ((log_p_theta - log_p_ref) - (log_n_theta - log_n_ref))

    def _update_pair(self, pair, learning_rate):
        delta = self._delta(pair)
        loss = -math.log(_sigmoid(delta))
        coefficient = _sigmoid(-delta) * self._config.beta
        positive = oracle_log_probability_gradient(self._policy, pair["case"], *pair["positive"])
        negative = oracle_log_probability_gradient(self._policy, pair["case"], *pair["negative"])
        weights = self._policy.weights
        for block in ("localisation", "fix_features", "fix_patterns"):
            update = coefficient * (positive[block] - negative[block])
            setattr(weights, block, getattr(weights, block) + learning_rate * update)
        return loss


# ---------------------------------------------------------------------- #
# data: one small pipeline, plus the examples it may not produce
# ---------------------------------------------------------------------- #

_REGISTER_ASSIGNMENT = re.compile(r"\b([A-Za-z_]\w*)\s*<=\s*[^;]+;")


def duplicate_target_entry(entries):
    """An entry whose buggy line's assignment is rewritten to ``q<=q;``, with
    golden line ``q <= q;``: the freeze-register rewrite ``q <= q;`` and the
    keep-line candidate ``q<=q;`` pass the generator's whitespace-split
    dedup, yet both normalise equal to the golden line -- so which of the
    two a lookup returns matters."""
    for entry in entries:
        code = strip_comment(entry.buggy_line).rstrip()
        match = _REGISTER_ASSIGNMENT.search(code)
        if not match:
            continue
        target = match.group(1)
        tight = code[: match.start()] + f"{target}<={target};" + code[match.end():]
        duplicate = dataclasses.replace(
            entry,
            name=f"{entry.name}_duplicate_target",
            buggy_source=replace_line(entry.buggy_source, entry.line_number, tight),
            buggy_line=tight,
            golden_line=code[: match.start()] + f"{target} <= {target};" + code[match.end():],
        )
        case = RepairCase.from_entry(duplicate)
        if case.design is not None and entry.line_number in case.candidate_lines():
            return duplicate
    raise AssertionError("no entry assigns a register on its buggy line")


@pytest.fixture(scope="module")
def datasets():
    return DataAugmentationPipeline(PipelineConfig.small(seed=SEED)).run()


@pytest.fixture(scope="module")
def sft_entries(datasets):
    natural = datasets.sva_bug_train + datasets.sva_eval_machine
    off_candidate = dataclasses.replace(
        natural[0], name=f"{natural[0].name}_off_candidate", golden_line="assign nowhere = 1'b0;"
    )
    return [*natural, off_candidate, duplicate_target_entry(natural)]


def pretrained(datasets):
    model = AssertSolverModel(seed=SEED)
    model.pretrain(datasets.verilog_pt)
    return model


@pytest.fixture(scope="module")
def sft_runs(datasets, sft_entries):
    model = pretrained(datasets)
    report = model.supervised_finetune(sft_entries, datasets.verilog_bug)
    oracle = pretrained(datasets)
    oracle_report = OracleSft(oracle.policy).train(sft_entries, datasets.verilog_bug)
    return model, report, oracle, oracle_report


# ---------------------------------------------------------------------- #
# SFT
# ---------------------------------------------------------------------- #


def test_sft_matches_the_oracle_exactly(sft_runs):
    model, report, oracle, oracle_report = sft_runs
    assert model.policy.weights.to_dict() == oracle.policy.weights.to_dict()
    assert report == oracle_report
    # The golden line of some example is no candidate: its line step applied
    # and its fix step did not.
    assert 0 < report.fix_targets_found < report.cases_used


# ---------------------------------------------------------------------- #
# DPO
# ---------------------------------------------------------------------- #


def crafted_triples(policy, sft_entries):
    """A duplicate-target pair and pairs that cannot be represented."""
    duplicate = RepairCase.from_entry(sft_entries[-1])
    line_number, target = duplicate.golden_line_number, duplicate.golden_line
    others = [
        (line_number, candidate.fixed_line)
        for candidate in policy.fix_options(duplicate, line_number).candidates
        if not lines_equivalent(candidate.fixed_line, target)
    ]
    return [
        PreferenceTriple(duplicate, line_number, target, negatives=others[:2]),
        # The positive sits on a structural line (``module ...``): unrepresentable.
        PreferenceTriple(duplicate, 1, target, negatives=others[:2]),
        # A negative no candidate is equivalent to: that pair alone is skipped.
        PreferenceTriple(
            duplicate, line_number, others[0][1],
            negatives=[(line_number, "assign nowhere = 1'b0;"), (line_number, target)],
        ),
    ]


def test_dpo_matches_the_oracle_exactly(sft_runs, sft_entries):
    model = sft_runs[0]
    triples, _ = collect_challenging_cases(
        model, sft_entries, seed=SEED, verifier=SemanticVerifier()
    )
    assert triples
    triples += crafted_triples(model.policy, sft_entries)

    policy = model.snapshot().policy
    report = DpoTrainer(policy).train(triples)
    oracle_policy = model.snapshot().policy
    reference = RepairPolicy(
        weights=oracle_policy.weights.copy(), language_model=oracle_policy.language_model
    )
    oracle_report = OracleDpo(oracle_policy, reference).train(triples)

    assert policy.weights.to_dict() == oracle_policy.weights.to_dict()
    assert report == oracle_report
    assert report.pairs_skipped >= 3 and report.pairs > 0
    assert report.mean_margin_after > report.mean_margin_before


def test_learn_from_errors_matches_the_oracle_exactly(sft_runs, datasets):
    model, _, oracle, _ = sft_runs
    model, oracle = model.snapshot(), oracle.snapshot()
    entries = datasets.sva_bug_train + datasets.sva_eval_machine
    report = model.learn_from_errors(entries, verifier=SemanticVerifier())

    reference = RepairPolicy(
        weights=oracle.policy.weights.copy(), language_model=oracle.policy.language_model
    )
    triples, stats = collect_challenging_cases(
        oracle, entries, seed=oracle._seed, verifier=SemanticVerifier()
    )
    oracle_report = OracleDpo(oracle.policy, reference).train(triples)

    assert model.history.challenging_stats == stats
    assert model.policy.weights.to_dict() == oracle.policy.weights.to_dict()
    assert report == oracle_report
    assert report.pairs > 0


# ---------------------------------------------------------------------- #
# the one fix lookup
# ---------------------------------------------------------------------- #


def test_fix_index_returns_the_first_equivalent_candidate():
    spaced, tight = "a <= b ;", "a<=b;"
    # Both survive the generator's whitespace-split dedup ...
    assert " ".join(spaced.split()) != " ".join(tight.split())
    candidates = [
        FixCandidate(3, "a <= c;", line, pattern, "")
        for line, pattern in (
            ("a <= c + 1;", "op_minus_to_plus"),
            (spaced, "var_substitution"),
            (tight, "keep_line"),
        )
    ]
    options = LineOptions(candidates, np.zeros((3, 1)), np.zeros(3, dtype=int))
    # ... and the lookup takes the first of the two, whichever spelling it is asked for.
    assert options.fix_index(tight) == 1
    assert options.fix_index("a  <=  b;") == 1
    assert options.fix_index("a <= c + 1 ;") == 0
    assert options.fix_index("a <= d;") is None
    assert options.keys == [normalize_line(candidate.fixed_line) for candidate in candidates]


def test_fix_index_takes_the_first_of_a_generated_duplicate(sft_runs, sft_entries):
    policy = sft_runs[0].policy
    duplicate = RepairCase.from_entry(sft_entries[-1])
    line_number, target = duplicate.golden_line_number, duplicate.golden_line
    options = policy.fix_options(duplicate, line_number)
    first, second = [
        index
        for index, candidate in enumerate(options.candidates)
        if lines_equivalent(candidate.fixed_line, target)
    ]
    assert options.candidates[second].pattern == "keep_line"
    assert options.fix_index(target) == first


def test_top_candidates_builds_no_normalised_keys(datasets):
    policy = RepairPolicy()
    case = RepairCase.from_entry(datasets.sva_bug_train[0])
    assert policy.top_candidates(case, k=5)
    lines = policy.analyse(case).lines
    assert set(lines) == set(case.candidate_lines())
    assert all(options.keys is None for options in lines.values())
