"""Corpus generation: sweep the design families into a pool of golden designs.

The generator plays the role of the scraped Hugging Face corpus: it produces
a configurable number of Verilog samples of varying families, parameters and
code lengths, plus (via :class:`~repro.corpus.corruptor.SyntaxCorruptor`)
a share of samples that deliberately fail compilation, which Stage 1 of the
pipeline routes into the Verilog-PT pretraining split.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.corpus.corruptor import CorruptedSample, SyntaxCorruptor
from repro.corpus.metadata import DesignArtifact, DesignFamily
from repro.corpus.spec import build_spec
from repro.corpus.templates import all_families, family_by_name
from repro.runtime import JobPolicy, run_stage_jobs


@dataclass
class CorpusConfig:
    """Size and randomness knobs for corpus generation."""

    seed: int = 2025
    design_count: int = 120
    corrupted_fraction: float = 0.2

    def corrupted_count(self) -> int:
        return max(1, int(self.design_count * self.corrupted_fraction))


@dataclass
class CorpusSample:
    """One corpus entry: a golden design plus its synthesised specification."""

    artifact: DesignArtifact
    spec: str

    @property
    def name(self) -> str:
        return self.artifact.name

    @property
    def source(self) -> str:
        return self.artifact.source


@dataclass
class Corpus:
    """The generated pool: compilable samples and deliberately broken ones."""

    samples: list[CorpusSample] = field(default_factory=list)
    corrupted: list[tuple[CorpusSample, CorruptedSample]] = field(default_factory=list)
    #: Designs whose build job was quarantined (``JobPolicy.on_error``):
    #: one record per lost design with the structured failure summary.
    skipped: list[dict] = field(default_factory=list)

    def by_family(self) -> dict[str, list[CorpusSample]]:
        grouped: dict[str, list[CorpusSample]] = {}
        for sample in self.samples:
            grouped.setdefault(sample.artifact.family, []).append(sample)
        return grouped


class CorpusGenerator:
    """Generates the synthetic Verilog corpus."""

    #: integer parameters that can safely be jittered to diversify instances.
    _JITTERABLE = {"width": (4, 16), "depth": (4, 16), "divide_by": (3, 12), "stretch": (3, 8)}

    #: extra replication weight for families that produce longer designs, so the
    #: corpus covers the upper code-length bins of Table II.
    _FAMILY_WEIGHTS = {
        "multichannel_accumulator": 4,
        "pipelined_adder": 3,
        "status_datapath": 4,
        "alu": 2,
        "register_file": 2,
    }

    def __init__(self, config: CorpusConfig | None = None, policy: JobPolicy = JobPolicy()):
        self._config = config or CorpusConfig()
        #: How the per-design build jobs run (pool size, failure mode, ...).
        self._policy = policy
        self._random = random.Random(self._config.seed)
        self._families = all_families()

    @property
    def families(self) -> list[DesignFamily]:
        return self._families

    def generate(self) -> Corpus:
        """Generate the full corpus according to the configuration.

        Instance planning and seed drawing stay serial (they share the
        generator's RNG stream), then the per-design builds -- the actual
        cost -- fan out through :func:`repro.runtime.run_stage_jobs`.  Every job
        carries its own spec seed, drawn up front in instance order, so the
        corpus is byte-identical for any worker count.
        """
        corpus = Corpus()
        instances = self._plan_instances(self._config.design_count)
        jobs = [
            (family.name, params, f"{family.name}_{index:04d}",
             self._random.randint(0, 1_000_000))
            for index, (family, params) in enumerate(instances)
        ]
        samples, corpus.skipped = run_stage_jobs(
            "corpus",
            jobs,
            _build_sample_job,
            self._policy,
            [job[2] for job in jobs],
        )
        corpus.samples = [sample for sample in samples if sample is not None]
        corruptor = SyntaxCorruptor(seed=self._config.seed + 1)
        victims = self._random.sample(
            corpus.samples, min(self._config.corrupted_count(), len(corpus.samples))
        )
        for sample in victims:
            corrupted = corruptor.corrupt(sample.source)
            corpus.corrupted.append((sample, corrupted))
        return corpus

    # ------------------------------------------------------------------ #
    # instance planning
    # ------------------------------------------------------------------ #

    def _plan_instances(self, count: int) -> list[tuple[DesignFamily, dict]]:
        """Pick (family, parameters) pairs, cycling the grids and jittering widths."""
        base: list[tuple[DesignFamily, dict]] = []
        for family in self._families:
            weight = self._FAMILY_WEIGHTS.get(family.name, 1)
            for params in family.parameter_grid:
                for _ in range(weight):
                    base.append((family, dict(params)))
        self._random.shuffle(base)
        instances: list[tuple[DesignFamily, dict]] = []
        cursor = 0
        while len(instances) < count:
            family, params = base[cursor % len(base)]
            params = dict(params)
            if cursor >= len(base):
                params = self._jitter(params)
            instances.append((family, params))
            cursor += 1
        return instances[:count]

    def _jitter(self, params: dict) -> dict:
        jittered = dict(params)
        for key, (low, high) in self._JITTERABLE.items():
            if key in jittered and isinstance(jittered[key], int):
                delta = self._random.choice((-2, -1, 1, 2))
                jittered[key] = max(low, min(high, jittered[key] + delta))
        return jittered


def _build_sample_job(job: tuple[str, dict, str, int]) -> CorpusSample:
    """Worker function: build one design and its spec (module-level so it
    pickles; the family is rebuilt from its registry name in the worker)."""
    family_name, params, name, spec_seed = job
    artifact = family_by_name(family_name).build(name, **params)
    return CorpusSample(artifact=artifact, spec=build_spec(artifact, seed=spec_seed))
