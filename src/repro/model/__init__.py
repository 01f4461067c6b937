"""The AssertSolver repair model (the paper's core contribution).

The paper fine-tunes Deepseek-Coder-6.7b in three stages; this reproduction
trains a statistical repair *policy* with the same three stages and the same
data flow:

* **Pretraining** (:mod:`repro.model.pretrain`): fit an n-gram language model
  and token statistics of Verilog on the Verilog-PT dataset.  The LM feeds a
  "surprisal" feature used by bug localisation.
* **Supervised fine-tuning** (:mod:`repro.model.sft`): fit the localisation
  weights (softmax over candidate lines) and the fix-pattern weights (softmax
  over candidate rewrites) on the SVA-Bug and Verilog-Bug datasets.
* **Learning from error responses** (:mod:`repro.model.dpo`): sample n = 20
  responses per training question, collect the challenging cases that receive
  at least one wrong response, and run Direct Preference Optimisation on the
  policy weights with the SFT policy as the frozen reference -- its
  log-probabilities, recorded when the preference pairs are built, before
  the first update.

:class:`~repro.model.policy.RepairPolicy` is the only code that turns weights
into probabilities, log-probabilities and gradients; both trainers step the
weights along the gradients it returns.

Inference (:meth:`AssertSolverModel.propose` and ``propose_topk``) returns
JSON responses — candidate buggy line, suggested fix, line number and a
chain-of-thought explanation — exactly the output contract of Fig. 2 (III).
"""

from repro.model.case import RepairCase
from repro.model.response import RepairResponse, RepairEngine
from repro.model.policy import RepairPolicy, PolicyWeights
from repro.model.assertsolver_model import AssertSolverModel, ModelStage
from repro.model.pretrain import PretrainedKnowledge, run_pretraining
from repro.model.sft import SftTrainer, SftConfig
from repro.model.dpo import DpoTrainer, DpoConfig, PreferenceTriple
from repro.model.challenging import collect_challenging_cases

__all__ = [
    "RepairCase",
    "RepairResponse",
    "RepairEngine",
    "RepairPolicy",
    "PolicyWeights",
    "AssertSolverModel",
    "ModelStage",
    "PretrainedKnowledge",
    "run_pretraining",
    "SftTrainer",
    "SftConfig",
    "DpoTrainer",
    "DpoConfig",
    "PreferenceTriple",
    "collect_challenging_cases",
]
