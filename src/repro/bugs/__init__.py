"""Bug injection: the seven-type mutation engine of Table I.

In the paper, Claude-3.5 generates "random bugs" that are injected into the
golden Verilog and validated with EDA tools.  Here the bugs come from a
mutation engine with operators covering the same taxonomy:

* ``Op`` -- operator misuse (``+`` vs ``-``, ``&&`` vs ``||``, ``==`` vs ``!=`` ...),
* ``Value`` -- wrong constants, off-by-one values, wrong literal widths,
* ``Var`` -- wrong signal referenced,
* ``Cond`` / ``Non_cond`` -- whether the edit lands in a conditional statement,
* ``Direct`` / ``Indirect`` -- whether the signal assigned on the buggy line
  appears directly in the failing assertion (assigned after verification).
"""

from repro.bugs.instance import BugInstance
from repro.bugs.mutators import MutationCandidate, enumerate_mutations
from repro.bugs.injector import BugInjector, InjectionConfig
from repro.bugs.taxonomy import classify_direct

__all__ = [
    "BugInstance",
    "MutationCandidate",
    "enumerate_mutations",
    "BugInjector",
    "InjectionConfig",
    "classify_direct",
]
