"""Content-addressed on-disk verdict cache.

Every verification verdict is a pure function of (buggy source, fix, stimulus
seeds, cycle budget, verifier version), so verdicts are stored under the
SHA-256 of exactly those inputs: re-running an evaluation only simulates what
changed, and concurrent worker processes share one cache directory safely.

The storage itself is :class:`repro.runtime.cache.ResultCache`; this module
only contributes the verdict-specific key recipe and payload check.
"""

from __future__ import annotations

from typing import Sequence

from repro.runtime.cache import ResultCache, content_key


def verdict_key(
    patched_source: str,
    seeds: Sequence[int],
    cycles: int,
    version: str,
) -> str:
    """The content address of one verification verdict.

    Keyed on the *patched* source rather than (buggy source, fix): the
    patched text is what actually gets compiled and simulated, so two fixes
    that resolve to different patch sites can never alias, and two fixes
    that produce identical text share one verdict by construction.
    """
    return content_key(
        version,
        patched_source,
        ",".join(str(seed) for seed in seeds),
        str(cycles),
    )


#: The statuses :meth:`repro.eval.verifier.SemanticVerifier.verify_source`
#: returns -- the only verdicts ever cached.
CACHED_STATUSES = frozenset({"pass", "compile_fail", "sim_error", "assertion_fail"})


class VerdictCache(ResultCache):
    """A directory of ``<key-prefix>/<key>.json`` verdict files.

    An entry whose ``status`` is not one of :data:`CACHED_STATUSES` is a
    corrupt miss: the verifier re-verifies and overwrites it.
    """

    def well_formed(self, payload: dict) -> bool:
        return payload.get("status") in CACHED_STATUSES
