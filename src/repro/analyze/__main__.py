"""``python -m repro.analyze`` -- per-design lint + cone report.

Usage::

    python -m repro.analyze design.v [more.v ...] [--passes id,id] [--lint-only]
    python -m repro.analyze --list-passes

For each file the report shows every diagnostic the selected passes emit
(grouped by pass id), the fan-in cone of every assertion, and any static
combinational loops.  Exit status is 1 when any error-severity diagnostic
fired, so the command slots into shell pipelines as a lint gate.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analyze.dfg import SignalDfg
from repro.analyze.passes import get_pass, registered_passes, run_passes
from repro.hdl.errors import Severity
from repro.hdl.lint import compile_source
from repro.runtime.cache import content_key


def _report(path: Path, pass_ids: Optional[list[str]], lint_only: bool) -> tuple[str, bool]:
    """Render the report for one file; returns (text, had_errors)."""
    lines: list[str] = []
    text = path.read_text()
    result = compile_source(text)
    if result.design is None:
        lines.append(f"{path}: compilation failed")
        lines.extend(f"  {diag.render()}" for diag in result.diagnostics)
        return "\n".join(lines) + "\n", True

    design = result.design
    dfg = SignalDfg(design)
    if pass_ids is not None:
        passes = [get_pass(pass_id) for pass_id in pass_ids]
    elif lint_only:
        passes = [p for p in registered_passes() if p.lint]
    else:
        passes = list(registered_passes())
    sink = run_passes(design, passes=passes, dfg=dfg)

    lines.append(f"{path}: module {design.name}")
    lines.append(f"  source: {content_key(text)[:16]}")
    lines.append(
        f"  {len(design.signals)} signals · {len(dfg.nodes)} driver nodes"
        f" · {len(design.assertions)} assertions"
    )

    lines.append(f"  diagnostics ({len(sink.diagnostics)}):")
    if sink.diagnostics:
        lines.extend(f"    {diag.render()}" for diag in sink.diagnostics)
    else:
        lines.append("    none")

    lines.append("  assertion cones:")
    if design.assertions:
        for spec in design.assertions:
            cone = sorted(dfg.assertion_cone(spec))
            lines.append(
                f"    {spec.name}: {len(cone)} signals: " + ", ".join(cone)
            )
    else:
        lines.append("    no assertions")

    cycles = dfg.combinational_cycles()
    if cycles:
        lines.append("  combinational loops:")
        lines.extend(f"    {' -> '.join(cycle)}" for cycle in cycles)
    else:
        lines.append("  combinational loops: none")

    had_errors = any(diag.severity is Severity.ERROR for diag in sink.diagnostics)
    return "\n".join(lines) + "\n", had_errors


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="Static-analysis lint + assertion-cone report for Verilog designs.",
    )
    parser.add_argument("files", nargs="*", help="Verilog source files to analyse")
    parser.add_argument(
        "--passes",
        default=None,
        help="comma-separated pass ids to run (default: all registered)",
    )
    parser.add_argument(
        "--lint-only",
        action="store_true",
        help="run only the compile-gate lint passes",
    )
    parser.add_argument(
        "--list-passes",
        action="store_true",
        help="list registered passes and exit",
    )
    args = parser.parse_args(argv)

    if args.list_passes:
        for analysis_pass in registered_passes():
            tier = "lint" if analysis_pass.lint else "analysis"
            print(f"{analysis_pass.pass_id:<22} [{tier}]  {analysis_pass.description}")
        return 0

    if not args.files:
        parser.error("no input files (or use --list-passes)")

    pass_ids = args.passes.split(",") if args.passes else None
    status = 0
    for name in args.files:
        path = Path(name)
        if not path.exists():
            print(f"file not found: {path}", file=sys.stderr)
            status = 2
            continue
        text, had_errors = _report(path, pass_ids, args.lint_only)
        sys.stdout.write(text)
        if had_errors:
            status = max(status, 1)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
