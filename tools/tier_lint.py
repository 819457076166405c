#!/usr/bin/env python
"""Repo lint for the tier contract and span coverage.

Two rules, both enforced over the AST (no imports of the checked modules):

**Tier parity.**  Every ``Phys*`` operator class defined in
``src/repro/core/physical.py`` must, for each execution tier, either be
referenced by name in that tier's executor module (it has a handler) or
appear as an explicit key in that tier's row of ``OPERATOR_CAPABILITIES``
in ``src/repro/core/analysis/capabilities.py`` (its coverage is declared,
possibly as a conditional decline).  A new operator therefore cannot
silently fall through a tier to a raw "unhandled node" crash: the build
fails until its coverage is stated somewhere.  Stale capability keys that
no longer name an operator class are flagged too, and so is a tier with a
capability row but no executor module (or an executor module but no row).

**Span coverage.**  Every ``Phys*`` operator class must appear as a key in
exactly one of ``SPAN_INSTRUMENTED_OPERATORS`` / ``SPAN_EXEMPT_OPERATORS``
in ``src/repro/obs/instrument.py`` — the declared inventory of which
operators the tracing layer covers (and where), and which are deliberately
left dark (and why).  A new operator cannot silently execute untraced: the
build fails until its observability story is stated.  Stale names are
flagged too.

Lock discipline used to be rule three, limited to subscript inserts in the
plug-ins and the memory manager; it missed every non-subscript mutation form
(``setdefault`` / ``update`` / ``pop`` / attribute rebinds) and has been
superseded by the repo-wide dataflow pass in ``tools/concurrency_lint.py``,
which checks all mutation forms against the declaration tables in
``src/repro/core/concurrency.py`` and builds the static lock-order graph.

Run as ``python tools/tier_lint.py`` from the repo root; exits non-zero and
prints one line per violation.  The check functions take explicit paths so
the test suite can run them against seeded synthetic violations.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

#: Executor module (repo-relative) per capability-table tier key.
EXECUTOR_MODULES: dict[str, str] = {
    "TIER_CODEGEN": "src/repro/core/codegen/generator.py",
    "TIER_VECTORIZED": "src/repro/core/executor/vectorized.py",
    "TIER_VOLCANO": "src/repro/core/executor/volcano.py",
}

PHYSICAL_MODULE = "src/repro/core/physical.py"
CAPABILITIES_MODULE = "src/repro/core/analysis/capabilities.py"
INSTRUMENT_MODULE = "src/repro/obs/instrument.py"

#: Base classes that are abstractions, not dispatchable operators.
NON_OPERATORS = frozenset({"PhysicalPlan"})


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def collect_phys_operators(physical_path: Path) -> set[str]:
    """Names of every concrete physical-operator class."""
    tree = _parse(physical_path)
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and node.name.startswith("Phys")
        and node.name not in NON_OPERATORS
    }


def collect_referenced_names(module_path: Path) -> set[str]:
    """Every bare name and attribute name mentioned in a module."""
    names: set[str] = set()
    for node in ast.walk(_parse(module_path)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def collect_capability_entries(capabilities_path: Path) -> dict[str, set[str]]:
    """Operator-class keys per tier row of ``OPERATOR_CAPABILITIES``."""
    tree = _parse(capabilities_path)
    for node in ast.walk(tree):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == "OPERATOR_CAPABILITIES"
            for target in targets
        ):
            continue
        if not isinstance(value, ast.Dict):
            break
        entries: dict[str, set[str]] = {}
        for tier_key, row in zip(value.keys, value.values):
            if not isinstance(tier_key, ast.Name) or not isinstance(row, ast.Dict):
                continue
            entries[tier_key.id] = {
                key.id for key in row.keys if isinstance(key, ast.Name)
            }
        return entries
    raise SystemExit(
        f"tier_lint: no OPERATOR_CAPABILITIES dict literal in {capabilities_path}"
    )


def check_tier_parity(root: Path) -> list[str]:
    """Tier-parity violations (empty when the contract holds)."""
    operators = collect_phys_operators(root / PHYSICAL_MODULE)
    table = collect_capability_entries(root / CAPABILITIES_MODULE)
    violations: list[str] = []
    for tier in sorted(set(table) - set(EXECUTOR_MODULES)):
        violations.append(
            f"{CAPABILITIES_MODULE}: OPERATOR_CAPABILITIES has a {tier} row "
            "but EXECUTOR_MODULES maps no executor module to it"
        )
    for tier in sorted(set(EXECUTOR_MODULES) - set(table)):
        violations.append(
            f"{CAPABILITIES_MODULE}: OPERATOR_CAPABILITIES has no {tier} row "
            f"for the executor module {EXECUTOR_MODULES[tier]}"
        )
    for tier, module in sorted(EXECUTOR_MODULES.items()):
        handled = collect_referenced_names(root / module)
        declared = table.get(tier, set())
        for operator in sorted(operators):
            if operator not in handled and operator not in declared:
                violations.append(
                    f"{module}: operator {operator} has no handler and no "
                    f"{tier} entry in OPERATOR_CAPABILITIES"
                )
        for stale in sorted(declared - operators):
            violations.append(
                f"{CAPABILITIES_MODULE}: {tier} row names {stale}, which is "
                "not a physical operator class"
            )
    return violations


def collect_string_keyed_dict(module_path: Path, name: str) -> set[str]:
    """String keys of a module-level dict literal assigned to ``name``."""
    tree = _parse(module_path)
    for node in ast.walk(tree):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == name
            for target in targets
        ):
            continue
        if not isinstance(value, ast.Dict):
            break
        return {
            key.value
            for key in value.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        }
    raise SystemExit(f"tier_lint: no {name} dict literal in {module_path}")


def check_span_coverage(root: Path) -> list[str]:
    """Span-coverage violations (empty when every operator is declared)."""
    operators = collect_phys_operators(root / PHYSICAL_MODULE)
    instrument = root / INSTRUMENT_MODULE
    instrumented = collect_string_keyed_dict(
        instrument, "SPAN_INSTRUMENTED_OPERATORS"
    )
    exempt = collect_string_keyed_dict(instrument, "SPAN_EXEMPT_OPERATORS")
    violations: list[str] = []
    for operator in sorted(operators - instrumented - exempt):
        violations.append(
            f"{INSTRUMENT_MODULE}: operator {operator} is neither "
            "span-instrumented nor declared exempt"
        )
    for operator in sorted(instrumented & exempt):
        violations.append(
            f"{INSTRUMENT_MODULE}: operator {operator} is declared both "
            "instrumented and exempt"
        )
    for stale in sorted((instrumented | exempt) - operators):
        violations.append(
            f"{INSTRUMENT_MODULE}: {stale} is not a physical operator class"
        )
    return violations


def run(root: Path) -> list[str]:
    """All violations for a repo rooted at ``root``."""
    violations = check_tier_parity(root)
    violations.extend(check_span_coverage(root))
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=Path(__file__).resolve().parent.parent,
        type=Path,
        help="repository root (defaults to the checkout containing this file)",
    )
    options = parser.parse_args(argv)
    violations = run(options.root)
    for violation in violations:
        print(violation)
    if violations:
        print(f"tier_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("tier_lint: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
