#!/usr/bin/env python3
"""Generate docs/API.md — a one-line-per-symbol public API index.

Walks every ``repro`` subpackage, lists the ``__all__`` exports with the
first line of their docstring, grouped by module.  Regenerate after any
public-surface change::

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from pathlib import Path


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    line = doc.splitlines()[0] if doc else ""
    return line.rstrip(".")


def kind_of(obj) -> str:
    if inspect.isclass(obj):
        return "class"
    if inspect.isfunction(obj):
        return "func"
    return "data"


def cli_section() -> list[str]:
    """The `repro-car` subcommand tables, generated from the argparse tree.

    One subparser per :data:`repro.cli.COMMANDS` entry, so these
    tables, ``--help`` and the accepted subcommand / flag pairs can
    never disagree; a drift between registry and parser fails here.
    """
    from repro.cli import SUBCOMMANDS, build_parser

    subparsers = next(
        a for a in build_parser()._actions if a.dest == "experiment"
    )
    assert list(subparsers.choices) == list(SUBCOMMANDS), (
        "the subparsers and the SUBCOMMANDS registry diverged"
    )
    lines = [
        "## Command line (`repro-car`)",
        "",
        "`repro-car <subcommand> [path] [flags]`: each subcommand is its",
        "own parser and takes only the flags its handler reads.",
        "Generated from the argparse tree — the same registry drives",
        "`--help`; see [SERVICE.md](SERVICE.md) for the service",
        "subcommands' walkthrough.",
        "",
        "| subcommand | description |",
        "|---|---|",
    ]
    lines += [
        f"| `{name}` | {desc} |" for name, desc in SUBCOMMANDS.items()
    ]
    for name, sub in subparsers.choices.items():
        positionals = [a for a in sub._actions if not a.option_strings]
        usage = " ".join([name] + [f"<{a.dest}>" for a in positionals])
        lines += ["", f"### `repro-car {usage}`", ""]
        lines += [f"`{a.dest}`: {a.help}.\n" for a in positionals]
        flags = [
            a for a in sub._actions
            if a.option_strings and a.dest != "help"
        ]
        if not flags:
            lines.append("No flags.")
            continue
        lines += ["| flag | description |", "|---|---|"]
        for action in flags:
            flag = ", ".join(f"`{s}`" for s in action.option_strings)
            help_text = " ".join((action.help or "").split())
            lines.append(f"| {flag} | {help_text} |")
    lines.append("")
    return lines


API_MD = Path(__file__).parent.parent / "docs" / "API.md"


def render() -> str:
    """The text of docs/API.md for the importable ``repro`` (writes nothing)."""
    import repro

    lines = [
        "# repro — public API index",
        "",
        "Generated by `tools/gen_api_docs.py`; regenerate after public-API",
        "changes.  One line per exported symbol, grouped by module.",
        "",
        "Narrative guides: [FAULTS.md](FAULTS.md) covers the fault-injection",
        "and degraded-mode recovery subsystem (`repro.faults`);",
        "[DURABILITY.md](DURABILITY.md) covers the write-ahead recovery",
        "journal, crash-resumable sessions, and end-to-end integrity",
        "(`repro.durable`);",
        "[PERFORMANCE.md](PERFORMANCE.md) covers the batched GF kernels,",
        "cache bounds, the windowed repair pipeline (lazy plans,",
        "batched dispatch), and why the sweeps run in one process;",
        "[OBSERVABILITY.md](OBSERVABILITY.md) covers the telemetry layer",
        "(`repro.obs`) — span tracing, the metrics registry, and the",
        "JSONL trace schema;",
        "[STRATEGIES.md](STRATEGIES.md) covers the recovery-strategy",
        "interface and the regenerating-code strategies",
        "(`repro.recovery.regenerating`);",
        "[SERVICE.md](SERVICE.md) covers the live cluster service layer",
        "(`repro.service`) — wire protocol, failure detection, admission",
        "control, and the crash-resume recipe.",
        "",
    ]
    lines += cli_section()
    modules = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        modules.append(info.name)
    for name in sorted(set(modules)):
        mod = importlib.import_module(name)
        exports = [e for e in getattr(mod, "__all__", []) if e != "__version__"]
        if not exports:
            continue
        lines.append(f"## `{name}`")
        if mod.__doc__:
            lines.append("")
            lines.append(mod.__doc__.strip().splitlines()[0])
        lines.append("")
        for export in exports:
            obj = getattr(mod, export, None)
            if obj is None:
                continue
            summary = first_line(obj)
            lines.append(f"- **{export}** ({kind_of(obj)}) — {summary}")
        lines.append("")
    return "\n".join(lines) + "\n"


def main() -> None:
    text = render()
    API_MD.write_text(text)
    print(f"wrote {API_MD} ({len(text.splitlines())} lines)")


if __name__ == "__main__":
    main()
