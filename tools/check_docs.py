"""CI docs check: smoke-run every documented ``python -m repro`` command.

Extracts fenced code blocks from ``README.md`` and ``docs/*.md``, joins
backslash continuations, selects the ``python -m repro ...`` lines, and
runs each one with a timeout.  A command that exits non-zero fails the
check -- so a renamed flag, a deleted subcommand, or a stale example
spec breaks CI instead of silently rotting in the docs.

Lines containing obvious placeholders (ALL-CAPS metavariables like
``FILE``/``SPEC``/``CH=VALUE``, or the illustrative ``prog.ocl``) are
skipped: they document a shape, not a runnable invocation.  Extracting
*zero* runnable commands is itself a failure -- it means the selection
logic no longer matches the docs.

Usage::

    python tools/check_docs.py            # run everything
    python tools/check_docs.py --list     # just show what would run
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FENCE = re.compile(r"^```")
# A 2+ letter ALL-CAPS word is a placeholder metavariable (FILE, SPEC,
# CH=VALUE ...); single capitals and mixed case are real text.
PLACEHOLDER = re.compile(r"\b[A-Z][A-Z_]+\b")
TIMEOUT_SECONDS = 120


def doc_files() -> list[Path]:
    return [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))


def fenced_lines(text: str) -> list[str]:
    """Logical lines inside code fences, continuations joined."""
    lines: list[str] = []
    in_fence = False
    pending = ""
    for raw in text.splitlines():
        if FENCE.match(raw.strip()):
            in_fence = not in_fence
            pending = ""
            continue
        if not in_fence:
            continue
        # Strip trailing comments so `cmd   # note` runs clean.
        line = pending + raw.split("#", 1)[0].strip()
        if line.endswith("\\"):
            pending = line[:-1].rstrip() + " "
            continue
        pending = ""
        if line:
            lines.append(line)
    return lines


def extract_commands() -> list[tuple[Path, str]]:
    commands: list[tuple[Path, str]] = []
    for path in doc_files():
        for line in fenced_lines(path.read_text()):
            if not line.startswith("python -m repro"):
                continue
            if PLACEHOLDER.search(line) or "prog.ocl" in line:
                continue
            commands.append((path, line))
    return commands


def run_commands(commands: list[tuple[Path, str]]) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    failures = 0
    # Run from a scratch cwd (with `examples` reachable) so commands
    # that write output files cannot dirty the repo.
    with tempfile.TemporaryDirectory(prefix="repro-docs-") as scratch:
        cwd = Path(scratch)
        (cwd / "examples").symlink_to(REPO / "examples")
        for path, command in commands:
            rel = path.relative_to(REPO)
            started = time.perf_counter()
            try:
                proc = subprocess.run(
                    command,
                    shell=True,
                    cwd=cwd,
                    env=env,
                    capture_output=True,
                    text=True,
                    timeout=TIMEOUT_SECONDS,
                )
            except subprocess.TimeoutExpired:
                failures += 1
                print(f"FAIL [{rel}] (timeout {TIMEOUT_SECONDS}s): {command}")
                continue
            elapsed = time.perf_counter() - started
            if proc.returncode != 0:
                failures += 1
                print(f"FAIL [{rel}] (exit {proc.returncode}): {command}")
                tail = (proc.stderr or proc.stdout).strip().splitlines()
                for line in tail[-8:]:
                    print(f"    {line}")
            else:
                print(f"ok   [{rel}] ({elapsed:.1f}s): {command}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="smoke-run every documented `python -m repro` command"
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the extracted commands without running them",
    )
    args = parser.parse_args(argv)

    commands = extract_commands()
    if not commands:
        print("FAIL: no runnable `python -m repro` commands found in docs")
        return 1
    if args.list:
        for path, command in commands:
            print(f"[{path.relative_to(REPO)}] {command}")
        return 0
    failures = run_commands(commands)
    total = len(commands)
    if failures:
        print(f"{failures}/{total} documented command(s) failed")
        return 1
    print(f"all {total} documented command(s) ran clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
