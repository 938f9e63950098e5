#!/usr/bin/env python3
"""Check that every run under a directory regenerates from its manifest.

Usage: python scripts/replay_manifests.py DIR

Each DIR/*/manifest.json is passed back to the CLI with --config, into a
temporary directory.  Every output artifact whose bytes differ from the
file beside the manifest is printed; the manifests themselves are not
compared, since a retired key drops out of the regenerated one.  Beside a
differing CSV stand the largest relative and the largest absolute
difference of its numeric cells and whether any text cell differs, and
beside a differing JSON file the same for its numeric and other leaves,
which tells rounding (another CPU's SIMD paths, say) from a changed
result.  The exit code is
1 if any artifact differs or a run fails, 0 if all match.  A manifest
whose recorded versions (axionkit, numpy, numpy's SIMD dispatch, python,
scipy) differ from the replaying interpreter's gets one note on stderr
naming them, since byte identity depends on them; the note alone changes
neither stdout nor the exit code.
"""

import contextlib
import io
import itertools
import json
import pathlib
import sys
import tempfile

from axionkit.cli import main


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _json_number(leaf) -> float | None:
    return float(leaf) if isinstance(leaf, int | float) and not isinstance(leaf, bool) else None


def _leaves(value, path=()):
    """(path, leaf) for every leaf of a parsed JSON value, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, (*path, index))
    else:
        yield path, value


def _measure(pairs, number, unit: str, other: str) -> str:
    """The largest relative and the largest absolute difference of the
    pairs that both read as numbers, and whether any other pair differs.
    The absolute one tells rounding near a zero crossing, where the
    relative one is large, from a changed result."""
    worst, worst_abs, text = 0.0, 0.0, False
    for a, b in pairs:
        if a == b:
            continue
        x, y = number(a), number(b)
        if x is None or y is None:
            text = True
        elif x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
            worst_abs = max(worst_abs, abs(x - y))
    return (
        f"largest relative difference of numeric {unit} {worst:.3g}, "
        f"largest absolute {worst_abs:.3g}, {other} {'differ' if text else 'identical'}"
    )


def describe(old: pathlib.Path, new: pathlib.Path) -> str:
    """How the artifact old differs from its regeneration new.  For a CSV
    of the same shape, or a JSON file with the same keys and list
    lengths: the largest relative and absolute difference of the cells or
    leaves that both read as numbers, and whether any other cell or leaf
    differs."""
    if not new.is_file():
        return "not regenerated"
    if not old.is_file():
        return "not in the recorded run"
    if old.suffix == ".json":
        try:
            trees = [list(_leaves(json.loads(path.read_text()))) for path in (old, new)]
        except ValueError:
            return "bytes differ, not both valid JSON"
        if [path for path, _ in trees[0]] != [path for path, _ in trees[1]]:
            return "keys or list lengths differ"
        pairs = ((a, b) for (_, a), (_, b) in zip(*trees))
        return _measure(pairs, _json_number, "leaves", "other leaves")
    if old.suffix != ".csv":
        return "bytes differ"
    rows = [[line.split(",") for line in path.read_text().splitlines()] for path in (old, new)]
    if len(rows[0]) != len(rows[1]):
        return f"{len(rows[0]):,} rows, regenerated {len(rows[1]):,}"
    if [len(row) for row in rows[0]] != [len(row) for row in rows[1]]:
        return "cells per row differ"
    pairs = zip(itertools.chain(*rows[0]), itertools.chain(*rows[1]))
    return _measure(pairs, _number, "cells", "text cells")


def replay(root) -> list[str]:
    """The artifacts under root that do not regenerate byte for byte, one
    line each with how they differ (describe), and the runs that exit
    non-zero.  Version differences are noted on stderr."""
    mismatches = []
    with tempfile.TemporaryDirectory() as scratch:
        for manifest in sorted(pathlib.Path(root).glob("*/manifest.json")):
            record = json.loads(manifest.read_text())
            out = pathlib.Path(scratch) / manifest.parent.name
            argv = [record["subcommand"], "--config", str(manifest), "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != 0:
                mismatches.append(f"{manifest}: exit code {code}")
                continue
            recorded = record.get("versions", {})
            now = json.loads((out / "manifest.json").read_text())["versions"]
            changed = [f"{key} {recorded.get(key)} -> {now[key]}" for key in now
                       if recorded.get(key) != now[key]]
            if changed:
                print(f"{manifest}: replayed under other versions: {', '.join(changed)}",
                      file=sys.stderr)
            names = {*record["outputs"], *(p.name for p in out.iterdir())} - {"manifest.json"}
            for name in sorted(names):
                old, new = manifest.parent / name, out / name
                if not (old.is_file() and new.is_file() and old.read_bytes() == new.read_bytes()):
                    mismatches.append(f"{old}: {describe(old, new)}")
    return mismatches


def run(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    root = pathlib.Path(argv[0])
    if not any(root.glob("*/manifest.json")):
        print(f"no manifests under {root}/*/manifest.json", file=sys.stderr)
        return 2
    mismatches = replay(root)
    for line in mismatches:
        print(line)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
