#!/usr/bin/env python3
"""Check that every run under a directory regenerates from its manifest.

Usage: python scripts/replay_manifests.py DIR

Each DIR/*/manifest.json is passed back to the CLI with --config, into a
temporary directory.  Every output artifact whose bytes differ from the
file beside the manifest is printed; the manifests themselves are not
compared, since a retired key drops out of the regenerated one.  The
exit code is 1 if any artifact differs or a run fails, 0 if all match.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

from axionkit.cli import main


def replay(root) -> list[str]:
    """The artifacts under root (one line each) that do not regenerate
    byte for byte, and the runs that exit non-zero."""
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
            names = {*record["outputs"], *(p.name for p in out.iterdir())} - {"manifest.json"}
            for name in sorted(names):
                old, new = manifest.parent / name, out / name
                if not (old.is_file() and new.is_file() and old.read_bytes() == new.read_bytes()):
                    mismatches.append(str(old))
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
