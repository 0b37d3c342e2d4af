#!/usr/bin/env python3
"""Compare the canonical outputs of a git revision with those of the work tree.

Usage: python scripts/compare_ref.py REF [--large]

It unpacks ``git archive REF`` into a temporary directory, runs
``scripts/canonical_outputs.py`` there and in the work tree (each with
``OPENBLAS_NUM_THREADS=1`` and its own ``src``), runs ``--compare`` on the two
output directories, and prints how many files ``diff -r`` finds different.
``--large`` is passed on to both runs.  The exit status is that of
``--compare``, or 1 when the file count is not zero.  It needs no network
and creates no git worktree; the temporary directory is removed at the end.
"""

import argparse
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _outputs(checkout: Path, outdir: Path, large: bool) -> None:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    cmd = [sys.executable, str(checkout / "scripts" / "canonical_outputs.py"), str(outdir)]
    if large:
        cmd.append("--large")
    subprocess.run(cmd, cwd=checkout, env=env, check=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("ref", help="git revision to compare against")
    ap.add_argument("--large", action="store_true", help="also write instance a")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="compare_ref_") as tmp:
        tmp = Path(tmp)
        ref_tree = tmp / "ref"
        ref_tree.mkdir()
        archive = subprocess.run(["git", "archive", "--format=tar", args.ref], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        tar_path = tmp / "ref.tar"
        tar_path.write_bytes(archive)
        with tarfile.open(tar_path) as tar:
            tar.extractall(ref_tree, filter="data")
        old, new = tmp / "out_ref", tmp / "out_work"
        _outputs(ref_tree, old, args.large)
        _outputs(ROOT, new, args.large)
        status = subprocess.run([sys.executable, str(ROOT / "scripts" / "canonical_outputs.py"),
                                 "--compare", str(old), str(new)]).returncode
        diff = subprocess.run(["diff", "-rq", str(old), str(new)],
                              capture_output=True, text=True).stdout
        changed = sum(1 for line in diff.splitlines() if line.strip())
        print(f"diff -r: {changed} files differ")
        return status or int(changed != 0)


if __name__ == "__main__":
    sys.exit(main())
