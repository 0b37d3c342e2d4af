#!/usr/bin/env python3
"""Compare the canonical outputs of a git revision with those of the work tree.

Usage: python scripts/compare_ref.py REF [--large] [--xl]

It unpacks ``git archive REF`` into a temporary directory, runs
``scripts/canonical_outputs.py`` there and in the work tree (each with
``OPENBLAS_NUM_THREADS=1`` and its own ``src``), runs ``--compare`` on the two
output directories, and prints how many files ``diff -r`` finds different.
Then it parses and verifies, with the work tree's ``src``, every instance
file that REF wrote, so that files written by an older build are checked to
stay readable.  ``--large`` and ``--xl`` are passed on to both runs.  The exit status is 0
when ``--compare`` passes and every such file parses and verifies, else 1.
A nonzero ``diff -r`` count alone (floats re-expressed or moved by
roundoff) does not fail.  It needs no network and creates no git worktree;
the temporary directory is removed at the end.
"""

import argparse
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ONE_THREAD = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _outputs(checkout: Path, outdir: Path, flags: list) -> None:
    cmd = [sys.executable, str(checkout / "scripts" / "canonical_outputs.py"), str(outdir)]
    subprocess.run(cmd + flags, cwd=checkout, env=ONE_THREAD, check=True)


# Run with the work tree's src: parse and verify every *.instance.json of a
# directory, print each failure, exit 1 if any.
_VERIFY_FILES = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from modfactor.errors import ModfactorError
from modfactor.harness import parse_instance, run_verification
files = sorted(Path(sys.argv[2]).glob("*.instance.json"))
failed = 0
for path in files:
    try:
        why = None if run_verification(parse_instance(str(path))).passed else "report failed"
    except ModfactorError as e:
        why = f"{type(e).__name__}: {e}"
    if why:
        failed += 1
        print(f"FAIL {path.name}: {why}")
print(f"instance files of the ref: {len(files)} parsed and verified, {failed} failed")
sys.exit(int(failed != 0))
"""


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("ref", help="git revision to compare against")
    ap.add_argument("--large", action="store_true", help="also write instance a")
    ap.add_argument("--xl", action="store_true", help="also write instance b")
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
        flags = [f for f, on in (("--large", args.large), ("--xl", args.xl)) if on]
        _outputs(ref_tree, old, flags)
        _outputs(ROOT, new, flags)
        status = subprocess.run([sys.executable, str(ROOT / "scripts" / "canonical_outputs.py"),
                                 "--compare", str(old), str(new)]).returncode
        diff = subprocess.run(["diff", "-rq", str(old), str(new)],
                              capture_output=True, text=True).stdout
        changed = sum(1 for line in diff.splitlines() if line.strip())
        print(f"diff -r: {changed} files differ")
        files = subprocess.run([sys.executable, "-c", _VERIFY_FILES, str(ROOT / "src"),
                                str(old)], env=ONE_THREAD).returncode
        return int(status != 0 or files != 0)


if __name__ == "__main__":
    sys.exit(main())
