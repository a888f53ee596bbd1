"""The bit-identity contract: both digest tools print their pinned bytes.

tools/run_digests.py prints a digest of every set-up and engine array
over a fixed matrix of runs, and tools/recipe_digests.py one of every
artifact of every shipped recipe. A change that moves one byte of either
output fails here. A change that moves them on purpose updates the pin
below and says which lines changed and why. The pins were read with
Python 3.11.7, numpy 2.4.6 and scipy 1.17.1; a library version that moves
bytes fails too, and is not to be skipped.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# tool: (sha256 of its standard output, its number of lines)
PINNED = {
    "run_digests": ("d24ab377f9442ac6fcfc8d744f9ca3665452e27d639fc38369353bf1fe814da3", 7666),
    "recipe_digests": ("9139a61db5dc974dad9149d8bca433e9dc7c2af44524a2e0bf32c41d78bca615", 120),
}


@pytest.mark.parametrize("tool", sorted(PINNED))
def test_digest_tool_prints_the_pinned_bytes(tool):
    script = f"tools/{tool}.py"
    proc = subprocess.run(
        [sys.executable, str(ROOT / script)], cwd=ROOT, capture_output=True, check=False
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-2000:]
    got = (hashlib.sha256(proc.stdout).hexdigest(), proc.stdout.count(b"\n"))
    assert got == PINNED[tool], (
        f"{script} printed {got[1]} lines with sha256 {got[0]}; the pin is "
        f"{PINNED[tool][1]} lines with sha256 {PINNED[tool][0]}. To see which "
        "lines moved, export the parent commit and diff the tool's output on both:\n"
        "  mkdir PARENT && git archive <parent commit> | tar -x -C PARENT\n"
        f"  diff <(python3 {script} --src PARENT/src) <(python3 {script})"
    )
