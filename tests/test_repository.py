"""Gates on the repository itself: the source guards and demos 01-04.

The CI workflow runs the same checks as steps of their own ("Superseded
random-draw schemes ...", "Only linalg.py calls np.linalg.qr", "The sweep
draws its bits ...", "Demos 01-04 run" and "Demos 01-04 write nothing").
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DEMOS = ROOT / "demos"

# (pattern, the source files it must not match), one per CI guard.
SOURCE_GUARDS = (
    # Superseded random-draw schemes are described only in README, their
    # history's one home.
    (r"philox-ss-v[234]", lambda path: True),
    # Every LQ output (l, its diagonal, the reflectors, q) derives from the
    # R of one QR call site, and the pinned records rest on it.
    (r"linalg\.qr\(", lambda path: path.name != "linalg.py"),
    # sim._uint8_draws reads the bits and pilot labels from the Philox
    # words, pinned to numpy's integers by a property test; an integers
    # call in sim.py would be a second, unpinned route to the same draws.
    (re.escape(".integers("), lambda path: path.name == "sim.py"),
)


def test_source_guards_find_nothing():
    sources = sorted(SRC.rglob("*.py"))
    assert SRC / "dpc_perm" / "sim.py" in sources
    hits = [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for pattern, guarded in SOURCE_GUARDS
        for path in sources
        if guarded(path)
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(pattern, line)
    ]
    assert hits == []
    # The one QR call site the second guard exempts is still there.
    assert re.search(SOURCE_GUARDS[1][0], (SRC / "dpc_perm" / "linalg.py").read_text())


def demos_listing():
    """Every file under demos/, ignored ones included, with its sha256."""
    return {
        path.relative_to(DEMOS).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in DEMOS.rglob("*")
        if path.is_file()
    }


def test_demos_01_to_04_run_and_write_nothing():
    # Lemma 1, Corollary 1 and the complexity claims through the public
    # helpers, run in the checkout as CI runs them, with CI's warning filter.
    env = dict(os.environ)
    env.pop("DPC_PERM_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    demos = sorted(DEMOS.glob("0[1-4]_*.py"))
    assert [path.name[:2] for path in demos] == ["01", "02", "03", "04"]
    before = demos_listing()
    for demo in demos:
        res = subprocess.run(
            [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT
        )
        assert res.returncode == 0, (demo.name, res.stderr)
    assert demos_listing() == before
