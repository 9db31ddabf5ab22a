"""Gates on the repository itself: the source guards, the numpy floor and
demos 01-04.

They are the only home of these checks; the CI workflow runs them in its
tier-1 step.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DEMOS = ROOT / "demos"

# (pattern, the source files it must not match), one per guard.
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


# numpy functions added after 1.24 and the release that added each; every
# other numpy API src/ uses is in 1.24. pyproject.toml's floor is the newest
# of these that src/ calls: an older numpy would install the package and
# then fail at the first such call with AttributeError.
NUMPY_ADDED = {
    "bitwise_count": (2, 0),
    "vecdot": (2, 0),
    "astype": (2, 1),
    "unstack": (2, 1),
    "matvec": (2, 2),
    "vecmat": (2, 2),
}


def test_numpy_floor_is_the_release_with_every_function_src_calls():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (floor,) = re.findall(r'"numpy>=([0-9.]+)"', pyproject)
    floor = tuple(int(part) for part in floor.split("."))
    source = "\n".join(path.read_text(encoding="utf-8") for path in sorted(SRC.rglob("*.py")))
    called = [name for name in NUMPY_ADDED if re.search(rf"\bnp\.{name}\(", source)]
    assert "bitwise_count" in called  # sim._point_sums counts bit errors with it
    assert floor == max(NUMPY_ADDED[name] for name in called)
    assert tuple(int(part) for part in np.__version__.split(".")[:2]) >= floor


# Directories of git and of the interpreter's and the test tools' caches,
# which .gitignore lists and a demo run may fill.
UNLISTED_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"}


def checkout_listing():
    """Every file of the checkout, ignored ones included, with its sha256,
    outside ``UNLISTED_DIRS``."""
    listing = {}
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = [name for name in dirs if name not in UNLISTED_DIRS]
        for name in files:
            path = Path(top, name)
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            listing[path.relative_to(ROOT).as_posix()] = digest
    return listing


def test_demos_01_to_04_run_and_write_nothing():
    # Lemma 1, Corollary 1 and the complexity claims through the public
    # helpers, run in the checkout with CI's warning filter. They write
    # nothing anywhere in the checkout, not only under demos/.
    env = dict(os.environ)
    env.pop("DPC_PERM_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    demos = sorted(DEMOS.glob("0[1-4]_*.py"))
    assert [path.name[:2] for path in demos] == ["01", "02", "03", "04"]
    before = checkout_listing()
    for demo in demos:
        res = subprocess.run(
            [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT
        )
        assert res.returncode == 0, (demo.name, res.stderr)
    assert checkout_listing() == before
