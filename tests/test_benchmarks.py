"""`benchmarks/bench_pipeline.py` refuses a `--root` that is not a checkout
before any work: exit 2, naming the path, and no row written."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "benchmarks" / "bench_pipeline.py"
BENCH_FILES = [ROOT / "BENCH_pipeline.json", ROOT / "BENCH_field.json"]


@pytest.mark.parametrize("make", [lambda t: t / "nonexistent" / "path", lambda t: t], ids=["missing", "empty"])
def test_root_that_is_not_a_checkout_exits_2_naming_it(tmp_path, make):
    root = make(tmp_path)
    before = [path.read_bytes() for path in BENCH_FILES]
    proc = subprocess.run([sys.executable, str(SCRIPT), "--label", "check", "--root", str(root)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == (
        f"bench_pipeline.py: error: --root {root} is not a qsdesign checkout: it has no src/qsdesign")
    assert [path.read_bytes() for path in BENCH_FILES] == before
