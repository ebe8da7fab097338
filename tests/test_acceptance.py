"""Acceptance gate: runs every top-level correctness criterion once and
reports one pass/fail line per criterion.

The underlying suite lives in quiverdt.acceptance; this module executes it a
single time (shared across the parametrized tests) so the whole gate stays
well under the two-minute budget, then asserts each criterion individually so
`pytest -v` shows ten separate verdict lines.
"""

import os
import subprocess
import sys

import pytest

import quiverdt
from quiverdt.acceptance import CRITERIA, run_all

_RESULTS = None


def _results():
    global _RESULTS
    if _RESULTS is None:
        workers = int(os.environ.get("QDT_WORKERS", "0")) or (os.cpu_count() or 1)
        _RESULTS = run_all(workers=workers)
    return _RESULTS


@pytest.mark.parametrize("number", [n for n, _, _ in CRITERIA])
def test_criterion(number, capsys):
    result = next(r for r in _results() if r.number == number)
    with capsys.disabled():
        print(result.line())
    assert result.passed, result.line()


def test_all_ten_reported():
    results = _results()
    assert [r.number for r in results] == list(range(1, 11))


def test_determinism_criterion_with_package_on_sys_path_only(tmp_path):
    # The package is importable only through sys.path, as when a script
    # inserts the source directory; the criterion's CLI children must still
    # find it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(quiverdt.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "from quiverdt.acceptance import _criterion_determinism; "
        "ok, detail = _criterion_determinism(1); print(detail); sys.exit(0 if ok else 1)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
