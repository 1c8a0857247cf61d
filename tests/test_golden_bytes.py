"""Golden-bytes gate for the CLI.

Every case of tests/golden_cases.py runs ``main`` in-process, and its exit
code and the sha256 of its output bytes must be the recorded ones.  Error
cases pin the exact stderr line instead.  All cases run with RuntimeWarning
raised as an error, so no evaluation path may overflow or divide 0/0 inside
numpy on these inputs.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden_cases import CASES, CURVE_CASES, DIGESTS, ERRORS, run


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_recorded_digest(tmp_path, name):
    code, data = run(tmp_path, *CASES[name])
    assert (code, hashlib.sha256(data).hexdigest()) == DIGESTS[name]


# run in a child process: each curve case's exit code and digest, as JSON,
# and whether numpy runs with any of its dispatch targets on
_CHILD = """
import hashlib, json, sys, tempfile
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
import golden_cases as golden
digests = {}
with tempfile.TemporaryDirectory() as tmp:
    for name in golden.CURVE_CASES:
        (Path(tmp) / name).mkdir()
        code, data = golden.run(Path(tmp) / name, *golden.CASES[name])
        digests[name] = [code, hashlib.sha256(data).hexdigest()]
print(json.dumps([any(__cpu_features__[t] for t in __cpu_dispatch__), digests]))
"""


def test_curve_digests_hold_on_numpy_baseline_kernels():
    # numpy picks its SIMD kernels by CPU, and np.hypot and np.log10 give
    # other bits on other kernels; with every dispatch target turned off,
    # the curve bytes must still be the recorded ones
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(umath.__cpu_dispatch__),
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    result = subprocess.run([sys.executable, "-c", _CHILD], capture_output=True, text=True,
                            env=env, check=True, timeout=300)
    dispatched, digests = json.loads(result.stdout)
    assert not dispatched
    assert {name: tuple(pair) for name, pair in digests.items()} == {
        name: DIGESTS[name] for name in CURVE_CASES}


def test_numpy_free_digests_hold_without_numpy():
    # tests/golden_versions.py, the cross-interpreter check, in a child of
    # this interpreter; it runs every case but the curves with numpy blocked
    script = Path(__file__).resolve().with_name("golden_versions.py")
    result = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                            timeout=300)
    assert (result.returncode, result.stdout) == (0, (
        f"{len(CASES) - len(CURVE_CASES)} golden digests hold under Python "
        f"{sys.version.split()[0]}\n"))


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_sweep_error_parity(tmp_path, capsys, name):
    config, argv, err = ERRORS[name]
    code, data = run(tmp_path, config, argv.split())
    assert code == 1
    assert data == b""
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("name", ["dispersion-samples-2^60", "hopfield-delta-over-g-overflows",
                                  "dispersion-g-through-0"])
def test_failing_curve_creates_no_file(tmp_path, name):
    # every error comes before the output file is opened, so none is left behind,
    # not even an empty one
    config, argv, _ = ERRORS[name]
    assert run(tmp_path, config, argv.split())[0] == 1
    assert not (tmp_path / "out").exists()


def test_wide_beam_trap_warns_on_stderr(tmp_path, capsys):
    # the design is still written, with exit 0 (its bytes are pinned as trap-wide-beam)
    code, data = run(tmp_path, *CASES["trap-wide-beam"])
    assert code == 0 and data
    assert capsys.readouterr().err == (
        "warning: beam diameter exceeds the harmonic region of the lens profile\n")
