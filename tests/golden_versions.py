"""The golden digests of the cases that print no curve, on any interpreter.

Only the curve commands load numpy; every other golden case of
tests/golden_cases.py needs the standard library alone, so its bytes can be
checked under each interpreter polbec supports, with or without numpy:

    python tests/golden_versions.py

runs each of those cases with numpy made unimportable, and exits 1 at the
first whose exit code or output digest is not the recorded one, which it
prints.  tests/test_golden_bytes.py runs it too.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from golden_cases import CASES, CURVE_CASES, DIGESTS, run  # noqa: E402

NUMPY_FREE = sorted(set(CASES) - set(CURVE_CASES))


def main() -> int:
    sys.modules["numpy"] = None  # an import of numpy raises ImportError
    with tempfile.TemporaryDirectory() as tmp:
        for name in NUMPY_FREE:
            (Path(tmp) / name).mkdir()
            code, data = run(Path(tmp) / name, *CASES[name])
            got = (code, hashlib.sha256(data).hexdigest())
            if got != DIGESTS[name]:
                print(f"{name}: exit {got[0]}, sha256 {got[1]}; recorded exit "
                      f"{DIGESTS[name][0]}, sha256 {DIGESTS[name][1]}")
                return 1
    print(f"{len(NUMPY_FREE)} golden digests hold under Python {sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
