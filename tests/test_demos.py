import contextlib
import hashlib
import io
import runpy
import warnings
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

#: sha256 of each demo's stdout, recorded before the denoiser took only
#: ``Rows``; a refactor that keeps behaviour keeps these bytes
STDOUT_SHA256 = {
    "01_decoding.py": "0ad8a2b4d7db836515a9a0edfe7ffe9a5ce5f1453cb5f3b8fdde14e7d408f9cb",
    "02_objective_geometry.py": "949d5d5f5a9ebc225b04bcf593a4ef47ecc61cca55079d3c30971223a3e6c8b6",
    "03_oracles.py": "d02b9593c69e54bc3c84198f2fd9d86395ded96efa33cead414b809be2610dc5",
    "04_train_arith.py": "44736167186f688fde161e1424a275b76075936851c6e1d3744f7de193a09835",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_is_unchanged(name, tmp_path, monkeypatch):
    # in-process, as `python -W error demos/<name>` from an empty directory
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == STDOUT_SHA256[name]
