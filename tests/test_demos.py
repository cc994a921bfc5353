import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout; the demos print no timestamps or paths
STDOUT_SHA256 = {
    "01_groups_from_permutations.py":
        "fe5c6090ebfa8128c506ba35f0d502d867e0b4cc3312d5d9be2801b8c97ba2f4",
    "02_forcing_certificates.py":
        "1479268eb8453e4b3b978966ed77874bd78aafbb767201bb296810a5a6dc548e",
    "03_saving_exponents.py":
        "51816eca6c5b7b92df5730136174b64651e674c538ddb588de005faca3d7f13f",
    "04_certificate_files.py":
        "1cbd58034b6e6664b42eaeec31177baa33a4c11efde3b8400c55e96f78d7c0be",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.name]
