"""What a fresh interpreter loads: the codec and numpy come in at first use.

The pytest process already holds numpy and built GF(256) tables, so each
check runs its own interpreter through `subprocess`.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oppbak
from oppbak.dispersal import gf_inv, gf_pow, reconstruct, split

SRC = str(Path(oppbak.__file__).resolve().parent.parent)

SIZE_ONLY = {
    "seed": 5,
    "horizon_s": 3600.0,
    "payload_mode": False,
    "terminals": {"count": 6, "producers": 2, "quota_bytes": 100_000},
    "workload": {"items_per_hour": 6.0, "n": 3, "k": 2},
    "mobility": {"encounter_rate_per_hour": 40.0},
    "infrastructure": {"window_rate_per_hour": 0.5},
    "failures": {"rate_per_hour": 0.5},
}

# busy enough that restores find versions on peers only, so the engine rebuilds them
PAYLOAD = {
    "seed": 10,
    "horizon_s": 7200.0,
    "payload_mode": True,
    "terminals": {"count": 10, "producers": 4, "quota_bytes": 200_000,
                  "base_reliability": 0.85},
    "workload": {"items_per_hour": 8.0, "size_min_bytes": 300, "size_max_bytes": 6000,
                 "n": 4, "k": 2, "update_fraction": 0.2, "chain_fraction": 0.2},
    "mobility": {"encounter_rate_per_hour": 60.0, "contact_duration_mean_s": 20.0,
                 "bandwidth_bytes_per_s": 20_000.0},
    "infrastructure": {"window_rate_per_hour": 0.1, "window_duration_mean_s": 30.0,
                       "bandwidth_bytes_per_s": 200_000.0},
    "failures": {"rate_per_hour": 0.3, "targets": "producers"},
}


def _fresh(script: str, *args: str) -> str:
    """Run `script` in a new interpreter that imports oppbak from this tree."""
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


SIZE_ONLY_THEN_PAYLOAD = """
import json, sys
import oppbak
from oppbak import cli, sim
size_only, payload, out = sys.argv[1:]
assert "numpy" not in sys.modules, "import oppbak"
for argv in (
    ["run", "--scenario", size_only, "--format", "json", "--output", out],
    ["batch", "--scenario", size_only, "--replications", "2", "--output", out],
    ["estimate", "--k", "2", "--probs", "0.9", "0.8", "0.7"],
):
    assert cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv[0]
rebuilt = []
real = sim.reconstruct
sim.reconstruct = lambda fragments: rebuilt.append(1) or real(fragments)
assert cli.main(["run", "--scenario", payload, "--format", "json", "--output", out]) == 0
assert "numpy" in sys.modules
print(json.dumps({"rebuilt": len(rebuilt), "report": json.load(open(out))}))
"""


def test_every_export_resolves_once():
    """`__all__` names each public object once, and nothing that is gone."""
    assert len(oppbak.__all__) == len(set(oppbak.__all__))
    missing = [name for name in oppbak.__all__ if not hasattr(oppbak, name)]
    assert missing == []


def test_size_only_runs_never_import_numpy(tmp_path):
    paths = []
    for name, scenario in (("size_only", SIZE_ONLY), ("payload", PAYLOAD)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(scenario))
        paths.append(str(path))
    stdout = _fresh(SIZE_ONLY_THEN_PAYLOAD, *paths, str(tmp_path / "out.json"))
    result = json.loads(stdout.splitlines()[-1])  # after the estimate's own line
    # `_restorable` compares every rebuild with the original and raises on a
    # mismatch, so a finished run with rebuilds passed the check
    assert result["rebuilt"] > 0
    assert "recoverable_from_peers" in result["report"]["outcomes"].values()


BYTES = bytes(range(256)) * 3 + b"cold start"
# parity only, so every data chunk is decoded; the script below gets their repr
PARITY = split(BYTES, 8, 3, item_id="cold", version=2).fragments[3:6]

FIRST_CALLS = {
    "gf_inv": "[gf_inv(a) for a in range(1, 256)]",
    "gf_pow": "[gf_pow(a, e) for a in range(256) for e in (0, 1, 2, 7, 254, 300)]",
    "reconstruct": "reconstruct(PARITY)",
    "split_fragment": "split(BYTES, 8, 3, item_id='cold', version=2).fragment(3).payload",
}


@pytest.mark.parametrize("expression", FIRST_CALLS.values(), ids=FIRST_CALLS.keys())
def test_each_codec_entry_can_be_the_first_call(expression):
    script = f"""
from oppbak import dispersal
from oppbak.dispersal import gf_inv, gf_pow, reconstruct, split
from oppbak.model import Fragment
BYTES, PARITY = {BYTES!r}, {PARITY!r}
assert dispersal._tables.cache_info().currsize == 0, "tables built before the first call"
print(repr({expression}))
"""
    assert ast.literal_eval(_fresh(script)) == eval(expression)
