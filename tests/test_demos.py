"""Every demo script must run clean; they double as living documentation."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script", sorted(DEMO_DIR.glob("*.py")), ids=lambda p: p.name
)
def test_demo_runs_clean(script):
    # the run's own -W options and -X dev: a warnings-as-errors run covers the demos too
    flags = [f"-W{option}" for option in sys.warnoptions] + ["-X", "dev"] * sys.flags.dev_mode
    result = subprocess.run(
        [sys.executable, *flags, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), "demos should narrate what they do"
