"""The traced benchmark run still works end to end on this transport."""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_worker_reports_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"),
         "--workload", "steady-4", "--seed", "1", "--mode", "traced"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["problems"] == []
    assert set(tracing.LAYER_UNITS) <= set(result["layers"])
