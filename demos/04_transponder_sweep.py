"""Re-optimize the six-node network under growing transponder prices.

Drives the `wdmplan run` CLI in-process over the optimized architecture
alone: the scale factor multiplies every transponder-driven price while
router and optical gear stay fixed, showing how the optimal design shifts
when circuits dominate the bill. Results land in a temporary directory; the
script prints summary.csv.

    python3 demos/04_transponder_sweep.py
"""

import json
import tempfile
from pathlib import Path

from wdmplan.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]


def main():
    with tempfile.TemporaryDirectory() as tmp:
        config = {
            "instance": str(ROOT / "data" / "toy6.txt"),
            "matrix": {"name": "TOY"},
            "speeds": [[10, 100]],
            "architectures": ["optimized"],
            "transponder_scales": [1, 2, 5, 10],
            "solver": "heuristic",
            "out": str(Path(tmp) / "sweep"),
        }
        cfg_path = Path(tmp) / "sweep.json"
        cfg_path.write_text(json.dumps(config))
        rc = cli_main(["run", "--config", str(cfg_path)])
        if rc != 0:
            raise SystemExit(rc)
        print((Path(tmp) / "sweep" / "summary.csv").read_text())
        print("as transponders dominate the bill the optimum packs traffic")
        print("onto fewer, faster circuits (watch the lambda column).")


if __name__ == "__main__":
    main()
