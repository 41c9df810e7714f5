"""Record the reference values of the shipped configs into reference.json.

Run from the repository root, at the commit whose artifacts are the accepted
reference:

    python3 perfbench/record_reference.py

The benchmark's jobs that run a shipped config compare their artifacts
against these values with the tolerances in verify.py.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CURVE_STEP = 16


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from qrotor import cli
    from workloads import SHIPPED

    ref = {}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for command, name in SHIPPED.items():
            out = Path(tmp) / f"{command}.{'json' if command in ('budget', 'tilt') else 'csv'}"
            cli.cli.main([command, "--config", str(root / "configs" / name), "--out", str(out)],
                         standalone_mode=False)
            text = out.read_text(encoding="utf-8")
            if command == "spectrum":
                rows = [line.split(",") for line in text.splitlines()[1:]]
                ref[name] = {"qn": [[int(r[0]), int(r[1]), int(r[2])] for r in rows],
                             "energy_J": [float(r[3]) for r in rows]}
            elif command == "lineshape":
                fit = json.loads(Path(str(out) + ".fit.json").read_text(encoding="utf-8"))
                probs = [float(line.split(",")[1]) for line in text.splitlines()[1:]]
                ref[name] = {
                    "fit": {"amplitude_A": fit["amplitude_A"], "delta_0": fit["delta_0"],
                            "Omega_R_eff": fit["Omega_R_eff"], "scale_s": fit["scale_s"],
                            "P_max": fit["peak"]["P_max"],
                            "delta_max": fit["peak"]["delta_max"],
                            "calibration_on_target": fit["calibration_on_target"]},
                    "curve_step": CURVE_STEP,
                    "curve": probs[::CURVE_STEP],
                }
            elif command == "rotation-scan":
                ref[name] = {"frequency": [float(line.split(",")[3])
                                           for line in text.splitlines()[1:]]}
            else:
                ref[name] = {k: v for k, v in json.loads(text).items()
                             if isinstance(v, float)}
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
