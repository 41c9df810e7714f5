"""Self-check of the input generator (not part of the tier-1 tests).

    python3 perfbench/selfcheck.py [SEED ...]

For each workload and seed (default 1 2 3): generating twice gives
byte-identical inputs, the next seed gives different ones, and every
generated config is accepted by ``qrotor.config.parse_config``.  Exits 1 and
names the failures otherwise.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import workloads

SECONDS = 35


def main(argv) -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from qrotor.config import parse_config
    from qrotor.exceptions import QRotorError

    seeds = [int(s) for s in argv] or [1, 2, 3]
    problems, checked = [], 0
    for wl in workloads.WORKLOADS:
        for seed in seeds:
            first = workloads.render(workloads.generate(wl, seed, SECONDS, root / "configs"))
            again = workloads.render(workloads.generate(wl, seed, SECONDS, root / "configs"))
            other = workloads.render(workloads.generate(wl, seed + 1, SECONDS, root / "configs"))
            if first != again:
                problems.append(f"{wl} seed {seed}: two generations differ")
            if first == other:
                problems.append(f"{wl} seeds {seed} and {seed + 1} give identical inputs")
            with tempfile.TemporaryDirectory() as tmp:
                for name, blob in first.items():
                    if name == "jobs.json":
                        continue
                    path = Path(tmp) / name
                    path.write_bytes(blob)
                    try:
                        parse_config(path)
                        checked += 1
                    except QRotorError as err:
                        problems.append(f"{wl} seed {seed} {name}: {err}")
    for line in problems:
        print("FAIL " + line)
    print(f"selfcheck: {len(workloads.WORKLOADS)} workloads x {len(seeds)} seeds, "
          f"{checked} generated configs parsed, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
