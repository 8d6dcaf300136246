"""Run the whole-gallery `verify` at a fixed set of seeds.

    python3 tools/verify_seeds.py [VERIFY OPTIONS]

Runs `curvequant --seed K verify [VERIFY OPTIONS]` in-process (from the
`src` next to this script) for K in SEEDS, the seed set that ROADMAP items
1, 9 and 18 check against. Prints per seed the mismatch count and the
largest relative gap between solver and closed form, then the largest gap
over all seeds. Exits 1 if any seed reports a mismatch or does not exit 0.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from curvequant.cli import main  # noqa: E402

SEEDS = (1, 2, 3, 5, 7, 11, 42, 101, 102, 103, 104, 105)
GAP = re.compile(r" rel=(\S+) (?:ok|MISMATCH)$", re.MULTILINE)
SUMMARY = re.compile(r"^verify: (\d+) mismatch\(es\) above rel (\S+)$", re.MULTILINE)


def main_seeds(options: list[str]) -> int:
    worst, failed = 0.0, False
    for seed in SEEDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--seed", str(seed), "verify", *options])
        text = out.getvalue()
        summary = SUMMARY.search(text)
        if summary is None:
            print(f"seed {seed}: exit {code}, no summary line")
            failed = True
            continue
        gap = max(map(float, GAP.findall(text)))
        worst = max(worst, gap)
        mismatches = int(summary.group(1))
        failed |= code != 0 or mismatches > 0
        print(f"seed {seed}: {mismatches} mismatch(es) above rel {summary.group(2)}, "
              f"largest gap {gap:.3e}")
    print(f"largest gap over {len(SEEDS)} seeds: {worst:.3e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main_seeds(sys.argv[1:]))
