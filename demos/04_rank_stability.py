"""How much data does a trustworthy ranking need?

Scores channels of a small trained CNN with the nuclear-norm criterion
using nested sample subsets of growing size, and measures how much the
ranking reshuffles between consecutive sizes (Kendall tau distance,
0 = identical order, 1 = reversed). The curve flattens quickly: a few
hundred samples already pin the ranking down.

Run:  python3 demos/04_rank_stability.py   (a few seconds)
"""

import numpy as np

from energyprune.experiments import run_stability

rows = run_stability(seed=0, sizes=(4, 8, 16, 32, 64, 128, 256, 512))

print(f"{'sizes':>12}  {'mean Kendall distance':>22}")
pairs = sorted({(a, b) for a, b, _, _ in rows})
for pair in pairs:
    ds = [d for a, b, _, d in rows if (a, b) == pair]
    bar = "#" * int(round(200 * np.mean(ds)))
    print(f"{pair[0]:>4} vs {pair[1]:<4}  {np.mean(ds):>8.3f}   {bar}")

print()
print("Each row compares rankings computed from a subset and from the")
print("twice-as-large superset, averaged over four layers of the net.")
