"""Coarse text map of the dephasing kernel across the (lambda, gamma) plane.

The off-diagonal suppression K(0,2) behaves very differently on the two
sides of lambda = 0: the positive branch decays monotonically (sech-power
law), while the negative branch oscillates and periodically revives.
Writes the full grid to the path given as the first argument, by default
kernel_map.csv next to this script:

    python demos/kernel_phase_map.py [out.csv]
"""

import pathlib
import sys

import numpy as np

from kerrdeph import kernel_map, write_kernel_map_csv

HERE = pathlib.Path(__file__).parent
OUT = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else HERE / "kernel_map.csv"
GLYPHS = " .:-=+*#%@"

lambdas = np.linspace(-1.0, 1.0, 21)
gammas = np.linspace(0.0, 12.0, 25)

rows = kernel_map(lambdas, gammas, n=0, m=2)
write_kernel_map_csv(rows, OUT)

by_lam = {}
for r in rows:
    by_lam.setdefault(r.lam, []).append(r)

print("|K(0,2)| over lambda (rows, -1..1) x gamma (cols, 0..12)")
print("darker = more coherence kept; '!' = index outside the finite space\n")
for lam in lambdas:
    cells = []
    for r in sorted(by_lam[lam], key=lambda q: q.gamma):
        if not r.valid:
            cells.append("!")
        else:
            cells.append(GLYPHS[min(int(abs(r.K) * (len(GLYPHS) - 1) + 0.5),
                                    len(GLYPHS) - 1)])
    print(f"  lam={lam:+.1f}  {''.join(cells)}")

# the lam=-1 row never decays: mu_2 = sqrt(gamma)*2*(1 - 2/2) = 0 = mu_0,
# so |0> and |2> see identical environments -- a decoherence-free pair
print("\nlam=-1.0 row: K(0,2)=1 for every gamma (degenerate deformed "
      "energies, the pair is never dephased)")

# true revivals sit far beyond this window: tau_n advances like
# sqrt(gamma |y|) * n(1 - |y| n), so the first commensurate return for
# lam=-0.5 is at sqrt(gamma * y) = 8 pi, i.e. gamma = 256 pi^2 ~ 2527
from kerrdeph import ChannelParams, kernel_matrix

gamma_rev = (8 * np.pi) ** 2 / 0.25
K = kernel_matrix(ChannelParams(gamma=gamma_rev, lam=-0.5, omega=1.0), 5).entries
print(f"predicted full revival for lam=-0.5 at gamma = 256 pi^2 = "
      f"{gamma_rev:.1f}: min K = {K.min():.12f}")
print(f"grid written to {OUT}")
