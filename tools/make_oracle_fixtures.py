"""Regenerate the frozen oracle reference table used by the test suite.

The table pins the brute-force matrix-exponential oracle itself: kernel
values at lambda = +/-0.3 (points where the negative-branch closed form is
*not* expected to be exact, so the fixture is independent of it), gamma in
{0.5, 2.0}, all pairs n < m < 6 at omega = 1, written with 17 significant
digits.

The committed table was made by the oracle that built the dense eigenvector
matrix of the environment generator.  The oracle now takes the vacuum
weights from the generator's recurrence, which moves the last digits, so a
regeneration no longer reproduces the file bit for bit.  The table is the
frozen reference the tests compare against at 1e-12: do not overwrite it.

Run from anywhere:

    python3 tools/make_oracle_fixtures.py
"""

import csv
import pathlib

from kerrdeph import ChannelParams, kernel_oracle_table

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures"

LAMBDAS = (-0.3, 0.3)
GAMMAS = (0.5, 2.0)
MAX_N = 6


def main():
    pairs = [(n, m) for n in range(MAX_N) for m in range(n + 1, MAX_N)]
    rows = []
    for lam in LAMBDAS:
        for gamma in GAMMAS:
            p = ChannelParams(gamma=gamma, lam=lam, omega=1.0)
            table = kernel_oracle_table(pairs, p)
            for (n, m), cell in zip(pairs, table):
                if not cell.converged:
                    raise RuntimeError(
                        f"oracle did not converge at n={n}, m={m}, "
                        f"gamma={gamma}, lam={lam}"
                    )
                rows.append((n, m, gamma, lam, 1.0, cell.value))

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "kernel_oracle_reference.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "m", "gamma", "lambda", "omega", "K_oracle"])
        for n, m, gamma, lam, omega, value in rows:
            writer.writerow([n, m, "%.17g" % gamma, "%.17g" % lam,
                             "%.17g" % omega, "%.17g" % value])
    print(f"wrote {len(rows)} rows to {path}")


if __name__ == "__main__":
    main()
