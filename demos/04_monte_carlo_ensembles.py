"""Does the covariance the filter reports match the error it actually makes?

A seeded Monte Carlo ensemble answers empirically: across trials whose
initial guess error is drawn from the prior, the sample mean-squared error
minus the squared bias should track trace(P_k).  The same machinery writes
the bundled examples' CSV file sets reproducibly.

Run with:  python demos/04_monte_carlo_ensembles.py
"""

import tempfile
from pathlib import Path

import numpy as np

from isokal import monte_carlo, reproduce_example
from isokal.harness import example_system

np.set_printoptions(precision=4, suppress=True)

# --- 1. A calibrated ensemble ----------------------------------------------

model, x0, x_guess, P0, _snapshots = example_system("example1")
stats, trials = monte_carlo(model, x0, x_guess, P0, T=40, trials=200, seed=42)

trace_p = trials[0].trace_p   # deterministic: identical across trials
print("  k    mean |e_k|^2    |bias_k|^2      trace P_k")
for k in (1, 2, 5, 10, 20, 40):
    print(f"  {k:2d}    {stats.mse[k]:.3e}    {stats.bias_norm[k]**2:.3e}    {trace_p[k]:.3e}")

# The first two columns' difference hugs the third: the filter's reported
# uncertainty is the uncertainty it actually has.  Both collapse by five
# orders of magnitude over 40 steps on this system.

print(f"\nmse_40 / mse_1 = {stats.mse[40] / stats.mse[1]:.2e}")

# --- 2. Determinism is part of the contract ---------------------------------
#
# Trial t draws from SeedSequence((master_seed, t)), so a re-run with the
# same arguments is bit-identical, and trial t's values depend only on
# (master_seed, t), up to rounding.

stats_again, _ = monte_carlo(model, x0, x_guess, P0, T=40, trials=200, seed=42)
print("re-run is bit-identical:", stats.mse.tobytes() == stats_again.mse.tobytes())

# --- 3. The packaged reproductions ------------------------------------------
#
# reproduce_example writes snapshots.csv, estimates.csv, mse.csv and
# p_eigs.csv for either bundled example; same seed, same bytes.

with tempfile.TemporaryDirectory() as tmp:
    paths = reproduce_example("example2", trials=100, seed=42, out_dir=tmp)
    for name, path in sorted(paths.items()):
        n_rows = sum(1 for _ in open(path)) - 1
        print(f"wrote {name + '.csv':15s} {n_rows:3d} rows")
    top_eigs = [float(line.split(",")[1])
                for line in Path(paths["p_eigs"]).read_text().splitlines()[1:]]
    print(f"example2 ||P_k||: starts {top_eigs[0]:.1e}, "
          f"plateaus near {top_eigs[-1]:.2e} (only Lyapunov-stable regime)")
