"""Validate both forward solvers against analytic oracles.

Darcy: manufactured solution convergence table.
Burgers: comparison with the Cole-Hopf closed form.
"""
import numpy as np

from opsurrogate import (
    BOX2D, TORUS1D, GridFunction, darcy_solver, from_callable, norms,
    oracle_burgers_colehopf, solve_burgers_batch,
)

print("Darcy manufactured solution -Lap u = 2 pi^2 sin(pi s1) sin(pi s2)")
errs = []
for n in (17, 33, 65):
    f = from_callable(BOX2D, n, lambda s1, s2:
                      2 * np.pi ** 2 * np.sin(np.pi * s1) * np.sin(np.pi * s2))
    exact = from_callable(BOX2D, n, lambda s1, s2:
                          np.sin(np.pi * s1) * np.sin(np.pi * s2))
    # -Lap u = f is -div(a grad u) = f with a = 1
    u = darcy_solver(GridFunction(BOX2D, n, np.ones(n * n)))(f.values)[0]
    errs.append(np.max(np.abs(u - exact.values)))
    order = "" if len(errs) == 1 else f"  order {np.log2(errs[-2] / errs[-1]):.3f}"
    print(f"  n={n:3d}  max err {errs[-1]:.3e}{order}")

print("\nBurgers vs Cole-Hopf, u0 = sin(2 pi s), beta=0.05, t=0.5, n=1024")
u0 = from_callable(TORUS1D, 1024, lambda s: np.sin(2 * np.pi * s)).values
u = solve_burgers_batch(u0, 0.05, 0.5)[0]
ref = oracle_burgers_colehopf(u0, 0.05, 0.5)
diff_norm, ref_norm = norms(TORUS1D, 1024, np.stack([u - ref, ref]))
print(f"  relative L2 error {diff_norm / ref_norm:.3e}")
print(f"  mean drift {abs(np.mean(u) - np.mean(u0)):.2e}")
