"""Intrusive baselines: reduced-basis Galerkin and Taylor truncation.

RB needs the PDE operator at prediction time; Taylor needs the coefficient
sequence of the input model. Both are compared against the non-intrusive
PCA+linear surrogate on shared test sets.
"""
import numpy as np

from opsurrogate import BOX2D, fit_pca, quadrature_weights
from opsurrogate.datasets import ProblemConfig, generate_dataset
from opsurrogate.protocols import run_chkifa_comparison, taylor_tail_decay
from opsurrogate.random_fields import coeff_model_spec
from opsurrogate.surrogate import RbSolver, relative_errors

# reduced basis on lognormal Darcy
train = generate_dataset(ProblemConfig(problem="darcy_lognormal",
                                       resolution=33, count=96, seed=7))
test = generate_dataset(ProblemConfig(problem="darcy_lognormal",
                                      resolution=33, count=24, seed=8))
rb = RbSolver(fit_pca(train.ys, BOX2D, 33, d=20))
u_rb = rb.solve(test.xs, np.ones(33 * 33))
errs, _ = relative_errors(u_rb, test.ys, quadrature_weights(BOX2D, 33))
print(f"RB Galerkin d=20 on darcy_lognormal: mean rel error {np.mean(errs):.4f}")

# Taylor truncation vs PCA+linear at equal PDE-solve budgets
base = ProblemConfig(problem="coeff_model", resolution=33, count=0, seed=9,
                     coeff_dim=64)
rows = run_chkifa_comparison(base, budgets=(8, 16, 32, 64), n_test=64,
                             test_seed=10)
print("\nbudget  taylor      pca_linear")
by_budget = {}
for r in rows:
    by_budget.setdefault(r["budget"], {})[r["method"]] = r["relative_error"]
for b in sorted(by_budget):
    t, p = by_budget[b]["taylor"], by_budget[b]["pca_linear"]
    print(f"{b:5d}  {t:.4e}  {p:.4e}")

budgets, tails, slope, expected = taylor_tail_decay(coeff_model_spec(),
                                                    budgets=(8, 16, 32, 64, 128))
print(f"\nsup-norm tail decay slope {slope:.3f} (Stechkin bound {expected:.3f})")
