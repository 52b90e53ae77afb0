"""Train on one mesh, evaluate on another by moving the PCA bases.

Shows the error penalty of cubic-spline basis transfer on the lognormal
Darcy problem.
"""
from opsurrogate.datasets import ProblemConfig, generate_dataset, subsample_dataset
from opsurrogate.harness import FitConfig, evaluate, fit_from_dataset, transfer_surrogate

# one set of random functions, realized on nested grids
fine_train = generate_dataset(ProblemConfig(problem="darcy_lognormal",
                                            resolution=65, count=128, seed=4))
fine_test = generate_dataset(ProblemConfig(problem="darcy_lognormal",
                                           resolution=65, count=64, seed=5))
train33 = subsample_dataset(fine_train, 33)
test33 = subsample_dataset(fine_test, 33)

sur, _ = fit_from_dataset(train33, FitConfig(d=15, regressor="linear", seed=6))
err_native, _, _ = evaluate(sur, test33)

moved, gram_residual = transfer_surrogate(sur, 65)
err_moved, _, _ = evaluate(moved, fine_test)

print(f"native  (train 33, eval 33): {err_native:.4f}")
print(f"moved   (train 33, eval 65): {err_moved:.4f}")
print(f"increase {err_moved - err_native:+.4f}, basis Gram residual {gram_residual:.2e}")
