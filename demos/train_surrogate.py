"""End-to-end surrogate on the Poisson problem, linear and NN regressors.

Small budgets so the script finishes in about a minute; the acceptance tests
run the real comparisons.
"""
import time

from opsurrogate.datasets import ProblemConfig, generate_dataset
from opsurrogate.harness import FitConfig, evaluate, fit_from_dataset

train = generate_dataset(ProblemConfig(problem="poisson", resolution=33,
                                       count=128, seed=1))
test = generate_dataset(ProblemConfig(problem="poisson", resolution=33,
                                      count=64, seed=2))

for reg, extra in [("linear", {}), ("nn", {"epochs": 40})]:
    t0 = time.time()
    sur, result = fit_from_dataset(train, FitConfig(d=20, regressor=reg,
                                                    seed=3, **extra))
    err, online, _ = evaluate(sur, test)
    note = ""
    if result is not None:
        note = f", lr {result.learning_rate}, final mse {result.train_loss[-1]:.2e}"
    print(f"{reg:6s}: relative test error {err:.4f}"
          f" ({time.time() - t0:.0f}s fit, {online * 1e3:.2f} ms/predict{note})")
