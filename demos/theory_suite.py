"""Run the four empirical theory checks and print their reports."""
import numpy as np

from opsurrogate import BOX2D, fit_pca, mu_g_spec, sample_field
from opsurrogate.theory import (
    check_chebyshev_coverage,
    check_encoder_lipschitz,
    check_fan,
    check_mc_covariance_rate,
)

print(check_fan(dim=6, d=2, trials=10000, seed=0).summary())
print(check_mc_covariance_rate(mu_g_spec(cutoff=4), N_list=(64, 128, 256, 512),
                               trials=100, seed=1).summary())
for delta in (0.1, 0.5):
    print(check_chebyshev_coverage(mu_g_spec(cutoff=8), d=10, delta=delta,
                                   N_train=300, N_test=2000, seed=2).summary())

data = np.stack([sample_field(mu_g_spec(cutoff=8), 17, seed=100 + i).values
                 for i in range(40)])
print(check_encoder_lipschitz(fit_pca(data, BOX2D, 17, d=8), trials=1000,
                              seed=3).summary())
