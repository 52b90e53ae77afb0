"""PCA spectra across resolutions and the projection-error identity.

The quadrature-weighted inner product makes the Gram spectra of the same
random functions nearly resolution-independent, which is what the whole
mesh-invariance story rests on.
"""
import numpy as np

from opsurrogate import (
    BOX2D, empirical_projection_error, fit_pca, mu_g_spec, sample_field, subsample,
)

spec = mu_g_spec(cutoff=16)
fine = np.stack([sample_field(spec, 65, seed=i).values for i in range(128)])

print("top 6 eigenvalues by resolution (same 128 random functions)")
for n in (17, 33, 65):
    model = fit_pca(subsample(BOX2D, 65, fine, n), BOX2D, n, d=6)
    lams = " ".join(f"{v:.4e}" for v in model.eigenvalues[:6])
    print(f"  n={n:3d}: {lams}")

model = fit_pca(fine, BOX2D, 65, d=20)
err = empirical_projection_error(model, fine)
tail = float(np.sum(model.eigenvalues[20:]))
print(f"\nprojection error {err:.6e} vs eigenvalue tail {tail:.6e}"
      f"  (rel diff {abs(err - tail) / tail:.1e})")
