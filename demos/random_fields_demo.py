"""Draw samples from each input measure and sanity-check their statistics.

Run: python demos/random_fields_demo.py
"""
import numpy as np

from opsurrogate import (
    BOX2D, TORUS1D, mu_b_spec, mu_g_spec, mu_l_spec, mu_p_spec,
    norms, sample_field, subsample,
)
from opsurrogate.random_fields import box_mode_stddevs, torus_mode_stddevs

n_box, n_torus = 33, 256

print("measure   min        max        L2 norm   (seed 0)")
for label, spec, n in [("mu_G", mu_g_spec(cutoff=16), n_box),
                       ("mu_L", mu_l_spec(cutoff=16), n_box),
                       ("mu_P", mu_p_spec(cutoff=16), n_box),
                       ("mu_B", mu_b_spec(cutoff=127), n_torus)]:
    u = sample_field(spec, n, seed=0)
    print(f"{label:6s} {u.values.min():10.4f} {u.values.max():10.4f} "
          f"{norms(u.domain, n, u.values)[0]:10.4f}")

# determinism and mesh consistency: sampling fine then subsampling is the
# same bits as sampling coarse directly
spec = mu_g_spec(cutoff=8)
fine = sample_field(spec, 33, seed=7)
coarse = sample_field(spec, 17, seed=7)
print("\nfine->subsample == coarse:",
      np.array_equal(subsample(BOX2D, 33, fine.values[None, :], 17)[0], coarse.values))

# Parseval check for mu_B over a quick Monte Carlo run
specb = mu_b_spec(cutoff=127)
sig = torus_mode_stddevs(specb)  # one entry per cosine and per sine mode
analytic = np.sum(sig ** 2)
rows = np.stack([sample_field(specb, n_torus, seed=s).values for s in range(500)])
sq = norms(TORUS1D, n_torus, rows) ** 2
print(f"mu_B E||u||^2: empirical {np.mean(sq):.4f} vs analytic {analytic:.4f}")

sig_g = box_mode_stddevs(mu_g_spec(cutoff=16))
print(f"mu_G sigma(0,0) = {sig_g[0, 0]:.6f} (exact 1/9 = {1 / 9:.6f})")
