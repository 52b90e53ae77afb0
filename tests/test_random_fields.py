import numpy as np
import pytest

from opsurrogate.datasets import ProblemConfig, generate_dataset
from opsurrogate.grid import BOX2D, TORUS1D, norms, quadrature_weights, subsample
from opsurrogate.random_fields import (
    ConfigError,
    box_mode_stddevs,
    coeff_model_basis,
    coeff_model_modes,
    coeff_model_spec,
    coeff_model_sup_norms,
    derive_seed,
    mu_b_spec,
    mu_g_spec,
    mu_l_spec,
    mu_p_spec,
    nyquist_cutoff,
    sample_field,
    threshold_map,
    torus_mode_stddevs,
)


def test_mu_g_constant_mode_stddev():
    # (pi^2*0 + 9)^-1
    sig = box_mode_stddevs(mu_g_spec(cutoff=4))
    assert sig[0, 0] == pytest.approx(1.0 / 9.0, rel=1e-14)


def test_mu_b_constant_mode_stddev():
    # 7^2 * 49^-1.25 = 49^-0.25
    sig = torus_mode_stddevs(mu_b_spec(cutoff=8))
    assert sig[0] == pytest.approx(49.0 ** -0.25, rel=1e-12)
    assert sig[0] == pytest.approx(0.37796, abs=1e-5)


def test_sampling_is_deterministic():
    for spec, n in [(mu_g_spec(8), 17), (mu_l_spec(8), 17), (mu_p_spec(8), 17),
                    (mu_b_spec(31), 64)]:
        a = sample_field(spec, n, seed=42)
        b = sample_field(spec, n, seed=42)
        assert np.array_equal(a.values, b.values)
        c = sample_field(spec, n, seed=43)
        assert not np.array_equal(a.values, c.values)
    # the coefficient model is assembled from its basis, not drawn
    with pytest.raises(ConfigError, match="coeff_model"):
        sample_field(coeff_model_spec(8), 17, seed=42)


def test_mesh_consistency_fine_then_subsample():
    spec = mu_g_spec(cutoff=8)
    fine = sample_field(spec, 33, seed=5)
    coarse = sample_field(spec, 17, seed=5)
    assert np.array_equal(subsample(BOX2D, 33, fine.values[None, :], 17)[0], coarse.values)

    specb = mu_b_spec(cutoff=31)
    fineb = sample_field(specb, 256, seed=5)
    coarseb = sample_field(specb, 64, seed=5)
    assert np.array_equal(subsample(TORUS1D, 256, fineb.values[None, :], 64)[0],
                          coarseb.values)


def test_threshold_map_branches():
    assert threshold_map(np.array([0.5]), 12.0, 3.0)[0] == 12.0
    assert threshold_map(np.array([-0.1]), 12.0, 3.0)[0] == 3.0
    # the tie at exactly zero takes the high branch
    assert threshold_map(np.array([0.0]), 12.0, 3.0)[0] == 12.0


def test_mu_l_positive_and_mu_p_two_valued():
    ul = sample_field(mu_l_spec(8), 17, seed=3)
    assert np.all(ul.values > 0)
    up = sample_field(mu_p_spec(8), 17, seed=3)
    assert set(np.unique(up.values)) <= {3.0, 12.0}
    # both are pointwise maps of the mu_G draw with the same seed
    g = sample_field(mu_g_spec(8), 17, seed=3).values
    assert np.array_equal(ul.values, np.exp(g))
    assert np.array_equal(up.values, threshold_map(g))


def test_mu_p_high_fraction_near_half():
    spec = mu_p_spec(cutoff=4)
    fracs = [np.mean(sample_field(spec, 9, seed=s).values == 12.0) for s in range(400)]
    # mean-zero Gaussian is symmetric about 0
    assert abs(np.mean(fracs) - 0.5) < 0.05


def test_mu_g_pointwise_variance_matches_series():
    spec = mu_g_spec(cutoff=4)
    n = 9
    mid = (n // 2) * n + n // 2
    trials = 20000
    vals = np.array([sample_field(spec, n, seed=s).values[mid]
                     for s in range(trials)])
    # analytic series: sum_k sigma_k^2 phi_k(0.5,0.5)^2 with phi products of
    # the Neumann cosines; read it off a huge sample-free evaluation instead
    from opsurrogate.random_fields import _cosine_basis_1d

    B = _cosine_basis_1d(n, spec.cutoff)
    sig = box_mode_stddevs(spec)
    phi_mid = np.outer(B[n // 2], B[n // 2])
    var = np.sum((sig * phi_mid) ** 2)
    se = var * np.sqrt(2.0 / trials)  # variance-of-variance for Gaussians
    assert abs(np.var(vals) - var) < 4 * se


def test_mu_b_parseval():
    spec = mu_b_spec(cutoff=31)
    sig = torus_mode_stddevs(spec)
    # sig is already per basis row (cos and sin each carry sigma_k)
    analytic = np.sum(sig ** 2)
    trials = 2000
    rows = np.stack([sample_field(spec, 64, seed=s).values for s in range(trials)])
    sq = norms(TORUS1D, 64, rows) ** 2
    se = np.std(sq) / np.sqrt(trials)
    assert abs(np.mean(sq) - analytic) < 4 * se


def test_mu_g_sample_mean_is_small():
    spec = mu_g_spec(cutoff=4)
    n = 9
    trials = 10000
    acc = np.zeros(n * n)
    for s in range(trials):
        acc += sample_field(spec, n, seed=s).values
    mean_field = acc / trials
    w = quadrature_weights("box2d", n)
    mean_norm = np.sqrt(np.sum(w * mean_field ** 2))
    # E||u||^2 = sum sigma_k^2 by Parseval; the mean's norm scales like
    # sqrt of that over trials
    expected_scale = np.sqrt(np.sum(box_mode_stddevs(spec) ** 2) / trials)
    assert mean_norm < 5 * expected_scale


def test_cutoff_beyond_nyquist_rejected():
    assert nyquist_cutoff("box2d", 17) == 16
    assert nyquist_cutoff("torus1d", 64) == 31
    with pytest.raises(ConfigError):
        sample_field(mu_g_spec(cutoff=20), 17, seed=0)
    with pytest.raises(ConfigError):
        sample_field(mu_b_spec(cutoff=40), 64, seed=0)


def test_coeff_model_leading_eigenvalue():
    pairs, lam = coeff_model_modes(100.0, 4.1, 8)
    assert tuple(pairs[0]) == (0, 0)
    assert lam[0] == pytest.approx(100.0 ** -4.1, rel=1e-14)
    assert np.all(np.diff(lam) <= 1e-18)


def test_coeff_model_tie_breaking_lexicographic():
    pairs, lam = coeff_model_modes(100.0, 4.1, 8)
    # (1,2) and (2,1) share |k|^2 = 5; lexicographic order puts (1,2) first
    i12 = int(np.where((pairs == (1, 2)).all(axis=1))[0][0])
    i21 = int(np.where((pairs == (2, 1)).all(axis=1))[0][0])
    assert i12 < i21


def test_coeff_model_sample_bounds_and_determinism():
    cfg = ProblemConfig(problem="coeff_model", resolution=17, count=3, seed=9,
                        cutoff=8, coeff_dim=20)
    ds = generate_dataset(cfg)
    assert ds.xis.shape == (3, 20)
    assert np.all(np.abs(ds.xis) <= 1.0)
    # inputs are the assembled fields sum_j xi_j phi_j
    assert np.array_equal(ds.xs, ds.xis @ coeff_model_basis(cfg.measure(), 20, 17))
    again = generate_dataset(cfg)
    assert np.array_equal(ds.xis, again.xis) and np.array_equal(ds.xs, again.xs)


def test_coeff_model_sup_norm_partial_sums_slow_down():
    spec = coeff_model_spec(cutoff=31)
    sup = coeff_model_sup_norms(spec, 500)
    assert np.all(sup > 0)
    csum = np.cumsum(sup)
    assert np.all(np.diff(csum) > 0)  # monotone
    # Cauchy-slowing: later blocks of 100 add less than earlier blocks
    blocks = csum[99::100]
    increments = np.diff(blocks)
    assert np.all(np.diff(increments) < 0)


def test_derive_seed_spreads():
    seeds = {derive_seed(123, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(123, 5) == derive_seed(123, 5)
