import numpy as np
import pytest
from scipy.special import erf

from opsurrogate.grid import BOX2D
from opsurrogate.pca import decode_batch, encode_batch, fit_pca
from opsurrogate.random_fields import mu_g_spec, sample_field
from opsurrogate.theory import (
    check_chebyshev_coverage,
    check_encoder_lipschitz,
    check_fan,
    check_mc_covariance_rate,
    random_psd_matrix,
)


def test_fan_identity_matrix_equality():
    # trace form of the identity over any orthonormal d-frame equals d
    rng = np.random.default_rng(0)
    for d in (1, 2, 3):
        q, _ = np.linalg.qr(rng.standard_normal((6, d)))
        assert np.trace(q.T @ np.eye(6) @ q) == pytest.approx(d, rel=1e-12)


def test_fan_diagonal_example():
    C = np.diag([3.0, 2.0, 1.0])
    rng = np.random.default_rng(1)
    best = -np.inf
    for _ in range(20000):
        q, _ = np.linalg.qr(rng.standard_normal((3, 2)))
        val = np.trace(q.T @ C @ q)
        assert val <= 5.0 + 1e-12
        best = max(best, val)
    # attained at the top eigenvectors
    e12 = np.eye(3)[:, :2]
    assert np.trace(e12.T @ C @ e12) == pytest.approx(5.0, rel=1e-14)
    assert best > 4.9


def test_check_fan_report():
    report = check_fan(dim=6, d=2, trials=10000, seed=2)
    assert report.passed
    assert report.statistics["worst_violation"] <= 1e-12
    assert report.statistics["equality_gap"] < 1e-12
    assert "[PASS]" in report.summary()


def test_mc_covariance_rate_short_run():
    report = check_mc_covariance_rate(mu_g_spec(cutoff=4),
                                      N_list=(64, 128, 256), trials=60,
                                      seed=3, slope_tol=0.3)
    assert report.passed
    assert abs(report.statistics["slope"] + 1.0) < 0.3


def test_zero_variance_measure_has_zero_hs_error():
    # degenerate sanity: constant-zero samples give C_N = C = 0 at every N
    for N in (4, 16):
        samples = np.zeros((N, 5))
        C_N = samples.T @ samples / N
        assert np.linalg.norm(C_N, "fro") == 0.0


def test_chebyshev_coverage_bounds():
    for delta in (0.1, 0.5):
        report = check_chebyshev_coverage(mu_g_spec(cutoff=8), d=10,
                                          delta=delta, N_train=300,
                                          N_test=2000, seed=4)
        assert report.passed
        assert report.statistics["coverage"] >= report.statistics["bound"]


def test_chebyshev_one_dimensional_gaussian_oracle():
    # x ~ N(0,1): M = 1/sqrt(delta), coverage = erf(M/sqrt(2))
    rng = np.random.default_rng(5)
    delta = 0.3
    x = rng.standard_normal(200000)
    M = np.sqrt(np.mean(x ** 2) / delta)
    coverage = np.mean(np.abs(x) <= M)
    closed_form = erf(M / np.sqrt(2))
    se = np.sqrt(closed_form * (1 - closed_form) / x.size)
    assert abs(coverage - closed_form) < 3 * se + 1e-6


def test_encoder_lipschitz_report():
    spec = mu_g_spec(cutoff=8)
    data = np.stack([sample_field(spec, 17, seed=600 + i).values for i in range(40)])
    pca = fit_pca(data, BOX2D, 17, d=8)
    report = check_encoder_lipschitz(pca, trials=500, seed=6)
    assert report.passed
    assert report.statistics["worst_encoder_ratio"] <= 1 + 1e-10


def test_encoder_equality_and_orthogonal_cases():
    spec = mu_g_spec(cutoff=8)
    data = np.stack([sample_field(spec, 17, seed=700 + i).values for i in range(40)])
    pca = fit_pca(data, BOX2D, 17, d=8)
    rng = np.random.default_rng(7)
    s, t = rng.standard_normal(8), rng.standard_normal(8)
    v, z = decode_batch(pca, np.stack([s, t]))
    # difference in the span: isometry
    codes = encode_batch(pca, np.stack([v, z]))
    assert np.linalg.norm(codes[0] - codes[1]) == pytest.approx(np.linalg.norm(s - t),
                                                                rel=1e-10)
    # difference orthogonal to the span: encoder difference vanishes
    u = sample_field(spec, 17, seed=900).values[None, :]
    resid = u - decode_batch(pca, encode_batch(pca, u))
    shifted = encode_batch(pca, v + resid)
    assert np.linalg.norm(shifted - encode_batch(pca, v[None, :])) < 1e-10


def test_random_psd_matrix_is_psd():
    C = random_psd_matrix(6, np.random.default_rng(8))
    assert np.max(np.abs(C - C.T)) < 1e-14
    assert np.min(np.linalg.eigvalsh(C)) > -1e-12
