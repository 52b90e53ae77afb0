import numpy as np
import pytest

from opsurrogate.grid import BOX2D, GridFunction, ShapeError, norms, quadrature_weights
from opsurrogate.pca import (
    PcaConfigError,
    RankDeficiencyError,
    decode_batch,
    empirical_projection_error,
    encode_batch,
    fit_pca,
    transfer_basis,
)
from opsurrogate.random_fields import box_mode_stddevs, mu_g_spec, sample_field


def values(functions):
    return np.stack([u.values for u in functions])


def fit(functions, d):
    return fit_pca(values(functions), functions[0].domain, functions[0].n, d)


def mu_g_samples(n, count, base_seed, cutoff=8):
    spec = mu_g_spec(cutoff=cutoff)
    return [sample_field(spec, n, seed=base_seed + i) for i in range(count)]


def test_repeated_function_spectrum():
    rng = np.random.default_rng(0)
    u = GridFunction(BOX2D, 9, rng.standard_normal(81))
    model = fit([u] * 8, d=1)
    u_norm = norms(BOX2D, 9, u.values)[0]
    assert model.eigenvalues[0] == pytest.approx(u_norm ** 2, rel=1e-12)
    assert np.max(np.abs(model.eigenvalues[1:])) < 1e-12
    phi1 = decode_batch(model, np.array([[1.0]]))[0]
    sign = np.sign(np.dot(phi1, u.values))
    assert np.max(np.abs(phi1 - sign * u.values / u_norm)) < 1e-10


def test_recovers_kl_spectrum():
    # top empirical eigenvalues should straddle the analytic sigma_k^2; modes
    # (1,0) and (0,1) are degenerate, so they are compared through their sum
    # (ordered sample eigenvalues of a degenerate pair split symmetrically)
    spec = mu_g_spec(cutoff=4)
    sig2 = np.sort(box_mode_stddevs(spec).reshape(-1) ** 2)[::-1]
    reps = 20
    top = np.array([
        fit([sample_field(spec, 17, seed=1000 * r + i) for i in range(200)],
                d=3).eigenvalues[:3]
        for r in range(reps)
    ])
    lead, pair = top[:, 0], top[:, 1] + top[:, 2]
    se_lead = np.std(lead) / np.sqrt(reps)
    se_pair = np.std(pair) / np.sqrt(reps)
    assert abs(np.mean(lead) - sig2[0]) < 4 * se_lead
    assert abs(np.mean(pair) - (sig2[1] + sig2[2])) < 4 * se_pair


def test_basis_orthonormality():
    data = mu_g_samples(17, 40, base_seed=10)
    model = fit(data, d=10)
    phis = decode_batch(model, np.eye(10))
    gram = (phis * quadrature_weights(BOX2D, 17)) @ phis.T
    assert np.max(np.abs(gram - np.eye(10))) < 1e-8


def test_sign_convention():
    data = mu_g_samples(17, 30, base_seed=77)
    model = fit(data, d=8)
    for row in model.basis:
        assert row[np.argmax(np.abs(row))] > 0


def test_encode_basis_gives_standard_vectors():
    data = mu_g_samples(17, 30, base_seed=20)
    model = fit(data, d=6)
    e = encode_batch(model, decode_batch(model, np.eye(6)))
    assert np.max(np.abs(e - np.eye(6))) < 1e-12


def test_encode_bessel_and_zero():
    data = mu_g_samples(17, 30, base_seed=30)
    model = fit(data, d=6)
    u = sample_field(mu_g_spec(cutoff=8), 17, seed=999)
    assert (np.linalg.norm(encode_batch(model, u.values[None, :]))
            <= norms(BOX2D, 17, u.values)[0] * (1 + 1e-12))
    assert np.array_equal(encode_batch(model, np.zeros((1, 17 * 17))), np.zeros((1, 6)))


def test_decode_isometry_and_idempotence():
    data = mu_g_samples(17, 30, base_seed=40)
    model = fit(data, d=6)
    rng = np.random.default_rng(3)
    s, t = rng.standard_normal(6), rng.standard_normal(6)
    diff = decode_batch(model, s[None, :]) - decode_batch(model, t[None, :])
    assert norms(BOX2D, 17, diff)[0] == pytest.approx(np.linalg.norm(s - t), rel=1e-10)

    s1 = encode_batch(model, data[0].values[None, :])
    s2 = encode_batch(model, decode_batch(model, s1))
    assert np.max(np.abs(s1 - s2)) < 1e-12


def test_pythagoras():
    data = mu_g_samples(17, 30, base_seed=50)
    model = fit(data, d=6)
    u = sample_field(mu_g_spec(cutoff=8), 17, seed=1234)
    s = encode_batch(model, u.values[None, :])
    resid_norm, u_norm = norms(BOX2D, 17, np.stack([u.values - decode_batch(model, s)[0],
                                                     u.values]))
    assert resid_norm ** 2 + np.sum(s * s) == pytest.approx(u_norm ** 2, rel=1e-10)


def test_projection_error_matches_eigenvalue_tail():
    data = mu_g_samples(17, 40, base_seed=60)
    for d in (5, 10, 20):
        model = fit(data, d=d)
        err = empirical_projection_error(model, values(data))
        tail = float(np.sum(model.eigenvalues[d:]))
        assert err == pytest.approx(tail, rel=1e-10)


def test_projection_error_monotone_and_full_rank_zero():
    data = mu_g_samples(17, 25, base_seed=70)
    errs = [empirical_projection_error(fit(data, d=d), values(data))
            for d in (2, 5, 10, 15)]
    assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))
    full = fit(data, d=25)
    total = float(np.sum(full.eigenvalues))
    assert empirical_projection_error(full, values(data)) < 1e-10 * total


def test_fit_is_permutation_invariant():
    data = mu_g_samples(17, 30, base_seed=80)
    rng = np.random.default_rng(8)
    perm = rng.permutation(len(data))
    m1 = fit(data, d=6)
    m2 = fit([data[i] for i in perm], d=6)
    assert np.max(np.abs(m1.eigenvalues[:6] - m2.eigenvalues[:6])) < 1e-12
    assert np.max(np.abs(m1.basis - m2.basis)) < 1e-8


def test_config_and_rank_errors():
    data = mu_g_samples(17, 5, base_seed=90)
    with pytest.raises(PcaConfigError):
        fit(data, d=6)
    with pytest.raises(ShapeError):
        fit_pca(values(data), BOX2D, 9, d=2)
    # rank-2 data cannot support d = 3
    rng = np.random.default_rng(9)
    a = GridFunction(BOX2D, 9, rng.standard_normal(81))
    b = GridFunction(BOX2D, 9, rng.standard_normal(81))
    mix = [GridFunction(BOX2D, 9, x * a.values + y * b.values)
           for x, y in [(1, 0), (0, 1), (1, 1), (2, -1)]]
    with pytest.raises(RankDeficiencyError) as exc:
        fit(mix, d=3)
    assert "3" in str(exc.value) or "2" in str(exc.value)


def test_transfer_same_resolution_is_identity():
    data = mu_g_samples(17, 20, base_seed=100)
    model = fit(data, d=5)
    moved, resid = transfer_basis(model, 17)
    assert np.array_equal(moved.basis, model.basis)
    assert resid < 1e-8


def test_transfer_33_to_65_gram_residual_small():
    data = mu_g_samples(33, 60, base_seed=110)
    model = fit(data, d=10)
    moved, resid = transfer_basis(model, 65)
    assert moved.n == 65
    assert resid < 1e-2
    assert np.array_equal(moved.eigenvalues, model.eigenvalues)


def test_transfer_to_non_nested_coarse_grid_rejected():
    data = mu_g_samples(17, 20, base_seed=120)
    model = fit(data, d=5)
    with pytest.raises(ShapeError):
        transfer_basis(model, 12)
