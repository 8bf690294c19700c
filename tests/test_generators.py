import numpy as np
import pytest

from segscan import GenSpec, draw_bkps, pw_constant, pw_linear, pw_normal
from segscan.exceptions import BadParamError, SpacingInfeasibleError


def test_genspec_validation():
    spec = GenSpec(n_samples=100, n_bkps=3)
    assert spec.spacing == max(2, 100 // 16)
    with pytest.raises(BadParamError):
        GenSpec(n_samples=0)
    with pytest.raises(BadParamError):
        GenSpec(n_samples=10, n_dims=0)
    with pytest.raises(BadParamError):
        GenSpec(n_samples=10, n_bkps=-1)
    with pytest.raises(BadParamError):
        GenSpec(n_samples=10, noise_std=-0.5)
    with pytest.raises(BadParamError):
        GenSpec(n_samples=10, seed=-1)
    with pytest.raises(BadParamError):
        GenSpec(n_samples=True)


def test_draw_bkps_respects_spacing():
    for seed in range(20):
        bkps = draw_bkps(200, 4, seed=seed)
        spacing = max(2, 200 // 20)
        assert bkps.ends[-1] == 200
        assert bkps.n_bkps == 4
        positions = (0,) + bkps.ends
        gaps = np.diff(positions)
        assert gaps.min() >= spacing


def test_draw_bkps_is_deterministic():
    assert draw_bkps(500, 5, seed=9).ends == draw_bkps(500, 5, seed=9).ends
    assert draw_bkps(500, 5, seed=9).ends != draw_bkps(500, 5, seed=10).ends


def test_draw_bkps_zero_changes():
    assert draw_bkps(50, 0).ends == (50,)


def test_dense_feasible_request_succeeds():
    # 80 changes at this spacing defeat the rejection draws; the constructive draw places them
    spec = GenSpec(n_samples=8000, n_dims=2, n_bkps=80, noise_std=1.0, seed=1)
    signal, bkps = pw_constant(spec)
    again_signal, again_bkps = pw_constant(spec)
    assert bkps.n_bkps == 80 and bkps.ends[-1] == 8000
    assert bkps.ends == again_bkps.ends
    assert np.array_equal(signal.data, again_signal.data)
    gaps = np.diff((0,) + bkps.ends)
    assert gaps.min() >= spec.spacing
    assert draw_bkps(8000, 80, seed=1).ends == bkps.ends


def test_spacing_infeasible():
    with pytest.raises(SpacingInfeasibleError):
        draw_bkps(9, 4)  # spacing 2 needs (4 + 1) * 2 = 10 samples


def test_pw_constant_structure():
    spec = GenSpec(n_samples=120, n_dims=3, n_bkps=3, noise_std=0.0, seed=21)
    signal, bkps = pw_constant(spec)
    assert signal.data.shape == (120, 3)
    assert bkps.ends[-1] == 120
    for start, end in bkps.segments():
        seg = signal.data[start:end]
        assert np.ptp(seg, axis=0).max() == 0.0  # constant within a segment
    levels = [signal.data[s] for s, _ in bkps.segments()]
    assert np.allclose(levels[0], 0.0)
    for before, after in zip(levels, levels[1:]):
        jumps = np.abs(np.asarray(after) - np.asarray(before))
        assert np.all((jumps >= 1.0) & (jumps <= 5.0))


def test_pw_constant_noise_is_additive():
    quiet = pw_constant(GenSpec(n_samples=80, n_bkps=2, noise_std=0.0, seed=5))[0]
    loud = pw_constant(GenSpec(n_samples=80, n_bkps=2, noise_std=1.0, seed=5))[0]
    spread = np.std(loud.data - quiet.data)
    assert 0.8 < spread < 1.2


def test_pw_constant_is_deterministic():
    spec = GenSpec(n_samples=90, n_dims=2, n_bkps=2, noise_std=0.7, seed=77)
    first_sig, first_bkps = pw_constant(spec)
    second_sig, second_bkps = pw_constant(spec)
    assert first_bkps.ends == second_bkps.ends
    assert np.array_equal(first_sig.data, second_sig.data)


def test_pw_linear_structure():
    spec = GenSpec(n_samples=150, n_dims=2, n_bkps=3, noise_std=0.0, seed=13)
    signal, bkps = pw_linear(spec)
    for start, end in bkps.segments():
        seg = signal.data[start:end]
        second_diff = np.diff(seg, n=2, axis=0)
        assert np.abs(second_diff).max() < 1e-9  # straight lines inside segments
        slopes = seg[1] - seg[0]
        assert np.all((np.abs(slopes) >= 0.1) & (np.abs(slopes) <= 1.0))


def test_pw_linear_is_deterministic():
    spec = GenSpec(n_samples=100, n_bkps=2, noise_std=0.3, seed=8)
    a = pw_linear(spec)[0].data
    b = pw_linear(spec)[0].data
    assert np.array_equal(a, b)


def test_pw_normal_correlation_alternates():
    signal, bkps = pw_normal(4000, 3, seed=2)
    assert signal.data.shape == (4000, 2)
    expected_sign = 1.0
    for start, end in bkps.segments():
        seg = signal.data[start:end]
        rho = np.corrcoef(seg[:, 0], seg[:, 1])[0, 1]
        assert rho * expected_sign > 0.5, f"segment [{start},{end}) rho={rho}"
        expected_sign = -expected_sign


def test_pw_normal_is_deterministic():
    a, a_bkps = pw_normal(300, 2, seed=4)
    b, b_bkps = pw_normal(300, 2, seed=4)
    assert a_bkps.ends == b_bkps.ends
    assert np.array_equal(a.data, b.data)


def test_pw_normal_zero_mean_unit_scale():
    signal, _ = pw_normal(5000, 2, seed=6)
    assert np.abs(signal.data.mean(axis=0)).max() < 0.1
    assert np.abs(signal.data.std(axis=0) - 1.0).max() < 0.1
