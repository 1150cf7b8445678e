import numpy as np
import pytest

from sqeiar.model import (
    ContractError,
    CostWeights,
    ModelParams,
    QuarantineRegions,
    _lambda_term,
    reaction_rhs,
    rho_source,
    state_jacobian,
)
from sqeiar.pde import Grid

TABLE = ModelParams()


def state(s=0.0, q=0.0, e=0.0, a=0.0, i=0.0, r=0.0):
    return np.array([s, q, e, a, i, r], dtype=float)


class TestParams:
    def test_table_defaults(self):
        assert TABLE.eta == 0.3
        assert TABLE.q == 0.9995
        assert TABLE.k == 0.54
        assert TABLE.alpha == 0.995
        assert TABLE.diffusion == (0.001,) * 6

    @pytest.mark.parametrize("kw", [
        {"alpha": 1.5}, {"alpha": 0.0}, {"alpha": 1.0},
        {"p": -0.1}, {"z": 1.5}, {"beta": -1.0},
        {"diffusion": (0.0,) * 6}, {"diffusion": (0.001,) * 5},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ContractError):
            ModelParams(**kw)


class TestRegions:
    def test_bound_is_one_over_n(self):
        regions = QuarantineRegions(((0.1, 0.3), (0.5, 0.7)))
        assert regions.n == 2
        assert regions.v_max == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            QuarantineRegions(())

    def test_overlap_rejected(self):
        with pytest.raises(ContractError):
            QuarantineRegions(((0.1, 0.5), (0.4, 0.8)))

    def test_mask_open_intervals(self):
        regions = QuarantineRegions(((0.0, 0.5),))
        x = np.array([0.0, 0.25, 0.5, 0.75])
        mask = regions.mask(x)
        assert mask.dtype == float and mask.tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_outside_domain_rejected(self):
        with pytest.raises(ContractError):
            QuarantineRegions(((-0.5, 0.5),)).check_inside(0.0, 1.0)


class TestWeights:
    def test_nonpositive_rejected(self):
        with pytest.raises(ContractError):
            CostWeights(sigma1=0.0)


class TestLambdaTerm:
    def test_zero_state(self):
        assert _lambda_term(state(), TABLE) == 0.0

    def test_table_values(self):
        # 1e-5 * 100 + (1 - 0.9995) * 1000 + 1e-5 * 0
        value = _lambda_term(state(e=100, i=1000), TABLE)
        assert value == pytest.approx(0.501, abs=1e-12)

    def test_only_exposed_term(self):
        params = ModelParams(delta=1.0, q=1.0, mu=0.0)
        assert _lambda_term(state(e=7, i=99, a=5), params) == pytest.approx(7.0)

    def test_homogeneous(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(0, 1e4, 6)
        for c in (0.0, 0.5, 3.0):
            assert _lambda_term(c * y, TABLE) == pytest.approx(
                c * _lambda_term(y, TABLE), rel=1e-14)


class TestReactionRhs:
    def test_origin_is_equilibrium(self):
        assert np.all(reaction_rhs(state(), 0.0, 0.0, TABLE) == 0.0)

    def test_pure_quarantine_transfer(self):
        params = ModelParams(beta=0.0, xi=0.0)
        rates = reaction_rhs(state(s=1.0), 0.0, 0.5, params)
        np.testing.assert_allclose(rates, [-0.5, 0.5, 0, 0, 0, 0], atol=1e-15)

    def test_sum_identity_table_state(self):
        y = state(8000, 0, 454, 500, 500, 0)
        rates = reaction_rhs(y, 0.0, 0.0, TABLE)
        # independent arithmetic: (alpha - 1) * f * I = (0.995 - 1) * 0.3 * 500
        assert rates.sum() == pytest.approx(-0.75, abs=1e-9)

    def test_sum_identity_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            y = rng.uniform(0, 1e4, 6)
            u = rng.uniform(0, 1)
            v = rng.uniform(0, 1)
            rates = reaction_rhs(y, u, v, TABLE)
            expected = (TABLE.alpha - 1.0) * TABLE.f * y[4]
            assert rates.sum() == pytest.approx(expected, abs=1e-9 * max(1, abs(expected)))

    def test_control_bounds_enforced(self):
        with pytest.raises(ContractError, match="u"):
            reaction_rhs(state(s=1), 1.5, 0.0, TABLE)
        with pytest.raises(ContractError, match="v"):
            reaction_rhs(state(s=1), 0.0, 0.6, TABLE, v_max=0.5)

    def test_batched_matches_pointwise(self):
        rng = np.random.default_rng(3)
        block = rng.uniform(0, 1e3, (6, 5))
        batched = reaction_rhs(block, 0.2, 0.1, TABLE)
        for j in range(5):
            np.testing.assert_allclose(
                batched[:, j], reaction_rhs(block[:, j], 0.2, 0.1, TABLE))


class TestStateJacobian:
    def test_zero_state_constant_entries(self):
        H = state_jacobian(state(), 0.0, 0.0, TABLE)
        expected = np.zeros((6, 6))
        expected[0, 0] = -TABLE.beta
        expected[0, 5] = TABLE.xi
        expected[2, 0] = TABLE.beta
        expected[2, 2] = -TABLE.k
        expected[3, 2] = (1 - TABLE.z) * TABLE.k
        expected[3, 3] = -TABLE.eta
        expected[4, 2] = TABLE.z * TABLE.k
        expected[4, 3] = (1 - TABLE.p) * TABLE.eta
        expected[4, 4] = -TABLE.f
        expected[5, 3] = TABLE.p * TABLE.eta
        expected[5, 4] = TABLE.alpha * TABLE.f
        expected[5, 5] = -TABLE.xi
        np.testing.assert_allclose(H, expected, atol=1e-15)

    def test_column_sums(self):
        # gradient of the sum identity: all columns 0 except I's, (alpha-1)*f
        rng = np.random.default_rng(11)
        y = rng.uniform(0, 1e4, 6)
        H = state_jacobian(y, 0.3, 0.2, TABLE)
        sums = H.sum(axis=0)
        expected = np.zeros(6)
        expected[4] = (TABLE.alpha - 1.0) * TABLE.f
        np.testing.assert_allclose(sums, expected, atol=1e-12)

    def test_finite_difference_columns(self):
        rng = np.random.default_rng(5)
        y = rng.uniform(0, 1e4, 6)
        u, v = 0.4, 0.3
        H = state_jacobian(y, u, v, TABLE)
        eps = 1e-6
        for j in range(6):
            step = np.zeros(6)
            step[j] = eps
            fd = (reaction_rhs(y + step, u, v, TABLE)
                  - reaction_rhs(y - step, u, v, TABLE)) / (2 * eps)
            scale = max(np.abs(H[:, j]).max(), 1.0)
            assert np.abs(fd - H[:, j]).max() <= 1e-5 * scale


class TestRhoSource:
    UNIT = CostWeights(rho1=1, rho3=1, rho4=1, rho5=1, sigma1=1, sigma2=1)
    GRID = Grid(nx=11)  # nodes 0, 0.1, ..., 1

    def test_inside_region(self):
        regions = QuarantineRegions(((0.2, 0.6),))
        np.testing.assert_allclose(
            rho_source(self.GRID, regions, self.UNIT)[:, 4], [1, 0, 1, 1, 1, 0])

    def test_outside_region(self):
        regions = QuarantineRegions(((0.2, 0.6),))
        weights = CostWeights(rho1=9, rho3=3, rho4=4, rho5=5, sigma1=1, sigma2=1)
        np.testing.assert_allclose(
            rho_source(self.GRID, regions, weights)[:, 9], [0, 0, 3, 4, 5, 0])

    def test_whole_domain_region(self):
        regions = QuarantineRegions(((0.0, 1.0),))
        weights = CostWeights(rho1=2, rho3=3, rho4=4, rho5=5, sigma1=1, sigma2=1)
        np.testing.assert_allclose(
            rho_source(self.GRID, regions, weights)[:, 5], [2, 0, 3, 4, 5, 0])

    def test_grid_beyond_the_unit_interval(self):
        # a region of a [0, 2] grid holds rho1 on its 9 inner nodes 0.6 ... 1.4
        grid = Grid(x_max=2.0, nx=21)
        weights = CostWeights(rho1=2, rho3=3, rho4=4, rho5=5, sigma1=1, sigma2=1)
        rho = rho_source(grid, QuarantineRegions(((0.5, 1.5),)), weights)
        assert rho.shape == (6, 21)
        inner = np.zeros(21)
        inner[6:15] = 2.0
        np.testing.assert_array_equal(rho[0], inner)
        np.testing.assert_array_equal(rho[[1, 5]], 0.0)
        np.testing.assert_array_equal(rho[2:5], [[3.0] * 21, [4.0] * 21, [5.0] * 21])
