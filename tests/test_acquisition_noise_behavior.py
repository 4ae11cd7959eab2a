"""Behavioural tests for BaCO's noiseless EI and the GP's noise handling.

Sec. 3.3 motivates the modified EI: with noisy evaluations, standard EI keeps
re-sampling already-observed good points because their predictive variance
(including noise) stays large.  Computing EI with the noise-free latent
variance makes re-sampling much less attractive.  These tests check that the
implementation actually produces that behaviour.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.acquisition import AcquisitionFunction
from repro.models.gp import GaussianProcess
from repro.space.parameters import OrdinalParameter


def _fitted_gp(rng, noise_level=0.15, n=18):
    params = [OrdinalParameter("x", list(range(1, 21)))]
    xs = list(rng.choice(range(1, 21), size=n, replace=True))
    configs = [{"x": int(x)} for x in xs]
    values = [5.0 + 0.5 * abs(x - 10) + noise_level * rng.standard_normal() for x in xs]
    values = [max(v, 0.1) for v in values]
    gp = GaussianProcess(params, log_transform_output=False, rng=rng)
    gp.fit_rows(gp.encoder.encode_batch(configs), values)
    return gp, configs, values


class TestNoiselessEI:
    def test_noiseless_ei_discourages_resampling_best_point(self, rng):
        gp, configs, values = _fitted_gp(rng)
        best_index = int(np.argmin(values))
        best_config = configs[best_index]
        unseen_config = {"x": 20} if all(c["x"] != 20 for c in configs) else {"x": 19}

        best = float(gp.to_model_scale(min(values)))
        noiseless = AcquisitionFunction(
            lambda rows, _: gp.predict_rows(rows, include_noise=False), best
        )
        noisy = AcquisitionFunction(
            lambda rows, _: gp.predict_rows(rows, include_noise=True), best
        )

        # the noisy EI assigns the already-observed optimum a larger share of
        # its total acquisition mass than the noiseless EI does
        rows = gp.encoder.encode_batch([best_config, unseen_config])
        noiseless_vals = noiseless.evaluate_rows(rows)
        noisy_vals = noisy.evaluate_rows(rows)
        ratio_noiseless = noiseless_vals[0] / (noiseless_vals.sum() + 1e-12)
        ratio_noisy = noisy_vals[0] / (noisy_vals.sum() + 1e-12)
        assert ratio_noiseless <= ratio_noisy + 1e-9

    def test_noisy_variance_exceeds_noiseless_everywhere(self, rng):
        gp, configs, _ = _fitted_gp(rng)
        grid = [{"x": x} for x in range(1, 21)]
        _, var_latent = gp.predict_rows(gp.encoder.encode_batch(grid), include_noise=False)
        _, var_observed = gp.predict_rows(gp.encoder.encode_batch(grid), include_noise=True)
        assert np.all(var_observed > var_latent)
        assert np.allclose(var_observed - var_latent, gp.hyperparameters.noise_variance)

    def test_noise_variance_grows_with_observation_noise(self, rng):
        quiet_gp, _, _ = _fitted_gp(np.random.default_rng(1), noise_level=0.02, n=30)
        loud_gp, _, _ = _fitted_gp(np.random.default_rng(1), noise_level=1.5, n=30)
        assert loud_gp.hyperparameters.noise_variance > quiet_gp.hyperparameters.noise_variance


class TestLengthscalePriors:
    def test_priors_pull_lengthscales_away_from_extremes(self, rng):
        """Without priors, near-duplicate discrete data can collapse a lengthscale."""
        params = [
            OrdinalParameter("x", list(range(1, 9))),
            OrdinalParameter("irrelevant", list(range(1, 9))),
        ]
        configs = [{"x": x, "irrelevant": (x * 3) % 8 + 1} for x in range(1, 9) for _ in range(2)]
        values = [float(c["x"]) for c in configs]
        with_prior = GaussianProcess(params, log_transform_output=False, rng=np.random.default_rng(0))
        without_prior = GaussianProcess(
            params, lengthscale_prior=None, log_transform_output=False, rng=np.random.default_rng(0)
        )
        with_prior.fit_rows(with_prior.encoder.encode_batch(configs), values)
        without_prior.fit_rows(without_prior.encoder.encode_batch(configs), values)
        spread_with = np.ptp(np.log10(with_prior.hyperparameters.lengthscales))
        spread_without = np.ptp(np.log10(without_prior.hyperparameters.lengthscales))
        # the MAP fit keeps lengthscales within a narrower band than plain MLE
        assert spread_with <= spread_without + 1.0
        assert with_prior.hyperparameters.lengthscales.min() > 1e-3
