"""Delay models: the hybrid-synchrony guarantees and WAN variant."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkConfig
from repro.errors import ConfigError
from repro.net.delay import HybridCloudDelayModel, UniformDelayModel, WanDelayModel
from repro.net.topology import three_regions


class TestUniform:
    def test_range(self):
        model = UniformDelayModel(0.001, 0.002)
        rng = random.Random(1)
        for _ in range(200):
            d = model.sample(rng, 0, 1, 100)
            assert 0.001 <= d <= 0.002

    def test_bounds(self):
        model = UniformDelayModel(0.001, 0.002)
        assert model.small_message_bound() == 0.002
        assert model.worst_case_bound(10**6) == 0.002

    def test_invalid(self):
        with pytest.raises(ConfigError):
            UniformDelayModel(0.5, 0.1)


class TestHybridCloud:
    def setup_method(self):
        self.config = NetworkConfig()
        self.model = HybridCloudDelayModel(self.config)
        self.rng = random.Random(7)

    def test_small_messages_respect_bound_always(self):
        """The hybrid model's core guarantee."""
        bound = self.model.small_message_bound()
        for _ in range(20_000):
            d = self.model.sample(self.rng, 0, 1, self.config.small_threshold)
            assert d is not None and d <= bound

    def test_large_messages_can_violate_small_bound(self):
        bound = self.model.small_message_bound()
        violations = sum(
            1
            for _ in range(5_000)
            if self.model.sample(self.rng, 0, 1, 1_000_000) > bound
        )
        assert violations > 1000  # bandwidth term alone exceeds it

    def test_large_delay_grows_with_size(self):
        def median(size):
            rng = random.Random(3)
            return sorted(self.model.sample(rng, 0, 1, size) for _ in range(501))[250]

        assert median(1_000_000) > median(100_000) > median(10_000)

    def test_worst_case_bound_monotone_in_size(self):
        sizes = [8_192, 65_536, 1_000_000]
        bounds = [self.model.worst_case_bound(s) for s in sizes]
        assert bounds == sorted(bounds)

    def test_worst_case_bound_small_is_small_bound(self):
        assert self.model.worst_case_bound(100) == self.config.small_bound

    def test_worst_case_far_exceeds_small(self):
        assert self.model.worst_case_bound(1_000_000) > 10 * self.config.small_bound

    def test_drops(self):
        """The model drops nothing: links are reliable, every draw is a delay."""
        for size in (100, self.config.small_threshold, 1_000_000):
            for _ in range(1000):
                assert type(self.model.sample(self.rng, 0, 1, size)) is float

    def test_measured_tail_within_declared_bound(self):
        """The declared p99.9 bound should rarely be exceeded in samples."""
        bound = self.model.worst_case_bound(500_000)
        violations = sum(
            1
            for _ in range(20_000)
            if self.model.sample(self.rng, 0, 1, 500_000) > bound
        )
        assert violations < 60  # ~0.1% expected, allow 3x slack


def reference_hybrid_sample(cfg, rng, size):
    """``HybridCloudDelayModel.sample`` as written before its constants
    were read out at construction: every draw goes back to the config."""
    delay = cfg.base_delay + rng.expovariate(1.0 / cfg.jitter_scale)
    if size <= cfg.small_threshold:
        return min(delay, cfg.small_bound)
    delay += size / cfg.bandwidth
    if rng.random() < cfg.slowdown_probability:
        delay += cfg.slowdown_scale * rng.paretovariate(cfg.slowdown_alpha)
    return delay


class TestHybridCloudHoistedConstants:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_draws_are_bit_identical_to_the_formula(self, seed):
        config = NetworkConfig()
        model = HybridCloudDelayModel(config)
        sizes = (64, config.small_threshold, config.small_threshold + 1, 400_000)
        picker = random.Random(seed)
        rng, reference_rng = random.Random(seed), random.Random(seed)
        for _ in range(10_000):
            size = picker.choice(sizes)
            got = model.sample(rng, 0, 1, size)
            want = reference_hybrid_sample(config, reference_rng, size)
            assert got == want and type(got) is type(want)
        assert rng.getstate() == reference_rng.getstate()


class TestWan:
    def setup_method(self):
        self.config = NetworkConfig()
        self.topology = three_regions(3)
        self.model = WanDelayModel(self.config, self.topology)
        self.rng = random.Random(5)

    def pair_bound(self, src, dst):
        """The small-message bound of one pair: its propagation on top of
        the single-zone bound."""
        cfg = self.config
        return cfg.base_delay + self.topology.propagation(src, dst) + cfg.small_bound

    def test_cross_region_slower(self):
        # replicas 0 (us-east) and 1 (us-west) are cross-region.
        def median(src, dst):
            rng = random.Random(9)
            return sorted(self.model.sample(rng, src, dst, 256) for _ in range(201))[100]

        same = median(0, 0)  # same replica's region pairing is intra
        cross = median(0, 1)
        assert cross > same + 0.02

    def test_small_bound_respected_per_pair(self):
        for src, dst in ((0, 1), (1, 2), (0, 2)):
            bound = self.pair_bound(src, dst)
            for _ in range(3000):
                assert self.model.sample(self.rng, src, dst, 256) <= bound

    def test_worst_case_small_bound_covers_all_pairs(self):
        pairs = [(src, dst) for src in range(3) for dst in range(3) if src != dst]
        assert self.model.small_message_bound() == max(self.pair_bound(*p) for p in pairs)

    def test_worst_case_bound_exceeds_az_model(self):
        flat = HybridCloudDelayModel(NetworkConfig())
        assert self.model.worst_case_bound(500_000) > flat.worst_case_bound(500_000)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=1, max_value=4096),
)
def test_small_bound_property(seed, size):
    """Any small message, any seed: delay never exceeds the bound."""
    config = NetworkConfig()
    model = HybridCloudDelayModel(config)
    rng = random.Random(seed)
    for _ in range(50):
        assert model.sample(rng, 0, 1, size) <= config.small_bound
