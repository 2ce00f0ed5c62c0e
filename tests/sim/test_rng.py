"""Unit tests for the named RNG registry."""

import pytest

from repro.sim.rng import RngRegistry


class TestStreams:
    def test_same_name_returns_same_generator(self):
        registry = RngRegistry(1)
        assert registry.stream("a") is registry.stream("a")

    def test_different_names_independent(self):
        registry = RngRegistry(1)
        a = registry.stream("a").random(4)
        b = registry.stream("b").random(4)
        assert not (a == b).all()

    def test_creation_order_does_not_matter(self):
        r1 = RngRegistry(5)
        r1.stream("first")
        seq_a = r1.stream("target").random(4)
        r2 = RngRegistry(5)
        seq_b = r2.stream("target").random(4)  # created without "first"
        assert (seq_a == seq_b).all()

    def test_draws_on_one_stream_do_not_shift_another(self):
        r1 = RngRegistry(5)
        r1.stream("noise").random(100)
        a = r1.stream("signal").random(4)
        r2 = RngRegistry(5)
        b = r2.stream("signal").random(4)
        assert (a == b).all()

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RngRegistry(1).stream("")


class TestUniformBlock:
    """The vectorized-draw contract: a block of n draws is the same
    sequence as n scalar draws on the same stream."""

    def test_block_equals_scalar_sequence(self):
        block = RngRegistry(5).uniform_block("chan", 16)
        stream = RngRegistry(5).stream("chan")
        scalars = [stream.random() for _ in range(16)]
        assert block.tolist() == scalars

    def test_blocks_compose(self):
        r1 = RngRegistry(5)
        first = r1.uniform_block("chan", 6).tolist()
        second = r1.uniform_block("chan", 10).tolist()
        whole = RngRegistry(5).uniform_block("chan", 16).tolist()
        assert first + second == whole

    def test_zero_count_is_empty_and_consumes_nothing(self):
        registry = RngRegistry(5)
        assert registry.uniform_block("chan", 0).size == 0
        assert (
            registry.uniform_block("chan", 4)
            == RngRegistry(5).uniform_block("chan", 4)
        ).all()

    def test_negative_count_rejected(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            RngRegistry(5).uniform_block("chan", -1)
