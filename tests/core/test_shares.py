"""Unit tests for CPDA share generation and recovery."""

import pytest

from repro.core.field import DEFAULT_FIELD, PrimeField
from repro.core.shares import (
    ShareBundle,
    generate_share_bundles,
    recover_cluster_sums,
    seed_for_node,
    sum_share_values,
)
from repro.errors import ShareAlgebraError
from tests.oracles import eval_poly


def cluster_seeds(*nodes):
    return {n: seed_for_node(n) for n in nodes}


class TestSeeds:
    def test_seed_is_node_plus_one(self):
        assert seed_for_node(0) == 1
        assert seed_for_node(41) == 42

    def test_negative_node_rejected(self):
        with pytest.raises(ShareAlgebraError):
            seed_for_node(-1)

    def test_wrapping_node_id_rejected(self):
        # A seed of exactly q would be ≡ 0 (leaks constant terms); any
        # larger id collides with a small node's seed mod q.
        q = DEFAULT_FIELD.q
        with pytest.raises(ShareAlgebraError):
            seed_for_node(q - 1)
        with pytest.raises(ShareAlgebraError):
            seed_for_node(q)
        assert seed_for_node(q - 2) == q - 1


class TestGeneration:
    def test_one_bundle_per_member(self, rng):
        bundles = generate_share_bundles(
            DEFAULT_FIELD, 1, (100,), cluster_seeds(1, 2, 3), rng
        )
        assert set(bundles) == {1, 2, 3}

    def test_bundle_seed_matches_member(self, rng):
        bundles = generate_share_bundles(
            DEFAULT_FIELD, 1, (100,), cluster_seeds(1, 2, 3), rng
        )
        for member, bundle in bundles.items():
            assert bundle.eval_seed == seed_for_node(member)
            assert bundle.origin == 1

    def test_arity_preserved(self, rng):
        bundles = generate_share_bundles(
            DEFAULT_FIELD, 1, (7, -3, 11), cluster_seeds(1, 2), rng
        )
        assert all(len(b.values) == 3 for b in bundles.values())

    def test_negative_components_supported(self, rng):
        bundles = generate_share_bundles(
            DEFAULT_FIELD, 1, (-50,), cluster_seeds(1, 2, 3), rng
        )
        assembled = {
            b.eval_seed: b.values for b in bundles.values()
        }
        assert recover_cluster_sums(DEFAULT_FIELD, assembled) == (-50,)

    def test_origin_must_be_member(self, rng):
        with pytest.raises(ShareAlgebraError):
            generate_share_bundles(
                DEFAULT_FIELD, 9, (1,), cluster_seeds(1, 2), rng
            )

    def test_too_small_cluster_rejected(self, rng):
        with pytest.raises(ShareAlgebraError):
            generate_share_bundles(DEFAULT_FIELD, 1, (1,), cluster_seeds(1), rng)

    def test_seeds_congruent_mod_q_rejected(self, rng):
        # Raw values differ, but the algebra works mod q: congruent seeds
        # would make the Vandermonde system singular.
        q = DEFAULT_FIELD.q
        seeds = {1: 2, 2: 3, 3: 2 + q}
        with pytest.raises(ShareAlgebraError):
            generate_share_bundles(DEFAULT_FIELD, 1, (10,), seeds, rng)

    def test_seed_congruent_to_zero_rejected(self, rng):
        q = DEFAULT_FIELD.q
        seeds = {1: 2, 2: 2 * q}  # raw non-zero, but ≡ 0 mod q
        with pytest.raises(ShareAlgebraError):
            generate_share_bundles(DEFAULT_FIELD, 1, (10,), seeds, rng)


class TestAssemblyAndRecovery:
    def test_full_cluster_roundtrip(self, rng):
        """Each of three members slices its value; assembling the F-values
        and interpolating recovers the exact cluster sum."""
        field = DEFAULT_FIELD
        members = cluster_seeds(4, 7, 9)
        values = {4: 120, 7: -35, 9: 2_000_000}
        all_bundles = {
            origin: generate_share_bundles(field, origin, (v,), members, rng)
            for origin, v in values.items()
        }
        assembled = {}
        for member, seed in members.items():
            received = [all_bundles[origin][member] for origin in values]
            assembled[seed] = sum_share_values(field, received)
        sums = recover_cluster_sums(field, assembled)
        assert sums == (sum(values.values()),)

    def test_multi_component_roundtrip(self, rng):
        field = DEFAULT_FIELD
        members = cluster_seeds(1, 2, 3, 4)
        component_vectors = {1: (10, 1), 2: (20, 1), 3: (30, 1), 4: (-5, 1)}
        all_bundles = {
            origin: generate_share_bundles(field, origin, vec, members, rng)
            for origin, vec in component_vectors.items()
        }
        assembled = {}
        for member, seed in members.items():
            received = [all_bundles[origin][member] for origin in members]
            assembled[seed] = sum_share_values(field, received)
        assert recover_cluster_sums(field, assembled) == (55, 4)

    def test_mixed_seed_assembly_rejected(self):
        a = ShareBundle(origin=1, eval_seed=2, values=(1,))
        b = ShareBundle(origin=2, eval_seed=3, values=(1,))
        with pytest.raises(ShareAlgebraError):
            sum_share_values(DEFAULT_FIELD, [a, b])

    def test_mixed_arity_assembly_rejected(self):
        a = ShareBundle(origin=1, eval_seed=2, values=(1,))
        b = ShareBundle(origin=2, eval_seed=2, values=(1, 2))
        with pytest.raises(ShareAlgebraError):
            sum_share_values(DEFAULT_FIELD, [a, b])

    def test_empty_assembly_rejected(self):
        with pytest.raises(ShareAlgebraError):
            sum_share_values(DEFAULT_FIELD, [])

    def test_empty_recovery_rejected(self):
        with pytest.raises(ShareAlgebraError):
            recover_cluster_sums(DEFAULT_FIELD, {})


class TestPrivacyProperty:
    def test_single_share_is_uniform_over_small_field(self):
        """Brute force over GF(11): the share a member receives is
        (statistically) independent of the secret — every share value is
        equally likely across the random masks."""
        field = PrimeField(11)
        members = {1: 2, 2: 3}  # two members, degree-1 polynomials
        counts = {v: 0 for v in range(11)}
        secret = 5
        for mask in range(11):
            # manual polynomial: f(x) = secret + mask*x
            share_at_member2 = eval_poly(field, [secret, mask], members[2])
            counts[share_at_member2] += 1
        assert set(counts.values()) == {1}  # perfectly uniform

    def test_m_minus_one_shares_leak_nothing(self, rng):
        """Observing all shares sent OUT by a node except its own-seed
        share must be consistent with any secret: check that for two
        different secrets there exist mask choices producing identical
        observed shares (small-field exhaustive check)."""
        field = PrimeField(11)
        members = {1: 1, 2: 2, 3: 3}
        observed_sets = {}
        for secret in range(11):
            observations = set()
            for m1 in range(11):
                for m2 in range(11):
                    obs = (
                        eval_poly(field, [secret, m1, m2], 2),
                        eval_poly(field, [secret, m1, m2], 3),
                    )
                    observations.add(obs)
            observed_sets[secret] = observations
        # Every observation pattern is possible under every secret.
        union = set.union(*observed_sets.values())
        for secret, observations in observed_sets.items():
            assert observations == union
