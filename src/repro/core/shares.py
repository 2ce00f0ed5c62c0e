"""CPDA polynomial share generation.

A node with private component vector ``(c_1, ..., c_A)`` (one entry per
additive aggregate component) in a cluster of ``m`` members draws, for
each component, a uniformly random polynomial of degree ``m-1`` whose
constant term is that component, and evaluates it at every member's
public seed. The share sent to member ``j`` is the vector of evaluations
at ``x_j``; the share at the node's own seed never leaves the node.

Privacy property (proved in the tests by brute force on small fields):
any ``m-1`` of the ``m`` evaluations of a degree-``m-1`` polynomial are
jointly uniform — they carry zero information about the constant term.
"""

from __future__ import annotations

from operator import mul
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from repro.core.field import (
    MERSENNE_61,
    PrimeField,
    m61_add,
    m61_inv,
    m61_mul,
    m61_sub,
    m61_sum,
)
from repro.errors import FieldArithmeticError, ShareAlgebraError


def seed_for_node(node_id: int) -> int:
    """Public, distinct, non-zero field seed for a node: ``node_id + 1``.

    Node ids are unique and non-negative, so seeds are unique and never
    zero (a zero seed would expose constant terms directly). Ids so large
    that ``node_id + 1`` wraps past the field modulus are rejected: the
    algebra works mod ``q``, so a wrapped seed would collide with a small
    node's seed (or hit the forbidden residue 0) and make the share
    matrix singular.
    """
    if node_id < 0:
        raise ShareAlgebraError(f"node ids must be >= 0, got {node_id}")
    if node_id + 1 >= MERSENNE_61:
        raise ShareAlgebraError(
            f"node id {node_id} wraps past the field modulus {MERSENNE_61}"
        )
    return node_id + 1


class ShareBundle(NamedTuple):
    """The share one node sends to one cluster member.

    A named tuple rather than a dataclass: bundles are created ``m`` times
    per node per round, and tuple construction is an order of magnitude
    cheaper than a frozen dataclass ``__init__``.

    Attributes
    ----------
    origin:
        Node id whose private data the polynomial hides.
    eval_seed:
        The seed ``x_j`` this bundle is an evaluation at.
    values:
        One field element per aggregate component.
    """

    origin: int
    eval_seed: int
    values: Tuple[int, ...]


def generate_share_bundles(
    field: PrimeField,
    origin: int,
    components: Sequence[int],
    member_seeds: Mapping[int, int],
    rng: np.random.Generator,
) -> Dict[int, ShareBundle]:
    """Split ``components`` into per-member :class:`ShareBundle` objects.

    Parameters
    ----------
    field:
        The prime field to work in.
    origin:
        The sharing node's id (must appear in ``member_seeds``).
    components:
        The node's additive inputs (signed integers; fixed-point encoded
        readings, counts, squares...).
    member_seeds:
        Cluster member id -> public seed, **including the origin**.
    rng:
        Random stream for the masking coefficients.

    Returns
    -------
    dict
        member id -> bundle, including the origin's own (kept local,
        never transmitted).

    Raises
    ------
    ShareAlgebraError
        For clusters smaller than 2, duplicate seeds, or an origin
        missing from the member map.
    """
    if origin not in member_seeds:
        raise ShareAlgebraError(f"origin {origin} not in member seed map")
    if len(member_seeds) < 2:
        raise ShareAlgebraError(
            f"share generation needs >= 2 members, got {len(member_seeds)}"
        )
    q = field.q
    degree = len(member_seeds) - 1
    bases = _seed_power_bases(field, tuple(member_seeds.values()))

    # One vectorized draw for the whole masking matrix. The row-major
    # flattening consumes the stream in exactly the per-component order
    # the scalar loop used, so runs stay bit-identical across versions.
    masks = rng.integers(0, q, size=(len(components), degree)).tolist()
    half = q // 2
    constants = []
    for component in components:
        component = int(component)
        if component >= half or -component >= half:
            # Centered lift: only |component| < q // 2 decodes back
            # (PrimeField.decode_signed).
            raise FieldArithmeticError(
                f"value {component} outside centered range of GF({q})"
            )
        constants.append(component % q)
    polynomials = list(zip(constants, masks))

    bundles: Dict[int, ShareBundle] = {}
    for member, seed in member_seeds.items():
        # Evaluate every polynomial against the precomputed power basis
        # for this seed: a C-level map/mul dot product with the constant
        # term as the start value and a single final reduction beats
        # Horner's per-step reductions at cluster-sized degrees.
        tail = bases[seed]
        values = tuple(
            [sum(map(mul, mask_row, tail), constant) % q
             for constant, mask_row in polynomials]
        )
        bundles[member] = ShareBundle(origin, seed, values)
    return bundles


#: Validated seed sets -> per-seed power bases ``[x, x^2, ..., x^(m-1)]``
#: (mod q). A cluster's seed set is identical for all m members and every
#: round, so validation and basis construction amortise to one dict hit.
_BASIS_CACHE: Dict[Tuple[int, Tuple[int, ...]], Dict[int, List[int]]] = {}
_BASIS_CACHE_MAX = 4096


def _seed_power_bases(
    field: PrimeField, seeds: Tuple[int, ...]
) -> Dict[int, List[int]]:
    """Validate a seed tuple and return its per-seed mask power bases.

    The algebra operates mod ``q``: distinctness and the non-zero rule are
    checked on the residues, or two seeds congruent mod ``q`` would pass
    and make the Vandermonde system singular.
    """
    key = (field.q, seeds)
    bases = _BASIS_CACHE.get(key)
    if bases is not None:
        return bases
    q = field.q
    residues = [seed % q for seed in seeds]
    if len(set(residues)) != len(residues):
        raise ShareAlgebraError(f"duplicate seeds (mod {q}) in member map: {list(seeds)}")
    if any(residue == 0 for residue in residues):
        raise ShareAlgebraError("seed congruent to 0 is forbidden")
    degree = len(seeds) - 1
    bases = {}
    for seed, x in zip(seeds, residues):
        tail = [0] * degree
        acc = 1
        for k in range(degree):
            acc = acc * x % q
            tail[k] = acc
        bases[seed] = tail
    if len(_BASIS_CACHE) >= _BASIS_CACHE_MAX:
        _BASIS_CACHE.clear()
    _BASIS_CACHE[key] = bases
    return bases


def sum_share_values(
    field: PrimeField, bundles: Sequence[ShareBundle]
) -> Tuple[int, ...]:
    """Componentwise field sum of bundles that share an evaluation seed.

    This is the assembly step performed by each member ``j``:
    ``F(x_j) = Σ_i f_i(x_j)``.

    Raises
    ------
    ShareAlgebraError
        If bundles disagree on seed or arity, or the list is empty.
    """
    if not bundles:
        raise ShareAlgebraError("cannot assemble zero bundles")
    seed = bundles[0].eval_seed
    arity = len(bundles[0].values)
    for bundle in bundles:
        if bundle.eval_seed != seed:
            raise ShareAlgebraError(
                f"mixed seeds in assembly: {bundle.eval_seed} != {seed}"
            )
        if len(bundle.values) != arity:
            raise ShareAlgebraError(
                f"mixed arity in assembly: {len(bundle.values)} != {arity}"
            )
    return tuple(
        field.sum(bundle.values[k] for bundle in bundles) for k in range(arity)
    )


def recover_cluster_sums(
    field: PrimeField,
    assembled: Mapping[int, Sequence[int]],
) -> Tuple[int, ...]:
    """Recover the cluster's component sums from assembled F-values.

    Parameters
    ----------
    assembled:
        seed ``x_j`` -> ``F(x_j)`` component vector, for **all** m seeds.

    Returns
    -------
    tuple
        Signed component sums ``Σ_i c_i`` (decoded from the field).

    Raises
    ------
    ShareAlgebraError
        If arities disagree or the map is empty.
    """
    if not assembled:
        raise ShareAlgebraError("cannot recover from zero F-values")
    arities = {len(values) for values in assembled.values()}
    if len(arities) != 1:
        raise ShareAlgebraError(f"mixed arities in F-values: {arities}")
    arity = arities.pop()
    sums = []
    for k in range(arity):
        points = [(seed, values[k]) for seed, values in assembled.items()]
        sums.append(field.decode_signed(field.lagrange_constant_term(points)))
    return tuple(sums)


# -- batched cross-cluster share algebra --------------------------------------
#
# The scalar path above runs one ``m``-member cluster at a time in pure
# Python; at 20k nodes that is thousands of per-member polynomial loops.
# The batched path stacks *every same-size cluster* into padded-dense
# arrays — seeds ``(C, m)``, components ``(C, m, A)`` — and runs the
# whole pipeline (mask draw, polynomial evaluation, F-assembly, Lagrange
# recovery) as a fixed number of vectorized Mersenne-61 kernel calls.
# Ragged cluster sets are handled by grouping: the caller buckets
# clusters by ``m`` and makes one call per bucket.
#
# Determinism contract: fed the same ``rng``, the batched mask draw
# ``integers(0, q, size=(C, m, A, m-1))`` consumes the bit stream element
# by element in row-major order — exactly the concatenation of the
# per-member ``(A, m-1)`` draws the scalar loop makes — so batched and
# scalar produce *identical* shares, F-values, and sums for the same
# stream state (asserted by tests/core/test_shares_batched.py).


class BatchedClusterShares(NamedTuple):
    """Whole-pipeline products for one batch of same-size clusters.

    Attributes
    ----------
    seeds:
        ``(C, m)`` uint64 — canonical member seeds per cluster.
    shares:
        ``(C, m, A, m)`` uint64 — ``shares[c, i, a, j]`` is member ``i``'s
        polynomial for component ``a`` evaluated at member ``j``'s seed.
    fvalues:
        ``(C, A, m)`` uint64 — assembled ``F(x_j) = Σ_i f_i(x_j)``.
    weights:
        ``(C, m)`` uint64 — constant-term Lagrange weights per cluster.
    sums:
        ``(C, A)`` int64 — signed (decoded) cluster component sums.
    """

    seeds: np.ndarray
    shares: np.ndarray
    fvalues: np.ndarray
    weights: np.ndarray
    sums: np.ndarray


def _require_m61(field: PrimeField) -> None:
    if field.q != MERSENNE_61:
        raise ShareAlgebraError(
            f"batched share algebra requires GF(2^61-1), got GF({field.q})"
        )


def _validated_seed_matrix(field: PrimeField, seeds: np.ndarray) -> np.ndarray:
    """Reduce a ``(C, m)`` seed matrix and apply the scalar-path checks:
    at least two members, per-cluster distinctness mod q, no zero seed."""
    seeds = np.asarray(seeds)
    if seeds.ndim != 2:
        raise ShareAlgebraError(f"seed matrix must be (C, m), got {seeds.shape}")
    if seeds.shape[1] < 2:
        raise ShareAlgebraError(
            f"share generation needs >= 2 members, got {seeds.shape[1]}"
        )
    seeds = seeds.astype(np.uint64)
    seeds = np.where(seeds >= _Q_U64, seeds % _Q_U64, seeds)
    if np.any(seeds == 0):
        raise ShareAlgebraError("seed congruent to 0 is forbidden")
    ordered = np.sort(seeds, axis=1)
    if np.any(ordered[:, 1:] == ordered[:, :-1]):
        raise ShareAlgebraError(f"duplicate seeds (mod {field.q}) in member map")
    return seeds


_Q_U64 = np.uint64(MERSENNE_61)


def batched_seed_powers(field: PrimeField, seeds: np.ndarray) -> np.ndarray:
    """Per-seed mask power bases ``x, x^2, ..., x^(m-1)``: ``(C, m, m-1)``.

    The batched analogue of :func:`_seed_power_bases`.
    """
    seeds = _validated_seed_matrix(field, seeds)
    clusters, m = seeds.shape
    degree = m - 1
    powers = np.empty((clusters, m, degree), dtype=np.uint64)
    acc = seeds.copy()
    for k in range(degree):
        powers[:, :, k] = acc
        if k + 1 < degree:
            acc = m61_mul(acc, seeds)
    return powers


def batched_generate_shares(
    field: PrimeField,
    seeds: np.ndarray,
    components: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate every member's shares for a batch of ``m``-clusters.

    Parameters
    ----------
    seeds:
        ``(C, m)`` public member seeds.
    components:
        ``(C, m, A)`` signed additive inputs (centered-lift encoded on
        the way in, same range contract as :func:`generate_share_bundles`).
    rng:
        Mask stream; consumed identically to ``C*m`` scalar
        :func:`generate_share_bundles` calls in row-major cluster order.

    Returns
    -------
    ndarray
        ``(C, m, A, m)`` uint64 share tensor (see
        :class:`BatchedClusterShares`).
    """
    _require_m61(field)
    seeds = _validated_seed_matrix(field, seeds)
    components = np.asarray(components, dtype=np.int64)
    clusters, m = seeds.shape
    if components.ndim != 3 or components.shape[:2] != (clusters, m):
        raise ShareAlgebraError(
            f"components must be (C, m, A) = ({clusters}, {m}, A), "
            f"got {components.shape}"
        )
    arity = components.shape[2]
    degree = m - 1
    half = field.q // 2
    if np.any(np.abs(components) >= half):
        offender = components[np.abs(components) >= half].flat[0]
        raise FieldArithmeticError(
            f"value {int(offender)} outside centered range of GF({field.q})"
        )
    constants = np.where(
        components < 0, components + np.int64(field.q), components
    ).astype(np.uint64)

    # int64 draw dtype: byte-for-byte the stream consumption of the
    # scalar path's default-dtype integers() calls.
    masks = rng.integers(
        0, field.q, size=(clusters, m, arity, degree), dtype=np.int64
    ).astype(np.uint64)
    powers = batched_seed_powers(field, seeds)

    # shares[c, i, a, j] = constants[c, i, a] + Σ_k masks[c,i,a,k] x_j^(k+1)
    shares = np.broadcast_to(
        constants[:, :, :, None], (clusters, m, arity, m)
    ).copy()
    for k in range(degree):
        term = m61_mul(
            masks[:, :, :, k][:, :, :, None],
            powers[:, :, k][:, None, None, :],
        )
        shares = m61_add(shares, term)
    return shares


def batched_assemble_fvalues(field: PrimeField, shares: np.ndarray) -> np.ndarray:
    """Assemble ``F(x_j) = Σ_i f_i(x_j)`` for every cluster: ``(C, A, m)``."""
    _require_m61(field)
    shares = np.asarray(shares, dtype=np.uint64)
    if shares.ndim != 4:
        raise ShareAlgebraError(
            f"share tensor must be (C, m, A, m), got {shares.shape}"
        )
    return m61_sum(shares, axis=1)


def batched_lagrange_weights(field: PrimeField, seeds: np.ndarray) -> np.ndarray:
    """Constant-term Lagrange weights for every cluster: ``(C, m)``.

    ``w[c, j] = Π_{k≠j} x_k / (x_k - x_j)`` — the batched analogue of
    :meth:`PrimeField.lagrange_weights`, solved with one product-tree
    inverse (:func:`~repro.core.field.m61_inv`) over the whole
    denominator matrix.
    """
    _require_m61(field)
    seeds = _validated_seed_matrix(field, seeds)
    clusters, m = seeds.shape
    numerators = np.ones((clusters, m), dtype=np.uint64)
    denominators = np.ones((clusters, m), dtype=np.uint64)
    for k in range(m):
        xk = seeds[:, k]
        diff = m61_sub(xk[:, None], seeds)
        diff[:, k] = np.uint64(1)  # j == k contributes nothing
        denominators = m61_mul(denominators, diff)
        factor = np.broadcast_to(xk[:, None], (clusters, m)).copy()
        factor[:, k] = np.uint64(1)
        numerators = m61_mul(numerators, factor)
    return m61_mul(numerators, m61_inv(denominators))


def batched_recover_sums(
    field: PrimeField, fvalues: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Signed cluster component sums from assembled F-values: ``(C, A)``.

    Interpolation at zero is the weighted dot product over the seed axis,
    followed by the centered-lift decode.
    """
    _require_m61(field)
    fvalues = np.asarray(fvalues, dtype=np.uint64)
    weights = np.asarray(weights, dtype=np.uint64)
    if fvalues.ndim != 3 or weights.ndim != 2 or (
        fvalues.shape[0] != weights.shape[0]
        or fvalues.shape[2] != weights.shape[1]
    ):
        raise ShareAlgebraError(
            f"shape mismatch: fvalues {fvalues.shape} vs weights {weights.shape}"
        )
    raw = m61_sum(m61_mul(fvalues, weights[:, None, :]), axis=-1)
    signed = raw.astype(np.int64)
    half = np.int64(field.q // 2)
    return np.where(signed > half, signed - np.int64(field.q), signed)


def batched_cluster_shares(
    field: PrimeField,
    member_ids: np.ndarray,
    components: np.ndarray,
    rng: np.random.Generator,
) -> BatchedClusterShares:
    """Run the whole pipeline for one batch of same-size clusters.

    ``member_ids`` is ``(C, m)`` node ids; seeds are derived exactly as
    :func:`seed_for_node` does (``node_id + 1``, same rejection rules).
    """
    member_ids = np.asarray(member_ids, dtype=np.int64)
    if member_ids.ndim != 2:
        raise ShareAlgebraError(
            f"member id matrix must be (C, m), got {member_ids.shape}"
        )
    if np.any(member_ids < 0):
        offender = member_ids[member_ids < 0].flat[0]
        raise ShareAlgebraError(f"node ids must be >= 0, got {int(offender)}")
    if np.any(member_ids + 1 >= field.q):
        offender = member_ids[member_ids + 1 >= field.q].flat[0]
        raise ShareAlgebraError(
            f"node id {int(offender)} wraps past the field modulus {field.q}"
        )
    seeds = (member_ids + 1).astype(np.uint64)
    shares = batched_generate_shares(field, seeds, components, rng)
    fvalues = batched_assemble_fvalues(field, shares)
    weights = batched_lagrange_weights(field, seeds)
    sums = batched_recover_sums(field, fvalues, weights)
    return BatchedClusterShares(
        seeds=seeds, shares=shares, fvalues=fvalues, weights=weights, sums=sums
    )
