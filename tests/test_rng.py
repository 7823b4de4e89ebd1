"""Counter-mode SplitMix64 stream: frozen vectors, splitting, vectorization."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tangledpath.rng import (
    GOLDEN,
    derive,
    derive_array,
    mix64,
    mix64_array,
    stream_u64,
    uniform_matrix,
)
from conftest import SplitMix64

# First three outputs of the reference SplitMix64 generator at seed 0.
SEED0_VECTOR = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_seed_zero_reference_vector():
    gen = SplitMix64(0)
    assert tuple(gen.next_u64() for _ in range(3)) == SEED0_VECTOR


def test_stream_matches_generator():
    for seed in (0, 1, 0xDEADBEEF, 2**64 - 1):
        gen = SplitMix64(seed)
        expect = [gen.next_u64() for _ in range(20)]
        assert list(stream_u64(seed, 0, 20)) == expect


def test_stream_slices_compose():
    whole = stream_u64(12345, 0, 50)
    part = stream_u64(12345, 17, 9)
    assert np.array_equal(part, whole[17:26])


def test_uniforms_in_unit_interval():
    gen = SplitMix64(7)
    us = gen.uniforms(1000)
    assert us.min() >= 0.0 and us.max() < 1.0
    assert abs(us.mean() - 0.5) < 0.05


def test_counts_below_zero_are_refused_before_the_stream_moves():
    gen = SplitMix64(7)
    for call in (lambda: stream_u64(7, -1, 3), lambda: stream_u64(7, 0, -1),
                 lambda: gen.uniforms(-1), lambda: gen.uniforms(2.5),
                 lambda: uniform_matrix(np.array([7], dtype=np.uint64), -1)):
        with pytest.raises(ValueError, match="(start|count|ncols)"):
            call()
    assert gen.counter == 0 and gen.uniform() == SplitMix64(7).uniform()


def test_uniform_matrix_rows_are_per_seed_streams():
    seeds = np.array([3, 99, 2**63], dtype=np.uint64)
    mat = uniform_matrix(seeds, 8)
    for row, seed in zip(mat, seeds):
        gen = SplitMix64(int(seed))
        assert np.array_equal(row, gen.uniforms(8))


def test_derive_chains_left_to_right():
    assert derive(5, 1, 2) == derive(derive(5, 1), 2)
    assert derive(5, 1, 2, 3) == derive(derive(5, 1, 2), 3)
    assert derive(5) == 5


def test_derive_array_matches_scalar():
    parts = np.arange(100, dtype=np.uint64)
    arr = derive_array(42, parts)
    assert arr.dtype == np.uint64
    for p, a in zip(parts, arr):
        assert derive(42, int(p)) == int(a)


def test_derived_seeds_distinct():
    seeds = derive_array(0, np.arange(10000, dtype=np.uint64))
    assert len(np.unique(seeds)) == 10000
    # and across a second level
    assert derive(0, 1, 2) != derive(0, 2, 1)


def test_mix64_array_matches_scalar():
    zs = np.array([0, 1, GOLDEN, 2**64 - 1, 0x123456789ABCDEF0], dtype=np.uint64)
    out = mix64_array(zs.copy())
    for z, o in zip(zs, out):
        assert mix64(int(z)) == int(o)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_mix64_stays_in_range(z):
    assert 0 <= mix64(z) < 2**64


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**32),
)
def test_derive_deterministic(seed, part):
    assert derive(seed, part) == derive(seed, part)


def test_seed_rule_is_integers_mod_2_64():
    """Every seed-taking entry point reads an integer seed mod 2**64 and
    refuses a float, bool, None or string with ValueError."""
    big = 2**70 + 3
    assert derive(-1, 3) == derive(2**64 - 1, 3) and derive(5, big) == derive(5, big % 2**64)
    assert np.array_equal(stream_u64(2**64 + 5, 0, 4), stream_u64(5, 0, 4))
    assert np.array_equal(derive_array(-1, [1, big]),
                          derive_array(2**64 - 1, np.array([1, big % 2**64], dtype=np.uint64)))
    assert np.array_equal(uniform_matrix([3, -1, big], 4),
                          uniform_matrix(np.array([3, 2**64 - 1, big % 2**64], dtype=np.uint64), 4))
    for bad in (1.5, 2.0, True, None, "5"):
        for call in (lambda: derive(bad, 2), lambda: derive(1, bad), lambda: stream_u64(bad, 0, 3),
                     lambda: derive_array(bad, np.arange(3))):
            with pytest.raises(ValueError, match="^(seed|path part) must be an integer"):
                call()
        with pytest.raises(ValueError, match="^path parts must be integers"):
            derive_array(1, [0, bad])
        with pytest.raises(ValueError, match="^seeds must be integers"):
            uniform_matrix([1, bad], 3)
