import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from harmrec.rng import normals, uniforms

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
ZERO_STATE_SEED = 0x61C8864680B583EB  # splitmix64 maps it to state 0


class Xorshift64Star:
    """Scalar oracle: the documented generator one Python int at a time."""

    def __init__(self, seed: int):
        z = ((int(seed) & _M64) + _GOLDEN) & _M64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        state = z ^ (z >> 31)
        self._s = state if state != 0 else _GOLDEN

    def next_u64(self) -> int:
        s = self._s
        s ^= s >> 12
        s = (s ^ (s << 25)) & _M64
        s ^= s >> 27
        self._s = s
        return (s * 0x2545F4914F6CDD1D) & _M64

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def normal(self) -> float:
        u1 = max(self.uniform(), 2.0 ** -53)
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


# Frozen outputs of the documented generator (splitmix64 seeding + xorshift64*).
VECTORS = {
    0: [8916199331640804048, 16032783972208265725,
        12954103179475586193, 16173463928478733820],
    1: [5424204624148110235, 15555979849632202484,
        6851360858507811590, 4263911567865507035],
    42: [3580622183945639842, 10378725325292465923,
         8967075514996744559, 5001014893397904463],
    ZERO_STATE_SEED: [973819730272012410, 6108091081255984487,
                      12125365036566318712, 9038174178950858617],
}


def test_frozen_u64_vectors():
    for seed, expected in VECTORS.items():
        rng = Xorshift64Star(seed)
        assert [rng.next_u64() for _ in range(4)] == expected


def test_uniform_from_high_bits():
    seeds = list(VECTORS)
    expected = [[(v >> 11) * 2.0**-53 for v in VECTORS[s]] for s in seeds]
    assert uniforms(seeds, 4).tolist() == expected
    assert uniforms(seeds, 4).shape == (len(seeds), 4)
    assert uniforms([], 4).shape == (0, 4)
    assert uniforms(seeds, 0).shape == (len(seeds), 0)


def test_seeds_reduced_mod_2_64():
    seeds = [-1, 2**64 - 1, 2**70, 0, np.int64(-1), np.uint64(2**64 - 1)]
    u = uniforms(seeds, 8)
    assert (u[0] == u[1]).all() and (u[2] == u[3]).all()
    assert (u[4] == u[0]).all() and (u[5] == u[0]).all()


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.integers(min_value=-2**80, max_value=2**80)
                      | st.sampled_from([0, ZERO_STATE_SEED, _M64]), max_size=6),
       n=st.integers(min_value=0, max_value=300))
def test_uniforms_equal_the_scalar_oracle(seeds, n):
    expected = [[r.uniform() for _ in range(n)] for r in map(Xorshift64Star, seeds)]
    got = uniforms(seeds, n)
    assert got.shape == (len(seeds), n)
    assert got.tolist() == expected


@settings(max_examples=30, deadline=None)
@given(seeds=st.lists(st.integers(min_value=-2**70, max_value=2**70), max_size=4),
       n=st.integers(min_value=0, max_value=150))
def test_normals_equal_the_scalar_oracle(seeds, n):
    expected = [[r.normal() for _ in range(n)] for r in map(Xorshift64Star, seeds)]
    got = normals(seeds, n)
    assert got.shape == (len(seeds), n)
    assert got.tolist() == expected


def test_streams_deterministic_and_seed_dependent():
    a, b, c = uniforms([7, 7, 8], 16)
    assert (a == b).all()
    assert (a != c).any()


def test_uniform_range_and_moments():
    xs = uniforms([123], 4000)[0]
    assert (xs >= 0).all() and (xs < 1).all()
    assert abs(xs.mean() - 0.5) < 0.02
    assert abs(xs.var() - 1 / 12) < 0.005


def test_normal_moments():
    xs = normals([321], 4000)[0]
    assert abs(xs.mean()) < 0.05
    assert abs(xs.std() - 1.0) < 0.05
