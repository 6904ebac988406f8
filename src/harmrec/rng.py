"""Deterministic 64-bit xorshift-family generator for noise draws.

The noise stream must be reproducible bit-for-bit from an integer seed on
any platform, so the generator is pinned here rather than delegated to a
library whose stream may change between versions.  A list of seeds
advances together, one 64-bit lane of a Python int per seed, so a step
costs a few big-int operations however many seeds there are; the output
multiply and the conversion to doubles run on a numpy ``uint64`` array.

Algorithm (all arithmetic mod 2^64):

1. State from seed: the seed is reduced mod 2^64, then one splitmix64 step
       z = seed + 0x9E3779B97F4A7C15
       z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
       z = (z ^ (z >> 27)) * 0x94D049BB133111EB
       state = z ^ (z >> 31)
   and if the state comes out zero (seed 0x61C8864680B583EB) it is replaced
   by 0x9E3779B97F4A7C15.
2. Each draw advances xorshift64*:
       s ^= s >> 12;  s ^= s << 25;  s ^= s >> 27
       output = s * 0x2545F4914F6CDD1D
3. Uniform double in [0, 1): (output >> 11) * 2^-53.
4. Standard normal: Box-Muller on consecutive uniforms (u1, u2),
       z = sqrt(-2 ln u1) * cos(2 pi u2)
   with u1 clamped to at least 2^-53.  ``log`` and ``cos`` are libm's
   (``math``), not numpy's SIMD loops, whose results depend on the CPU.

Test vectors are frozen in the README and in tests/test_rng.py, whose
scalar oracle runs the same steps one Python int at a time.
"""

from __future__ import annotations

import math

import numpy as np

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(seed: int) -> int:
    z = (seed + _GOLDEN) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def uniforms(seeds, n: int) -> np.ndarray:
    """(len(seeds), n) uniforms in [0, 1): row i is the first n draws of
    seed i's stream."""
    k = len(seeds)
    # The k states are the 64-bit lanes of one Python int, seed i's in bits
    # [64i, 64i + 64); each mask keeps a shift's bits inside their own lane.
    s = sum((_splitmix64(int(x) & _M64) or _GOLDEN) << 64 * i for i, x in enumerate(seeds))
    lanes = int.from_bytes((1).to_bytes(8, "little") * k, "little")  # 1 in every lane
    keep12, keep25, keep27 = (lanes * (_M64 >> 12), lanes * (_M64 >> 25 << 25),
                              lanes * (_M64 >> 27))
    states = []
    for _ in range(n):
        s ^= (s >> 12) & keep12
        s ^= (s << 25) & keep25
        s ^= (s >> 27) & keep27
        states.append(s.to_bytes(8 * k, "little"))
    out = np.frombuffer(b"".join(states), dtype="<u8").reshape(n, k) * 0x2545F4914F6CDD1D
    return np.ascontiguousarray(((out >> 11) * 2.0 ** -53).T)


def normals(seeds, n: int) -> np.ndarray:
    """(len(seeds), n) standard normals: normal j of a row takes its
    stream's uniforms 2j and 2j + 1."""
    pairs = uniforms(seeds, 2 * n).reshape(-1, 2).tolist()
    z = [math.sqrt(-2.0 * math.log(max(u1, 2.0 ** -53))) * math.cos(2.0 * math.pi * u2)
         for u1, u2 in pairs]
    return np.array(z, dtype=float).reshape(len(seeds), n)
