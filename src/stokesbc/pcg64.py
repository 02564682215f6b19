"""numpy's ``default_rng(key).random`` streams, computed without numpy.random.

uniforms(keys, count) gives, for each key, the first count doubles of
np.random.default_rng(key).random(count), bit for bit: numpy's SeedSequence
hash of the key seeds a PCG64 generator (a 128-bit LCG with XSL-RR output,
O'Neill 2014), and each double is one 64-bit word w as (w >> 11) 2^-53.
The sweeps draw their modes here because numpy.random brings in secrets,
hashlib and with them OpenSSL's libcrypto; the tests check this module
against numpy.random.

The states of every stream are taken at once.  After i steps of
s -> a s + inc, the state is a^i s_0 + (1 + a + ... + a^(i-1)) inc mod 2^128,
and both coefficients depend on i alone, so they are built once per count
(_jumps).  A 128-bit number is held as four 32-bit limbs, least significant
first, in uint64 arrays, so that the product of two limbs fits a word.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
#: PCG64's LCG multiplier a
_MULTIPLIER = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645

# SeedSequence's hash constants, and the words of its entropy pool
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = 0xCA01_F9DD, 0x4973_F715
_POOL_SIZE = 4


def _entropy(key) -> list[int]:
    """The 32-bit words SeedSequence reads from key, a sequence of ints
    >= 0: the words of each int, least significant first (0 is one word)."""
    words = []
    for n in key:
        if n < 0:
            raise ValueError(f"a key must hold ints >= 0, got {n}")
        words.append(n & _MASK32)
        while n := n >> 32:
            words.append(n & _MASK32)
    return words


def _seed(key) -> tuple[int, int]:
    """PCG64's (state, increment) as np.random.default_rng(key) sets them."""
    entropy = _entropy(key)
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        x = _MIX_L * x - _MIX_R * y & _MASK32
        return x ^ x >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # entropy past the pool's size is mixed into every pool word
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight 32-bit words, paired little-endian
    const = _INIT_B
    words = []
    for word in pool * 2:
        word ^= const
        const = const * _MULT_B & _MASK32
        word = word * const & _MASK32
        words.append(word ^ word >> 16)
    state, initseq = (
        words[i + 1] << 96 | words[i] << 64 | words[i + 3] << 32 | words[i + 2]
        for i in (0, 4)
    )
    # PCG64's srandom: step from 0, add the seed state, step again
    inc = (initseq << 1 | 1) & _MASK128
    return ((inc + state) * _MULTIPLIER + inc) & _MASK128, inc


def _limbs(n: int) -> list[int]:
    return [n >> 32 * k & _MASK32 for k in range(4)]


def _mul_add(*pairs) -> list[np.ndarray]:
    """The limbs of the sum of x y over the (x, y) pairs, mod 2^128, each
    number given as four uint64 limb arrays that broadcast."""
    cols = [0, 0, 0, 0]
    for x, y in pairs:
        for i in range(4):
            for j in range(4 - i):
                p = x[i] * y[j]
                cols[i + j] = cols[i + j] + (p & _MASK32)
                if i + j < 3:
                    cols[i + j + 1] = cols[i + j + 1] + (p >> 32)
    limbs, carry = [], 0
    for col in cols:
        col = col + carry
        limbs.append(col & _MASK32)
        carry = col >> 32
    return limbs


@functools.lru_cache(maxsize=16)
def _jumps(count: int) -> np.ndarray:
    """The limbs of a^i, then those of 1 + a + ... + a^(i-1), over
    i = 1 .. count: a read-only (8, count) array."""
    power, total, words = 1, 0, []
    for _ in range(count):
        power = power * _MULTIPLIER & _MASK128
        total = (total * _MULTIPLIER + 1) & _MASK128
        words.append(power.to_bytes(16, "little") + total.to_bytes(16, "little"))
    limbs = np.frombuffer(b"".join(words), dtype="<u4").reshape(count, 8)
    table = limbs.T.astype(np.uint64)
    table.flags.writeable = False
    return table


def uniforms(keys, count: int) -> np.ndarray:
    """A (len(keys), count) float64 array whose row r is, bit for bit,
    np.random.default_rng(keys[r]).random(count); each key is a sequence of
    ints >= 0."""
    jumps = _jumps(count)
    # the limbs of each key's state, then of its increment: (8, len(keys), 1)
    seeds = np.array(
        [_limbs(state) + _limbs(inc) for state, inc in map(_seed, keys)], dtype=np.uint64
    ).reshape(-1, 8).T[:, :, None]
    low, mid, high, top = _mul_add((jumps[:4], seeds[:4]), (jumps[4:], seeds[4:]))
    # XSL-RR: the xor of the state's two 64-bit halves, rotated right by the
    # state's top 6 bits
    word = (top << 32 | high) ^ (mid << 32 | low)
    rot = top >> 26
    word = word >> rot | word << ((64 - rot) & 63)
    return (word >> 11).astype(np.float64) * 2.0**-53
