"""The stream of ``numpy.random.default_rng((seed, i))`` for a block of i.

``pcg64_block`` computes the raw PCG64 outputs of many sub-streams at once
in numpy uint64 arithmetic: SeedSequence's hashing of the entropy
``(seed, i)``, PCG64's seeding, its 128-bit LCG and the XSL-RR output.
The audits read their samples off it without building a Generator per
sample.
"""

from __future__ import annotations

import itertools

import numpy as np

# SeedSequence's hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32, _MASK64 = 2 ** 32 - 1, 2 ** 64 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(n: int) -> list:
    """The 32-bit words of a non-negative int, low first, as SeedSequence
    splits its entropy."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_state(seed: int, index: np.ndarray) -> list:
    """SeedSequence((seed, i)).generate_state(4, uint64) for each uint32 i
    in index, as four uint64 arrays; all wraparound is on arrays."""
    entropy = [np.full_like(index, w) for w in _seed_words(seed)] + [index]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        out = x * _MIX_L - y * _MIX_R
        return out ^ out >> 16

    pool = [hashmix(entropy[j] if j < len(entropy) else np.zeros_like(index)) for j in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, words = _INIT_B, []
    for j in range(8):
        value = pool[j % 4] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        words.append((value ^ value >> 16).astype(np.uint64))
    return [words[j] | words[j + 1] << 32 for j in range(0, 8, 2)]


def _mul128(ah, al, bh, bl, hi, lo, t) -> None:
    """Write the products mod 2^128 of (ah, al) and (bh, bl) into the uint64
    buffers hi and lo; t is scratch of their shape.  The high word of al bl
    is built from 32-bit limbs, with lo as scratch until it is written."""
    a0, a1, b0, b1 = al & _MASK32, al >> 32, bl & _MASK32, bl >> 32
    np.multiply(a1, b0, out=t)
    np.multiply(a0, b0, out=lo)
    lo >>= 32
    t += lo  # a1 b0 + (a0 b0 >> 32)
    np.multiply(a0, b1, out=lo)
    np.bitwise_and(t, _MASK32, out=hi)
    lo += hi  # a0 b1 + (t & mask)
    np.multiply(a1, b1, out=hi)
    t >>= 32
    hi += t
    lo >>= 32
    hi += lo  # the high word of al bl
    np.multiply(al, bh, out=t)
    hi += t
    np.multiply(ah, bl, out=t)
    hi += t
    np.multiply(al, bl, out=lo)


def _split(values) -> tuple:
    """(hi, lo) uint64 arrays of Python ints below 2^128."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _MASK64 for v in values], dtype=np.uint64))


def pcg64_block(seed: int, start: int, stop: int, k: int) -> np.ndarray:
    """The ``(stop - start, k)`` uint64 array whose row i - start is
    ``np.random.PCG64(np.random.SeedSequence((seed, i))).random_raw(k)``.

    PCG64 seeds with state 0, inc = 2 initseq + 1, a step, state +=
    initstate and a step; output j steps once more and returns the XSL-RR
    of the state.  Unrolled, with M = _PCG_MULT, output j reads the state
    M^(j+2) initstate + (1 + M + ... + M^(j+2)) inc, so every output of
    the block comes from two 128-bit products with per-column constants.
    They and the output step run in place in five ``(rows, k)`` buffers,
    the last of which is returned.
    """
    if not 0 <= start <= stop <= 2 ** 32:
        raise ValueError("need 0 <= start <= stop <= 2**32")
    init_hi, init_lo, seq_hi, seq_lo = _seed_state(
        seed, np.arange(start, stop).astype(np.uint32))
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    powers = [pow(_PCG_MULT, t, 2 ** 128) for t in range(k + 2)]
    sums = [total % 2 ** 128 for total in itertools.accumulate(powers)]
    hi, lo, yh, yl, t = (np.empty((stop - start, k), dtype=np.uint64) for _ in range(5))
    _mul128(*_split(powers[2:]), init_hi[:, None], init_lo[:, None], hi, lo, t)
    _mul128(*_split(sums[2:]), inc_hi[:, None], inc_lo[:, None], yh, yl, t)
    lo += yl
    hi += yh
    hi += lo < yl  # the carry
    lo ^= hi  # XSL: x = hi ^ lo, rotated right by hi >> 58
    hi >>= 58
    np.right_shift(lo, hi, out=yl)
    np.subtract(64, hi, out=hi)
    hi &= 63
    lo <<= hi
    yl |= lo
    return yl


def bounded_draws(seed: int, start: int, stop: int, high: int, n_doubles: int) -> tuple:
    """``rng.integers(1, high + 1)`` and then ``rng.random(n_doubles)`` of
    ``rng = default_rng((seed, i))`` for each i in start..stop, read off one
    pcg64_block: (ints, doubles, rejected) arrays with a row per i.

    The int is Lemire's bounded integer of output 0's low 32 bits, as in
    ``Generator.integers``.  Where that rule rejects the output (fewer than
    high in 2^32) the Generator draws again from its buffered high half, so
    a rejected row holds garbage and only a Generator can draw it.  The
    doubles are ``(out >> 11) 2^-53`` of outputs 1, 2, ..., as in
    ``Generator.random``.
    """
    raw = pcg64_block(seed, start, stop, 1 + n_doubles)
    scaled = (raw[:, 0] & _MASK32) * high
    rejected = (scaled & _MASK32) < (2 ** 32 - high) % high
    return (1 + (scaled >> 32)).astype(np.intp), (raw[:, 1:] >> 11) * 2.0 ** -53, rejected
