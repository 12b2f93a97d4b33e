"""numpy's default_rng(e) for a batch of integer entropies e, with one generator.

default_rng(e) is Generator(PCG64(SeedSequence(e))).  SeedSequence splits e
into 32-bit words, low word first, hashes them into a pool of four words
(mix_entropy) and hashes the pool into four 64-bit words (generate_state).
PCG64 takes the first two as its initial state and the last two as its
stream, and seeds by one step, an add, and another step of its 128-bit LCG
(pcg64_set_seed, pcg_setseq_128_srandom_r).  The code below follows
numpy/random/bit_generator.pyx and numpy/random/src/pcg64/pcg64.{c,h}, with
every 32-bit step run over the whole batch at once.

A PCG64 generator's whole state is its `state` dict: the 128-bit state and
increment, and a buffered 32-bit half, empty after seeding.  Assigning the
dict of PCG64(e) to any PCG64 therefore makes its Generator draw the stream
of a fresh default_rng(e), without building a SeedSequence or a generator.
"""
from __future__ import annotations

import numpy as np

MASK32, MASK128 = (1 << 32) - 1, (1 << 128) - 1
POOL_SIZE = 4
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # PCG_DEFAULT_MULTIPLIER_128


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays; `const` advances with every call."""

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    result = np.uint32(MIX_MULT_L) * x - np.uint32(MIX_MULT_R) * y
    return result ^ result >> 16


def pcg64_states(entropies) -> list[tuple[int, int]]:
    """(state, inc) of np.random.PCG64(e).state["state"], for each
    non-negative integer e of any width."""
    entropies = [int(e) for e in entropies]
    if min(entropies) < 0:
        raise ValueError("expected non-negative integer")
    bits = np.array([e.bit_length() for e in entropies])
    width = max(POOL_SIZE, -(-int(bits.max()) // 32))
    words = np.frombuffer(
        b"".join(e.to_bytes(4 * width, "little") for e in entropies), dtype="<u4"
    ).reshape(-1, width).T.astype(np.uint32)  # words[i]: word i of every entropy, 0 past its end
    hashmix = _hasher(INIT_A, MULT_A)
    # mix_entropy: the first POOL_SIZE words (0 past an entropy's end, as numpy
    # pads), every pool word into every other, then each further word into all
    pool = [hashmix(w) for w in words[:POOL_SIZE]]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(POOL_SIZE, width):
        for dst in range(POOL_SIZE):
            pool[dst] = np.where(bits > 32 * src, _mix(pool[dst], hashmix(words[src])), pool[dst])
    # generate_state(4, np.uint64): eight 32-bit words from the cycled pool, little end first
    hashmix = _hasher(INIT_B, MULT_B)
    half = np.array([hashmix(pool[i % POOL_SIZE]) for i in range(2 * POOL_SIZE)], dtype=np.uint64)
    seed = (half[0::2] | half[1::2] << np.uint64(32)).tolist()
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*seed):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & MASK128
        states.append((((inc + (s_hi << 64 | s_lo)) * PCG_MULTIPLIER + inc) & MASK128, inc))
    return states


def streams(entropies):
    """For each entropy e in order, a Generator in the state of a fresh
    np.random.default_rng(e).  It is one Generator, re-seeded by state
    assignment before each yield: take one stream's draws before the next."""
    rng = np.random.Generator(np.random.PCG64(0))
    for state, inc in pcg64_states(entropies):
        rng.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        }
        yield rng
