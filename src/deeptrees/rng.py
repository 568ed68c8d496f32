"""Seed-stream derivation.

Every random draw in the package comes from a generator derived from a
master seed plus a tuple of purpose tags, so adding parallelism or
reordering work never changes the draws of an existing stream.

`generator` is the one definition of a stream. `permutations` draws the
first permutation of many streams that share a master seed's prefix and
differ in their last tag, one per node of a tree level, in one batch:
row j is exactly generator(seeds[j], tag, ids[j]).permutation(n). It
continues NumPy's SeedSequence mixing from the pool of (seed, tag), which
is cached, and mixes every node's id words into its own pool with uint32
array arithmetic. That mixing uses hash constants that do not depend on
the data, so the whole batch moves in step.
"""

import functools
import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ConfigError


def _tag_words(tag) -> tuple[int, ...]:
    if isinstance(tag, (int, np.integer)):
        if tag < 0:
            raise ValueError(f"seed tags must be nonnegative, got {tag}")
        words = []
        tag = int(tag)
        while True:
            words.append(tag & 0xFFFFFFFF)
            tag >>= 32
            if tag == 0:
                return tuple(words)
    if isinstance(tag, str):
        digest = hashlib.sha256(tag.encode("utf-8")).digest()
        return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))
    raise TypeError(f"seed tag must be int or str, got {type(tag).__name__}")


def seed_sequence(master_seed: int, *tags) -> np.random.SeedSequence:
    """Deterministic SeedSequence for (master seed, purpose tags)."""
    if master_seed < 0:
        raise ConfigError(f"seed must be >= 0, got {master_seed}")
    key: list[int] = []
    for tag in tags:
        key.extend(_tag_words(tag))
    return np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(key))


def generator(master_seed: int, *tags) -> np.random.Generator:
    """PCG64 generator on the derived stream."""
    return np.random.Generator(np.random.PCG64(seed_sequence(master_seed, *tags)))


# NumPy's SeedSequence hashing (numpy/random/bit_generator.pyx). Mixing an
# entropy word into its 4-word pool hashes the word once per pool word, each
# hash with the next power of MULT_A times INIT_A as its constant; the pool
# then yields its state words with the powers of MULT_B times INIT_B.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED


def _u32(values) -> np.ndarray:
    return np.array(values, dtype=np.uint32)


def _hash_constants(init: int, mult: int, first: int, count: int) -> list:
    """init * mult**e mod 2**32 for e in first .. first + count - 1."""
    return [init * pow(mult, e, 2**32) % 2**32 for e in range(first, first + count)]


# A word mixed in after hash call c: it is xored with constant c + i and
# multiplied by constant c + i + 1 for pool word i, and the next word starts
# POOL_SIZE calls later.
_NEXT_WORD = _u32(pow(_MULT_A, _POOL_SIZE, 2**32))
_STATE_XOR = _u32(_hash_constants(_INIT_B, _MULT_B, 0, 2 * _POOL_SIZE))
_STATE_MUL = _u32(_hash_constants(_INIT_B, _MULT_B, 1, 2 * _POOL_SIZE))
_MIX_L, _MIX_R, _XSHIFT = _u32(0xCA01F9DD), _u32(0x4973F715), _u32(16)


@functools.lru_cache(maxsize=1024)
def _pool_after(master_seed: int, tag) -> tuple[int, ...]:
    """The SeedSequence pool of (master_seed, tag) and the xor and multiply
    constants of the next entropy word: 12 uint32 values."""
    sequence = seed_sequence(master_seed, tag)
    # the seed's words, zero-padded to the pool size, then the tag's
    mixed = max(_POOL_SIZE, (master_seed.bit_length() + 31) // 32) + len(sequence.spawn_key)
    # one hash call per pool word for every word mixed, the cross-mixing of
    # the first pool-size words included
    calls = _POOL_SIZE * mixed
    return (
        *sequence.pool.tolist(),
        *_hash_constants(_INIT_A, _MULT_A, calls, _POOL_SIZE),
        *_hash_constants(_INIT_A, _MULT_A, calls + 1, _POOL_SIZE),
    )


class _StateWords(ISeedSequence):
    """Hands PCG64 the four uint64 seed words computed for it."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (len(self.words), np.uint64):
            raise ValueError(f"precomputed state holds {len(self.words)} uint64 words")
        return self.words


def permutations(seeds, tag, ids, n: int) -> np.ndarray:
    """(len(ids), n) int64 matrix whose row j equals
    generator(seeds[j], tag, ids[j]).permutation(n)."""
    k = len(ids)
    out = np.empty((k, n), dtype=np.int64)
    if k == 0:
        return out
    if min(ids) < 0:
        raise ValueError(f"seed tags must be nonnegative, got {min(ids)}")
    width = max(1, (int(max(ids)).bit_length() + 31) // 32)
    words = np.frombuffer(
        b"".join(int(i).to_bytes(4 * width, "little") for i in ids), dtype="<u4"
    ).reshape(k, width)
    prefix = _u32([_pool_after(int(seed), tag) for seed in seeds])
    pool, xor, mul = prefix[:, :4], prefix[:, 4:8], prefix[:, 8:]
    # id word p is mixed into the pools of the ids that have it; a shorter
    # id has run out of words for good, so its constants may run on
    for p in range(width):
        if p:
            xor, mul = xor * _NEXT_WORD, mul * _NEXT_WORD
        hashed = words[:, p : p + 1] ^ xor
        hashed *= mul
        hashed ^= hashed >> _XSHIFT
        mixed = _MIX_L * pool - _MIX_R * hashed
        mixed ^= mixed >> _XSHIFT
        pool = mixed if p == 0 else np.where(words[:, p:].any(axis=1)[:, None], mixed, pool)
    # generate_state(4, uint64): eight uint32 words cycling over the pool
    state = np.concatenate((pool, pool), axis=1) ^ _STATE_XOR
    state *= _STATE_MUL
    state ^= state >> _XSHIFT
    state = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    for j in range(k):
        out[j] = np.random.Generator(np.random.PCG64(_StateWords(state[j]))).permutation(n)
    return out
