"""Counter-based random streams.

Every random value in the package is produced by a Philox generator keyed
by (master seed, purpose tag) with the counter set from an integer index
tuple.  This makes each value a pure function of its coordinates: sampling
is independent of enumeration order and of how work is split across
processes.
"""

import numpy as np

_MASK64 = (1 << 64) - 1

# Purpose tags decorrelate independent uses of the same master seed.
SITE_VALUES = 1
TRIAL_STREAM = 2
EVENT_TRIALS = 3
COMBINATIONS = 4

# Philox-4x64-10 constants (Salmon et al., Random123), as NumPy uses them.
_PHILOX_ROUNDS = 10
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]],
                     dtype=np.uint64)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LOW32, _PHILOX_M >> _U32


def _counter_words(index):
    index = tuple(int(i) for i in index)
    if len(index) > 4:
        raise ValueError("counter streams support index tuples of length <= 4")
    words = [i & _MASK64 for i in index] + [0] * (4 - len(index))
    return np.array(words, dtype=np.uint64)


def stream(seed, purpose, index=()):
    """Fresh generator for (seed, purpose, index)."""
    key = (int(seed) & _MASK64) | ((int(purpose) & _MASK64) << 64)
    bitgen = np.random.Philox(key=key, counter=_counter_words(index))
    return np.random.Generator(bitgen)


def _mulhilo(x):
    """(low, high) 64-bit words of _PHILOX_M * x, row by row, in uint64."""
    m_lo, m_hi = _PHILOX_M_LO, _PHILOX_M_HI
    x_lo, x_hi = x & _LOW32, x >> _U32
    lh, hl = m_lo * x_hi, m_hi * x_lo
    mid = ((m_lo * x_lo) >> _U32) + (lh & _LOW32) + (hl & _LOW32)
    return _PHILOX_M * x, m_hi * x_hi + (lh >> _U32) + (hl >> _U32) + (mid >> _U32)


def uniforms_at(seed, purpose, coords):
    """stream(seed, purpose, c).random() for every row c of an (m, <=4)
    integer array.

    One Philox-4x64-10 evaluation over all rows: a generator's first
    random() increments the counter words (with carry) and maps the first
    output word x to (x >> 11) * 2^-53.  Row entries are counter words
    modulo 2^64, as in stream.
    """
    coords = np.asarray(coords, dtype=np.int64)
    if coords.shape == (0,):
        coords = coords.reshape(0, 0)
    if coords.ndim != 2 or coords.shape[1] > 4:
        raise ValueError("coords must be an (m, k <= 4) integer array")
    words = np.zeros((4, coords.shape[0]), dtype=np.uint64)
    words[:coords.shape[1]] = coords.T.view(np.uint64)
    carry = np.ones(coords.shape[0], dtype=bool)
    for w in words:
        w += carry
        carry &= w == 0
    seed, purpose = int(seed) & _MASK64, int(purpose) & _MASK64
    v0, v1, v2, v3 = words
    for r in range(_PHILOX_ROUNDS):
        k0 = np.uint64((seed + r * _PHILOX_W[0]) & _MASK64)
        k1 = np.uint64((purpose + r * _PHILOX_W[1]) & _MASK64)
        (lo0, lo1), (hi0, hi1) = _mulhilo(np.stack((v0, v2)))
        v0, v1, v2, v3 = hi1 ^ v1 ^ k0, lo1, hi0 ^ v3 ^ k1, lo0
    return (v0 >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def derive_seed(seed, purpose, index):
    """63-bit child seed for a sub-stream."""
    return int(stream(seed, purpose, index).integers(0, 1 << 63))
