"""Integer mixing (avalanche) functions, scalar and vectorized.

These are the work-horses behind every hashing algorithm in this
reproduction.  The paper's ``h(.)`` is an abstract uniform hash function;
we realise it with two well-known 64-bit finalizers:

* :func:`splitmix64` -- the SplitMix64 output function (Steele et al.),
  the mixer for integer keys and hash-family seeds.
* :func:`fmix64` -- the MurmurHash3 64-bit finalizer (Appleby), the
  independent second mixer behind pairwise hashes (:func:`mix_pair`) and
  family derivation.

Every function comes in two flavours with identical semantics:

* a scalar flavour operating on Python ``int`` (masked to 64 bits), and
* a vectorized flavour (suffix ``_vec``) operating element-wise on numpy
  ``uint64`` arrays.

The scalar flavour is the "deployment" path used by the per-request
baselines in the efficiency experiment; the vectorized flavour is the
high-throughput path used by fault-injection campaigns that route millions
of keys.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MASK64",
    "GOLDEN_GAMMA",
    "rotl64",
    "rotl64_vec",
    "splitmix64",
    "splitmix64_vec",
    "fmix64",
    "fmix64_vec",
    "fmix64_inplace",
    "mix_pair",
    "mix_pair_vec",
]

#: All-ones 64-bit mask; Python ints are arbitrary precision so every
#: scalar operation is masked back into the uint64 domain.
MASK64 = 0xFFFF_FFFF_FFFF_FFFF

#: 2^64 / golden ratio, the Weyl-sequence increment used by SplitMix64.
GOLDEN_GAMMA = 0x9E37_79B9_7F4A_7C15

_SPLITMIX_MUL_1 = 0xBF58_476D_1CE4_E5B9
_SPLITMIX_MUL_2 = 0x94D0_49BB_1331_11EB

_FMIX_MUL_1 = 0xFF51_AFD7_ED55_8CCD
_FMIX_MUL_2 = 0xC4CE_B9FE_1A85_EC53


def rotl64(value: int, count: int) -> int:
    """Rotate a 64-bit integer left by ``count`` bits."""
    value &= MASK64
    count &= 63
    return ((value << count) | (value >> (64 - count))) & MASK64


def rotl64_vec(values: np.ndarray, count: int) -> np.ndarray:
    """Vectorized :func:`rotl64` over a ``uint64`` array."""
    values = np.asarray(values, dtype=np.uint64)
    count &= 63
    if count == 0:
        return values.copy()
    left = np.left_shift(values, np.uint64(count))
    right = np.right_shift(values, np.uint64(64 - count))
    return np.bitwise_or(left, right)


def splitmix64(value: int) -> int:
    """SplitMix64 finalizer: a fast, high-quality 64-bit avalanche mix.

    Bijective on the 64-bit domain, so distinct inputs never collide.
    """
    z = (value + GOLDEN_GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * _SPLITMIX_MUL_1) & MASK64
    z = ((z ^ (z >> 27)) * _SPLITMIX_MUL_2) & MASK64
    return z ^ (z >> 31)


def splitmix64_vec(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`splitmix64` over a ``uint64`` array."""
    z = np.asarray(values, dtype=np.uint64) + np.uint64(GOLDEN_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_SPLITMIX_MUL_1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_SPLITMIX_MUL_2)
    return z ^ (z >> np.uint64(31))


def fmix64(value: int) -> int:
    """MurmurHash3's 64-bit finalizer (fmix64)."""
    k = value & MASK64
    k ^= k >> 33
    k = (k * _FMIX_MUL_1) & MASK64
    k ^= k >> 33
    k = (k * _FMIX_MUL_2) & MASK64
    k ^= k >> 33
    return k


def fmix64_vec(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`fmix64` over a ``uint64`` array."""
    k = np.asarray(values, dtype=np.uint64).copy()
    k ^= k >> np.uint64(33)
    k *= np.uint64(_FMIX_MUL_1)
    k ^= k >> np.uint64(33)
    k *= np.uint64(_FMIX_MUL_2)
    k ^= k >> np.uint64(33)
    return k


def fmix64_inplace(values: np.ndarray) -> np.ndarray:
    """:func:`fmix64_vec` mutating ``values`` in place (no copy).

    The fused routing kernels stream the pairwise weight matrix through
    a preallocated chunk buffer; mixing in place keeps every fmix64 step
    inside that cache-resident block instead of allocating five
    temporaries per chunk.  ``values`` must already be ``uint64``.
    """
    k = values
    k ^= k >> np.uint64(33)
    k *= np.uint64(_FMIX_MUL_1)
    k ^= k >> np.uint64(33)
    k *= np.uint64(_FMIX_MUL_2)
    k ^= k >> np.uint64(33)
    return k


def mix_pair(a: int, b: int) -> int:
    """Hash a pair of 64-bit words into one well-mixed 64-bit word.

    This realises the paper's two-argument ``h(s, r)`` used by rendezvous
    hashing: ``a`` is the server word, ``b`` the request word.  The
    construction chains two independent finalizers so neither argument can
    cancel the other.
    """
    return fmix64(splitmix64(a) ^ rotl64(b, 32) ^ (b & MASK64))


def mix_pair_vec(a: np.ndarray, b) -> np.ndarray:
    """Vectorized :func:`mix_pair`.

    ``a`` and ``b`` broadcast against each other, so a (k,) server array
    against a scalar key gives the k rendezvous weights in one call, and a
    (k, 1) server array against an (m,) key array gives the full (k, m)
    weight matrix.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    return fmix64_vec(splitmix64_vec(a) ^ rotl64_vec(b, 32) ^ b)
