"""Counter-based random streams.

Every source of randomness in the package is a named Philox stream keyed
by (seed, stream name). Streams are independent, order-free and cheap to
construct, so scenario i of a Monte Carlo run can be regenerated in
isolation without replaying the first i-1 scenarios.

Derivation rule (logged by the CLI): the 128-bit Philox key is
``seed | blake2b_64(name) << 64`` with the seed truncated to 64 bits.
``stream`` builds a new generator for one name. ``streams`` walks many
names with one generator per thread, re-keyed per name by the same rule,
and the keys of a bridge's level names are hashed once per (stream,
depth).
"""

import functools
import hashlib
import threading

import numpy as np

_MASK64 = (1 << 64) - 1


class _Local(threading.local):
    """Each thread's one re-keyed generator and the state dict that keys it
    (the state setter copies its arrays, so one set serves every key)."""

    def __init__(self):
        self.gen = np.random.Generator(np.random.Philox(0))
        empty = np.zeros(4, dtype=np.uint64)
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": empty, "key": np.zeros(2, dtype=np.uint64)},
            "buffer": empty, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }


_local = _Local()


def stream_key(name: str) -> int:
    """Stable 64-bit digest of a stream name."""
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _philox_key(seed: int, name: str) -> int:
    return (int(seed) & _MASK64) | (stream_key(name) << 64)


def stream(seed: int, name: str) -> np.random.Generator:
    """Generator for the (seed, name) stream."""
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, name)))


def streams(seed: int, names):
    """The (seed, name) stream of each name in turn, as one generator.

    Yields this thread's one Generator for every name, re-keyed to
    counter 0 with an empty buffer, so it draws exactly what
    ``stream(seed, name)`` would. A caller must be done with one stream
    before it takes the next. Re-keying skips the bit generator
    construction, most of the cost of ``stream``.
    """
    return _rekeyed(seed, map(stream_key, names))


@functools.lru_cache(maxsize=64)
def _level_keys(stream: str, depth: int) -> tuple:
    return tuple(stream_key(f"{stream}/L{m}") for m in range(depth + 1))


def level_streams(seed: int, stream: str, depth: int):
    """``streams`` of the bridge levels f"{stream}/L{m}", m = 0..depth,
    their name keys hashed once per (stream, depth)."""
    return _rekeyed(seed, _level_keys(stream, depth))


def _rekeyed(seed: int, name_keys):
    """This thread's generator, keyed (seed, k) for each name key k."""
    gen, state = _local.gen, _local.state
    key, lo = state["state"]["key"], int(seed) & _MASK64
    for k in name_keys:
        key[0], key[1] = lo, k
        gen.bit_generator.state = state
        yield gen


def derive_seed(seed: int, index) -> int:
    """Child seed for a sub-experiment, e.g. one Monte Carlo scenario."""
    return stream_key(f"{int(seed) & _MASK64}/{index}")


def derivation_rule() -> str:
    """Human-readable statement of the seed derivation, for run logs."""
    return (
        "philox key = seed | blake2b64(stream) << 64; "
        "scenario i seed = blake2b64('{seed}/{i}')"
    )
