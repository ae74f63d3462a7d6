"""Deterministic random-number streams.

Everything stochastic in this repository — run-to-run measurement noise,
randomised search techniques, workload generators — draws from an
:class:`RngStream`.  Streams are seeded explicitly and can be *forked* into
independent child streams by name, so that adding a new consumer of
randomness never perturbs the draws seen by existing consumers.  This is
the standard reproducibility discipline for simulation codes: the same
(seed, name-path) always yields the same sequence.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Optional, Sequence

import numpy as np

__all__ = ["derive_seed", "derive_seeds", "RngStream"]

# Upper bound for derived seeds; fits comfortably in numpy's SeedSequence.
_SEED_SPACE = 2**63


def _path_hash(base_seed: int, names: Iterable[str]):
    """The BLAKE2b state after hashing ``base_seed`` and ``names``."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(base_seed)).encode("utf-8"))
    for name in names:
        _extend(h, name)
    return h


def _extend(h, name: str):
    h.update(b"\x1f")  # unit separator: ("ab","c") != ("a","bc")
    h.update(str(name).encode("utf-8"))
    return h


def _seed_of(h) -> int:
    return int.from_bytes(h.digest(), "little") % _SEED_SPACE


def derive_seed(base_seed: int, *names: str) -> int:
    """Derive a child seed from ``base_seed`` and a path of names.

    The derivation hashes the (seed, names) pair with BLAKE2b, giving
    well-mixed, platform-independent child seeds.  Distinct name paths map
    to distinct seeds with overwhelming probability.

    Parameters
    ----------
    base_seed:
        The parent seed (any Python int).
    names:
        A path of stream names, e.g. ``("noise", "pennant", "run3")``.

    Returns
    -------
    int
        A non-negative seed ``< 2**63``.
    """
    return _seed_of(_path_hash(base_seed, names))


def derive_seeds(
    base_seed: int, prefix: Sequence[str], leaves: Iterable[str]
) -> List[int]:
    """``[derive_seed(base_seed, *prefix, leaf) for leaf in leaves]``,
    hashing the shared ``prefix`` once: each leaf's seed comes from a
    copy of the prefix's hash state."""
    h = _path_hash(base_seed, prefix)
    return [_seed_of(_extend(h.copy(), leaf)) for leaf in leaves]


class RngStream:
    """A named, forkable wrapper over :class:`numpy.random.Generator`.

    Examples
    --------
    >>> root = RngStream(seed=42)
    >>> noise = root.fork("noise")
    >>> search = root.fork("search")
    >>> a = noise.generator.normal()
    >>> # forking "search" again yields an identical stream:
    >>> b = root.fork("search").generator.random()
    >>> c = root.fork("search").generator.random()
    >>> b == c
    True
    """

    __slots__ = ("seed", "name", "_generator")

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = int(seed)
        self.name = name
        self._generator: Optional[np.random.Generator] = None

    @property
    def generator(self) -> np.random.Generator:
        """The lazily-created numpy generator for this stream."""
        if self._generator is None:
            self._generator = np.random.default_rng(self.seed)
        return self._generator

    def fork(self, *names: str) -> "RngStream":
        """Create an independent child stream identified by ``names``.

        Forking is a pure function of ``(self.seed, names)``; it does not
        advance this stream's generator state.
        """
        if not names:
            raise ValueError("fork() requires at least one name")
        child_seed = derive_seed(self.seed, *names)
        return RngStream(child_seed, name="/".join((self.name, *names)))

    def integers(self, low: int, high: int) -> int:
        """Draw one integer in ``[low, high)``."""
        return int(self.generator.integers(low, high))

    def choice(self, options: Sequence):
        """Pick one element of ``options`` uniformly at random."""
        if len(options) == 0:
            raise ValueError("cannot choose from an empty sequence")
        return options[self.integers(0, len(options))]

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Draw one float uniformly from ``[low, high)``."""
        return float(self.generator.uniform(low, high))

    def lognormal(self, mean: float = 0.0, sigma: float = 1.0) -> float:
        """Draw one lognormal sample (used for run-to-run noise)."""
        return float(self.generator.lognormal(mean, sigma))

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self.generator.shuffle(items)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """A JSON-serializable snapshot of this stream.

        Captures the seed, the name path, and the underlying
        bit-generator state (which advances with every draw), so a
        stream restored with :meth:`load_state` continues the exact
        sequence this one would have produced.
        """
        import copy

        return {
            "seed": self.seed,
            "name": self.name,
            "bit_generator": copy.deepcopy(
                self.generator.bit_generator.state
            ),
        }

    def load_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`.

        The seed and name must match this stream's (guarding against
        restoring a checkpoint into the wrong consumer).
        """
        if int(state["seed"]) != self.seed or state["name"] != self.name:
            raise ValueError(
                f"rng state is for stream {state['name']!r} "
                f"(seed {state['seed']}); this stream is {self.name!r} "
                f"(seed {self.seed})"
            )
        self.generator.bit_generator.state = state["bit_generator"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(name={self.name!r}, seed={self.seed})"
