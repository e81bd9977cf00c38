"""Deterministic seed derivation by labeled hashing.

All randomness in the experiment harness flows from one root seed; module
and per-task seeds are derived by hashing stable labels, so adding a task
(a method, a grid cell) never shifts the random streams of the others. A
per-bag seed travels as a hash label (``derive_label``), hashed only once
something reads it, so a bag whose scoring draws nothing and fits no
mixture hashes nothing.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["as_seed_sequence", "derive_seed"]


def derive_seed(*parts) -> np.random.SeedSequence:
    """SeedSequence derived from hashing the labels in ``parts``."""
    return np.random.SeedSequence(_entropy(parts))


class _Label:
    """A derived seed carried as the label it hashes as, ``ss:<entropy>:()``
    (the canonical form of ``SeedSequence(entropy)``). Its parts are hashed
    the first time it is read: when a seed is derived from it, or when it is
    compared or converted with ``str``."""

    __slots__ = ("_parts", "_text")

    def __init__(self, parts: tuple):
        self._parts = parts
        self._text = None

    def __str__(self) -> str:
        if self._text is None:
            self._text = f"ss:{_entropy(self._parts)}:()"
            self._parts = None
        return self._text

    def __eq__(self, other):
        return str(self) == (str(other) if isinstance(other, _Label) else other)

    def __hash__(self) -> int:
        return hash(str(self))

    def __repr__(self) -> str:
        return repr(str(self))


def derive_label(*parts) -> _Label:
    """``derive_seed(*parts)`` as its hash label, for a seed that is only ever
    the parent of other derived seeds: a child derived from it is the one
    derived from the SeedSequence. Building the label skips the
    SeedSequence's own set-up, and a label that nothing reads is never
    hashed."""
    return _Label(parts)


def _entropy(parts) -> int:
    text = "\x1f".join(_canonical(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest(), "little")


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """A copy of ``seed`` if it is a SeedSequence, else a SeedSequence built from it.

    ``spawn`` advances the SeedSequence it is called on, so spawning from the
    copy leaves the caller's seed as it was: the same seed gives the same draws.
    """
    if not isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed)
    return np.random.SeedSequence(
        seed.entropy,
        spawn_key=seed.spawn_key,
        pool_size=seed.pool_size,
        n_children_spawned=seed.n_children_spawned,
    )


def _canonical(part) -> str:
    if isinstance(part, _Label):
        return str(part)
    if isinstance(part, np.random.SeedSequence):
        return f"ss:{part.entropy}:{part.spawn_key}"
    if isinstance(part, (bool, int, np.integer)):
        return f"i:{int(part)}"
    if isinstance(part, (float, np.floating)):
        return f"f:{float(part)!r}"
    if isinstance(part, str):
        return f"s:{part}"
    raise TypeError(f"cannot derive a seed from {type(part).__name__}")
