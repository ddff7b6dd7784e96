"""Declarative traffic patterns: a registered generator plus parameters.

A :class:`PatternSpec` names a generator from the pattern registry
(:data:`repro.registry.PATTERNS`) together with its keyword parameters,
canonicalised so that equal specs hash and serialise identically — the
property sweep cache keys rely on.  It is the value carried by
``WorkloadSpec.pattern``, ``SweepSpec.patterns`` entries and
``SweepPoint.pattern``.

The spec is *lazy*: the byte matrix is produced per (n, msg_size, seed)
coordinate by :meth:`PatternSpec.matrix` and lowered to the paper's §5
message-exchange digraph by :meth:`PatternSpec.med`.  Randomised
generators draw from a named :class:`~repro.simnet.rng.RngFactory`
stream keyed by the full coordinate, so two processes building the same
coordinate always obtain bit-identical matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.med import MED
from ..exceptions import ScenarioError
from ..registry import PATTERNS, RegisteredSpec
from ..simnet.rng import RngFactory

__all__ = ["PatternSpec", "as_pattern"]


@dataclass(frozen=True)
class PatternSpec(RegisteredSpec):
    """A registered traffic-pattern generator plus its parameters.

    Generators are called ``f(n_processes, msg_size, *, rng, **params)``;
    naming, parameter canonicalisation and serialisation live in
    :class:`~repro.registry.RegisteredSpec`.
    """

    registry = PATTERNS
    noun = "pattern"
    leading = 2

    name: str = "uniform"

    @property
    def is_uniform(self) -> bool:
        """Whether this spec is the parameterless regular All-to-All.

        The uniform pattern is special-cased everywhere: it lowers to
        the legacy scalar ``msg_size`` path bit-for-bit (same rank
        programs, same RNG stream names, same sweep cache keys).
        """
        return self.is_default

    # -- matrix construction ---------------------------------------------

    def matrix(self, n_processes: int, msg_size: int, *, seed: int = 0) -> np.ndarray:
        """The (n, n) byte matrix at one (n, msg_size, seed) coordinate."""
        if n_processes < 1:
            raise ValueError("n_processes must be >= 1")
        if msg_size < 1:
            raise ValueError("msg_size must be >= 1 byte")
        rng = RngFactory(seed).stream(
            f"traffic/{self.key()}/{n_processes}/{msg_size}"
        )
        generator = PATTERNS.get(self.name)
        W = np.asarray(
            generator(int(n_processes), int(msg_size), rng=rng, **dict(self.params))
        )
        if W.shape != (n_processes, n_processes):
            raise ScenarioError(
                f"pattern {self.name!r} returned shape {W.shape}, "
                f"expected ({n_processes}, {n_processes})"
            )
        if np.any(W < 0):
            raise ScenarioError(f"pattern {self.name!r} produced negative bytes")
        return W.astype(np.int64)

    def med(self, n_processes: int, msg_size: int, *, seed: int = 0) -> MED:
        """Lower the pattern to the paper's §5 message exchange digraph."""
        return MED.from_matrix(self.matrix(n_processes, msg_size, seed=seed))


#: Name/dict/spec → :class:`PatternSpec`, with ``uniform`` (and ``None``)
#: collapsed to ``None``: the legacy scalar path.
as_pattern = PatternSpec.coerce
