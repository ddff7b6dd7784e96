"""Declarative rank placements: a registered strategy plus parameters.

A :class:`PlacementSpec` names a rank→host mapping — either a strategy
from the placement registry (:data:`repro.registry.PLACEMENTS`) together
with its keyword parameters, or an explicit permutation — canonicalised
so that equal specs hash and serialise identically, the property sweep
cache keys rely on.  It is the value carried by
``ScenarioSpec.placement``, ``SweepSpec.placements`` entries and
``SweepPoint.placement``.

The spec is *lazy*: the permutation is produced per n_processes by
:meth:`PlacementSpec.permutation`.  Rank *i* runs on host ``perm[i]``;
the identity mapping is the legacy behaviour and collapses to ``None``
everywhere downstream (see :func:`as_placement`), so pre-placement
cache keys and results stay byte-identical.
"""

from __future__ import annotations

import numbers
from collections.abc import Mapping
from dataclasses import dataclass

from ..exceptions import ScenarioError
from ..registry import PLACEMENTS, RegisteredSpec

__all__ = ["PlacementSpec", "as_placement"]

#: Strategy name reserved for explicit permutations; never in the registry.
EXPLICIT = "explicit"


def _validate_permutation(perm) -> tuple[int, ...]:
    """Coerce *perm* to a tuple of ints and check it permutes ``range(n)``.

    Entries must be integers; integral floats (TOML/JSON ``1.0``) pass,
    like integral float params.  Strings and bools are rejected rather
    than read digit by digit or as 0/1.
    """
    if isinstance(perm, (str, bytes)) or not hasattr(perm, "__iter__"):
        raise ScenarioError(
            f"placement perm must be a sequence of ints, got {perm!r}"
        )
    entries = list(perm)
    for x in entries:
        if (
            isinstance(x, bool)
            or not isinstance(x, numbers.Real)
            or not float(x).is_integer()
        ):
            raise ScenarioError(
                f"placement perm entries must be ints, got {x!r} in {perm!r}"
            )
    out = tuple(int(x) for x in entries)
    if sorted(out) != list(range(len(out))):
        raise ScenarioError(
            f"placement permutation must rearrange 0..{len(out) - 1} "
            f"exactly once each, got {out!r}"
        )
    return out


@dataclass(frozen=True)
class PlacementSpec(RegisteredSpec):
    """A rank→host mapping: registered strategy + params, or explicit.

    Strategies are called ``f(n_processes, **params)``; naming,
    parameter canonicalisation and serialisation live in
    :class:`~repro.registry.RegisteredSpec`.  An explicit permutation
    is carried in ``perm`` (the strategy name is then the reserved
    ``"explicit"``) and is only valid at its own n.
    """

    registry = PLACEMENTS
    noun = "placement"
    leading = 1

    name: str = "identity"
    perm: tuple | None = None

    def __post_init__(self) -> None:
        if self.perm is None:
            super().__post_init__()
            return
        if self.params:
            raise ScenarioError("an explicit placement permutation takes no params")
        object.__setattr__(self, "perm", _validate_permutation(self.perm))
        object.__setattr__(self, "name", EXPLICIT)
        object.__setattr__(self, "params", ())

    @property
    def is_explicit(self) -> bool:
        """Whether this spec carries a literal permutation."""
        return self.perm is not None

    @property
    def is_default(self) -> bool:
        """Whether this spec is the do-nothing rank→host mapping.

        Identity is special-cased everywhere: it follows the legacy
        no-placement path bit-for-bit (same routes, same RNG streams,
        same sweep cache keys).  An explicit permutation that happens to
        be ``0..n-1`` in order counts too.
        """
        if self.perm is not None:
            return self.perm == tuple(range(len(self.perm)))
        return super().is_default

    is_identity = is_default

    def key(self) -> str:
        """``round-robin(groups=4)``, or ``explicit[2,0,1,...]``."""
        if self.perm is not None:
            return f"{EXPLICIT}[{','.join(str(p) for p in self.perm)}]"
        return super().key()

    # -- permutation construction ----------------------------------------

    def permutation(self, n_processes: int) -> tuple[int, ...]:
        """The rank→host permutation at one n (rank *i* → host ``[i]``)."""
        n = int(n_processes)
        if n < 1:
            raise ValueError("n_processes must be >= 1")
        if self.perm is not None:
            if len(self.perm) != n:
                raise ScenarioError(
                    f"explicit placement is for n={len(self.perm)}, "
                    f"cannot apply it to n={n}"
                )
            return self.perm
        strategy = PLACEMENTS.get(self.name)
        try:
            raw = strategy(n, **dict(self.params))
        except ValueError as exc:
            raise ScenarioError(
                f"placement {self.key()!r} failed at n={n}: {exc}"
            ) from None
        out = _validate_permutation(raw)
        if len(out) != n:
            raise ScenarioError(
                f"placement {self.name!r} returned {len(out)} entries, "
                f"expected {n}"
            )
        return out

    def to_dict(self) -> dict:
        if self.perm is not None:
            return {"perm": list(self.perm)}
        return super().to_dict()

    def cache_payload(self) -> dict:
        if self.perm is not None:
            return {"perm": list(self.perm)}
        return super().cache_payload()

    @classmethod
    def from_dict(cls, data) -> "PlacementSpec":
        """A spec from a name, a permutation list, or a table/dict."""
        if isinstance(data, (list, tuple)):
            data = {"perm": data}
        if isinstance(data, Mapping) and "perm" in data:
            if "name" in data or "params" in data:
                raise ScenarioError(
                    "placement takes either perm or name/params, not both"
                )
            # Validated here: ``perm = None`` must not read as "no perm".
            data = {**data, "perm": _validate_permutation(data["perm"])}
        return super().from_dict(data)


#: Name/dict/perm/spec → :class:`PlacementSpec`, with identity (and
#: ``None``) collapsed to ``None``: the legacy no-placement path.
as_placement = PlacementSpec.coerce
