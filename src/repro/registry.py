"""Plugin registries: the repo's extension points as data, not edits.

Every axis a scenario can vary — the fabric shape, the calibrated
cluster, the collective algorithm, the measurement backend — is a named
entry in a :class:`Registry`.  Core modules register their built-ins at
import time with the ``@register_*`` decorators; downstream code (and
user scenarios, see :mod:`repro.scenario`) adds new entries the same
way, with zero core-module edits::

    from repro.api import register_topology

    @register_topology("torus-2d")
    def torus_2d(n_hosts, *, nic_bandwidth, ring_bandwidth):
        ...build and return a finalized Topology...

Lookups are *normalised*: case is folded and ``_``/space collapse to
``-``, so ``get_cluster("Fast_Ethernet")`` resolves the canonical
``fast-ethernet`` entry.  Explicit aliases resolve too, but enumeration
(:meth:`Registry.names`) lists canonical names only.

The process-wide registries live here (:data:`TOPOLOGIES`,
:data:`CLUSTERS`, :data:`ALGORITHMS`, :data:`PATTERNS`, ...).  A
reference to an entry plus keyword parameters — ``hotspot:targets=2``
on the command line, ``{name = "round-robin", params = {groups = 4}}``
in a scenario file — is a :class:`RegisteredSpec`.
"""

from __future__ import annotations

import inspect
import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Generic, TypeVar

from .exceptions import DuplicateNameError, ScenarioError, UnknownNameError

__all__ = [
    "Registry",
    "RegisteredSpec",
    "normalize_name",
    "registry_epoch",
    "TOPOLOGIES",
    "CLUSTERS",
    "ALGORITHMS",
    "BACKENDS",
    "PATTERNS",
    "EXECUTORS",
    "MODELS",
    "ENGINES",
    "PLACEMENTS",
    "PLACEMENT_OPTIMIZERS",
    "register_topology",
    "register_cluster",
    "register_algorithm",
    "register_backend",
    "register_pattern",
    "register_executor",
    "register_model",
    "register_engine",
    "register_placement",
    "register_placement_optimizer",
]

T = TypeVar("T")

#: Monotonic counter bumped on every (un)registration, in any registry.
#: Long-lived worker pools compare it against the value they forked at:
#: a changed epoch means the parent gained (or lost) plugins the workers
#: never saw, so the pool must be recycled before reuse (see
#: :class:`repro.exec.ProcessExecutor`).
_epoch = 0


def registry_epoch() -> int:
    """Current plugin-registration epoch (see :data:`_epoch`)."""
    return _epoch


def normalize_name(name: str) -> str:
    """Fold case and separator style (``Fast_Ethernet`` → ``fast-ethernet``)."""
    return "-".join(str(name).strip().lower().replace("_", " ").replace("-", " ").split())


class Registry(Generic[T]):
    """A named collection of plugins with alias-tolerant lookup.

    Parameters
    ----------
    kind:
        Singular noun used in error messages (``"cluster"`` →
        ``unknown cluster 'x'; known: ...``).
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, T] = {}  # canonical name -> object
        self._aliases: dict[str, str] = {}  # normalised alias -> canonical

    # -- registration ---------------------------------------------------

    def register(
        self,
        name: str,
        obj: T | None = None,
        *,
        aliases: tuple[str, ...] = (),
        replace: bool = False,
    ):
        """Register *obj* under *name* (decorator form when *obj* is omitted).

        *aliases* are extra lookup names; *replace* allows overwriting an
        existing entry (otherwise :class:`DuplicateNameError`).
        """
        canonical = normalize_name(name)
        if not canonical:
            raise ValueError(f"{self.kind} name must be non-empty")

        def _register(target: T) -> T:
            global _epoch
            all_names = {canonical, *(normalize_name(a) for a in aliases)}
            if not replace:
                taken = sorted(a for a in all_names if a in self._aliases)
                if taken:
                    raise DuplicateNameError(
                        f"{self.kind} name(s) already registered: {taken} "
                        f"(pass replace=True to overwrite)"
                    )
            self._entries[canonical] = target
            for alias in all_names:
                self._aliases[alias] = canonical
            _epoch += 1
            return target

        if obj is None:
            return _register
        return _register(obj)

    def unregister(self, name: str) -> None:
        """Remove an entry and all its aliases (testing/ablation helper)."""
        global _epoch
        canonical = self.canonical(name)
        del self._entries[canonical]
        self._aliases = {a: c for a, c in self._aliases.items() if c != canonical}
        _epoch += 1

    # -- lookup ---------------------------------------------------------

    def canonical(self, name: str) -> str:
        """Resolve *name* (canonical, alias, or near-miss) to the canonical name."""
        resolved = self._aliases.get(normalize_name(name))
        if resolved is None:
            known = ", ".join(self.names())
            raise UnknownNameError(
                f"unknown {self.kind} {str(name)!r}; known: {known}"
            )
        return resolved

    def get(self, name: str) -> T:
        """Look an entry up; raises :class:`UnknownNameError` with the known set."""
        return self._entries[self.canonical(name)]

    def names(self) -> list[str]:
        """Sorted canonical names."""
        return sorted(self._entries)

    def items(self) -> list[tuple[str, T]]:
        """Sorted ``(canonical name, object)`` pairs."""
        return sorted(self._entries.items())

    def __contains__(self, name: object) -> bool:
        try:
            self.canonical(str(name))
        except UnknownNameError:
            return False
        return True

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self.kind!r}, {self.names()})"


@dataclass(frozen=True)
class RegisteredSpec:
    """A registry entry plus keyword parameters, in one canonical form.

    The value behind every ``NAME[:k=v,...]`` command-line flag and every
    ``{name, params}`` file field.  Subclasses set three class
    attributes — the :attr:`registry` the name resolves in, the
    :attr:`noun` used in error messages, and how many :attr:`leading`
    positional arguments the caller supplies to the entry — and give
    ``name`` a default: the default entry without parameters is the one
    :meth:`coerce` collapses to ``None``.  ``rng`` is never a user
    parameter.

    ``params`` accepts a mapping and is stored as a sorted tuple of
    ``(key, value)`` pairs, so equal specs compare, hash, render
    (:meth:`key`) and cache (:meth:`cache_payload`) identically however
    they were spelled.  Unknown names and parameters the entry's
    signature does not accept fail at construction, not mid-sweep in a
    worker.
    """

    name: str = ""
    params: tuple = ()

    registry: ClassVar[Registry]
    noun: ClassVar[str]
    leading: ClassVar[int]

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "name", self.registry.canonical(self.name))
        except UnknownNameError as exc:
            raise ScenarioError(exc.args[0]) from exc
        raw = self.params
        if isinstance(raw, tuple) and all(
            isinstance(pair, tuple) and len(pair) == 2 for pair in raw
        ):
            raw = dict(raw)  # the stored form (e.g. via dataclasses.replace)
        if not isinstance(raw, Mapping):
            raise ScenarioError(
                f"{self.noun} params must be a mapping, got {self.params!r}"
            )
        pairs = tuple(
            sorted((str(k), self._canonical_value(k, v)) for k, v in raw.items())
        )
        object.__setattr__(self, "params", pairs)
        self._check_params()

    def _canonical_value(self, key, value):
        """One spelling per parameter value.

        ``8`` and ``8.0`` must be the *same* parameter — same key(), same
        RNG stream, same cache payload — whether they arrived from TOML,
        the CLI or Python, so integral floats collapse to ints.  Bools
        stay bools (checked first: bool is an int subclass).
        """
        if isinstance(value, bool):
            return value
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ScenarioError(
                    f"{self.noun} param {key!r} must be finite, got {value!r}"
                )
            return int(value) if value.is_integer() else value
        if isinstance(value, (int, str)):
            return value
        raise ScenarioError(
            f"{self.noun} param {key!r} must be a scalar "
            f"(int/float/str/bool), got {type(value).__name__}"
        )

    def _check_params(self) -> None:
        parameters = inspect.signature(self.registry.get(self.name)).parameters.values()
        if any(p.kind is p.VAR_KEYWORD for p in parameters):
            return
        # Keyword-reachable parameters past the caller's leading
        # positional ones: plugins need not use a `*` separator.
        positional = [
            p.name for p in parameters
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        ]
        known = {
            p.name for p in parameters
            if p.kind in (p.KEYWORD_ONLY, p.POSITIONAL_OR_KEYWORD)
        } - {*positional[: self.leading], "rng"}
        unknown = sorted(key for key, _ in self.params if key not in known)
        if unknown:
            raise ScenarioError(
                f"unknown param(s) {unknown} for {self.noun} {self.name!r}; "
                f"known: {', '.join(sorted(known)) or '(none)'}"
            )

    @property
    def is_default(self) -> bool:
        """Whether this is the default entry (``name``'s default) without params."""
        return self.name == self.__dataclass_fields__["name"].default and not self.params

    def key(self) -> str:
        """Canonical compact form, e.g. ``hotspot(factor=8,targets=2)``.

        Used in RNG stream names, row columns and log labels; ``8.0``
        renders as ``8`` and parameters are sorted.
        """
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v!r}" if isinstance(v, str) else f"{k}={v}"
                         for k, v in self.params)
        return f"{self.name}({inner})"

    def to_dict(self) -> dict:
        out: dict = {"name": self.name}
        if self.params:
            out["params"] = dict(self.params)
        return out

    def cache_payload(self) -> dict:
        """JSON-stable identity for sweep cache keys (``params`` always present)."""
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data):
        """A spec from a bare name or a table of the dataclass fields."""
        if isinstance(data, str):
            return cls(name=data)
        if not isinstance(data, Mapping):
            raise ScenarioError(f"{cls.noun} must be a name or a table/dict")
        known = [f.name for f in fields(cls)]
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ScenarioError(
                f"unknown {cls.noun} field(s) {unknown}; known: {', '.join(known)}"
            )
        return cls(**data)

    @classmethod
    def parse(cls, text: str):
        """A spec from the command-line form ``name`` or ``name:k=v,k2=v2``.

        Values parse as int, then float, then the booleans, else string:
        ``hotspot:targets=2,factor=8`` or ``round-robin:groups=4``.
        """
        name, _, param_part = text.partition(":")
        params: dict = {}
        for item in param_part.split(","):
            if not item.strip():
                continue
            key, sep, raw = item.partition("=")
            if not sep or not key.strip():
                raise ScenarioError(
                    f"bad {cls.noun} parameter {item!r} (expected key=value)"
                )
            raw = raw.strip()
            value: object
            if raw.lower() in ("true", "false"):
                value = raw.lower() == "true"
            else:
                try:
                    value = int(raw)
                except ValueError:
                    try:
                        value = float(raw)
                    except ValueError:
                        value = raw
            params[key.strip()] = value
        return cls(name=name.strip(), params=params)

    @classmethod
    def coerce(cls, value):
        """A spec from a name/dict/spec, or ``None`` for the default entry.

        The default entry and "no spec" are one identity everywhere
        downstream: one simulation path, one cache key.
        """
        if value is None:
            return None
        spec = value if isinstance(value, cls) else cls.from_dict(value)
        return None if spec.is_default else spec

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.key()

# ----------------------------------------------------------------------
# Process-wide registries.  Built-ins register at module import time
# (importing `repro` imports every core module, so the registries are
# fully populated whenever any public API is reachable).
# ----------------------------------------------------------------------

#: ``f(n_hosts, **params) -> Topology`` fabric builders.
TOPOLOGIES: Registry[Callable] = Registry("topology")

#: ``f() -> ClusterProfile`` calibrated cluster factories.
CLUSTERS: Registry[Callable] = Registry("cluster")

#: All-to-All rank programs (``f(ctx, msg_size)`` generators).
ALGORITHMS: Registry[Callable] = Registry("algorithm")

#: ``f(cluster=None) -> backend`` measurement-backend factories.
BACKENDS: Registry[Callable] = Registry("backend")

#: ``f(n_processes, msg_size, *, rng, **params) -> (n, n) byte matrix``
#: traffic-pattern generators (see :mod:`repro.traffic`).
PATTERNS: Registry[Callable] = Registry("pattern")

#: ``f(workers: int) -> Executor`` execution-backend factories for the
#: sweep engine (see :mod:`repro.exec`).
EXECUTORS: Registry[Callable] = Registry("executor")

#: ``CostModel`` classes — analytical performance models with a
#: ``fit(samples) -> FittedModel`` pipeline (see :mod:`repro.models`).
MODELS: Registry[Callable] = Registry("model")

#: ``f(cluster, n_processes, program, run_arg, seed) -> RunResult``
#: simulation engines (see :mod:`repro.engines`): how one rep of a
#: measurement point is actually simulated.
ENGINES: Registry[Callable] = Registry("engine")

#: ``f(n_processes, **params) -> permutation`` rank-placement strategies
#: (see :mod:`repro.placement`): rank *i* runs on host ``perm[i]``.
PLACEMENTS: Registry[Callable] = Registry("placement")

#: ``f(evaluate, n_processes, *, rng, **params) -> permutation``
#: placement-search procedures minimising a predicted-contention
#: objective (see :mod:`repro.placement.optimize`).
PLACEMENT_OPTIMIZERS: Registry[Callable] = Registry("placement optimizer")


def register_topology(name: str, *, aliases: tuple[str, ...] = (), replace: bool = False):
    """Decorator: register a topology factory ``f(n_hosts, **params)``."""
    return TOPOLOGIES.register(name, aliases=aliases, replace=replace)


def register_cluster(name: str, *, aliases: tuple[str, ...] = (), replace: bool = False):
    """Decorator: register a cluster-profile factory ``f() -> ClusterProfile``."""
    return CLUSTERS.register(name, aliases=aliases, replace=replace)


def register_algorithm(name: str, *, aliases: tuple[str, ...] = (), replace: bool = False):
    """Decorator: register an All-to-All rank program."""
    return ALGORITHMS.register(name, aliases=aliases, replace=replace)


def register_backend(name: str, *, aliases: tuple[str, ...] = (), replace: bool = False):
    """Decorator: register a measurement-backend factory."""
    return BACKENDS.register(name, aliases=aliases, replace=replace)


def register_pattern(name: str, *, aliases: tuple[str, ...] = (), replace: bool = False):
    """Decorator: register a traffic-pattern generator
    ``f(n_processes, msg_size, *, rng, **params) -> matrix``."""
    return PATTERNS.register(name, aliases=aliases, replace=replace)


def register_executor(name: str, *, aliases: tuple[str, ...] = (), replace: bool = False):
    """Decorator: register an executor factory ``f(workers) -> Executor``."""
    return EXECUTORS.register(name, aliases=aliases, replace=replace)


def register_model(name: str, *, aliases: tuple[str, ...] = (), replace: bool = False):
    """Decorator: register a :class:`~repro.models.CostModel` class."""
    return MODELS.register(name, aliases=aliases, replace=replace)


def register_engine(name: str, *, aliases: tuple[str, ...] = (), replace: bool = False):
    """Decorator: register a simulation engine
    ``f(cluster, n_processes, program, run_arg, seed) -> RunResult``."""
    return ENGINES.register(name, aliases=aliases, replace=replace)


def register_placement(name: str, *, aliases: tuple[str, ...] = (), replace: bool = False):
    """Decorator: register a rank-placement strategy
    ``f(n_processes, **params) -> permutation`` (rank *i* → host ``perm[i]``)."""
    return PLACEMENTS.register(name, aliases=aliases, replace=replace)


def register_placement_optimizer(
    name: str, *, aliases: tuple[str, ...] = (), replace: bool = False
):
    """Decorator: register a placement optimizer
    ``f(evaluate, n_processes, *, rng, **params) -> permutation``."""
    return PLACEMENT_OPTIMIZERS.register(name, aliases=aliases, replace=replace)
