"""``EngineProfile``: the engine-selection seam as a first-class value.

The engine/backend/batch-size decisions used to be scattered across
``collect_auto`` kwargs, ``BatchSampler.from_command`` defaults, the
driver dispatch, and the CLI ``--engine`` plumbing.  A profile bundles
every knob that selects *how* a program is sampled -- engine, backend,
batch size, compiler pass list, coalesce strategy, liveness narrowing,
fuel, and the table node budget -- into one serializable object that
the pipeline, CLI, benchmarks, telemetry, and future ``serve``/
``native`` backends all consume.

Selection is purely a performance decision: every backend preserves the
same per-sample i.i.d. bit-stream semantics, and the sequential paths
are bit-for-bit identical to the reference trampoline (the differential
suite pins this), so swapping profiles can never change *what* is
sampled -- only how fast.  That is what makes a measured policy
(:mod:`repro.engine.tuner`) safe to layer on top.

Profiles are derived from *program features* exposed by the compiler
(:func:`features_of` reads ``CompiledProgram.stats``): table rows,
open/closed, branch entropy (:func:`repro.stats.entropy.shannon_entropy`
over the table's fair-bit leaf distribution), and analysis verdicts
from the lint layer.  :func:`static_profile` is the old ``engine="auto"``
heuristic expressed as a function of those features; the tuner uses it
as the cold-start prior.
"""

from typing import Dict, NamedTuple, Optional, Tuple

__all__ = [
    "DEFAULT_PASSES",
    "EngineProfile",
    "PROFILES",
    "ProgramFeatures",
    "branch_entropy",
    "feature_bucket",
    "features_of",
    "profile_from_dict",
    "profile_named",
    "register_profile",
    "static_profile",
    "validate_profile",
]

#: The pass list every default sampling path compiles with.
DEFAULT_PASSES: Tuple[str, ...] = ("elim_choices", "debias", "cse")


class EngineProfile(NamedTuple):
    """Everything that selects a sampling strategy, in one value.

    ``engine`` picks the driver family (``"batch"`` or ``"trampoline"``;
    ``"auto"`` never appears *inside* a profile -- it is the policy that
    chooses one).  ``backend`` picks the batch driver tier.  The
    compiler knobs (``passes``, ``coalesce``, ``max_nodes``) are part of
    the profile because they shape the table the drivers run -- they are
    folded into the artifact digest, so differently-profiled
    compilations never collide in the cache.
    """

    name: str = "custom"
    engine: str = "batch"
    backend: str = "auto"
    passes: Tuple[str, ...] = DEFAULT_PASSES
    coalesce: str = "loopback"
    narrow: bool = False
    fuel: Optional[int] = None
    max_nodes: int = 2_000_000

    # -- serialization ---------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """A JSON-ready dict (telemetry records embed this)."""
        return {
            "name": self.name,
            "engine": self.engine,
            "backend": self.backend,
            "passes": list(self.passes),
            "coalesce": self.coalesce,
            "narrow": self.narrow,
            "fuel": self.fuel,
            "max_nodes": self.max_nodes,
        }

    def describe(self) -> str:
        """A one-line rendering for CLI reports and bench logs."""
        if self.engine == "trampoline":
            core = "trampoline"
        else:
            core = "batch/%s" % self.backend
        extras = []
        if self.narrow:
            extras.append("narrow")
        if self.fuel is not None:
            extras.append("fuel=%d" % self.fuel)
        if self.passes != DEFAULT_PASSES:
            extras.append("passes=%s" % "+".join(self.passes))
        suffix = (" [%s]" % ", ".join(extras)) if extras else ""
        return "%s (%s)%s" % (self.name, core, suffix)


def profile_from_dict(record: Dict[str, object]) -> EngineProfile:
    """Rebuild a profile from :meth:`EngineProfile.as_dict` output."""
    known = {field: record[field] for field in EngineProfile._fields
             if field in record}
    if "passes" in known:
        known["passes"] = tuple(known["passes"])
    profile = EngineProfile(**known)
    validate_profile(profile)
    return profile


# -- validation ----------------------------------------------------------

#: Engines a *profile* may name (the policy-level "auto" is excluded:
#: resolving it is what produces a profile).
PROFILE_ENGINES = ("batch", "trampoline")


def validate_profile(profile: EngineProfile) -> EngineProfile:
    """Raise ``ValueError`` (listing the valid set) on a bad profile."""
    from repro.engine.api import BACKENDS

    if profile.engine not in PROFILE_ENGINES:
        raise ValueError(
            "unknown engine %r (valid: %s)"
            % (profile.engine, ", ".join(PROFILE_ENGINES))
        )
    if profile.backend not in BACKENDS:
        raise ValueError(
            "unknown backend %r (valid: %s)"
            % (profile.backend, ", ".join(BACKENDS))
        )
    if profile.max_nodes <= 0:
        raise ValueError("max_nodes must be positive")
    return profile


# -- the registry --------------------------------------------------------

PROFILES: Dict[str, EngineProfile] = {}


def register_profile(profile: EngineProfile) -> EngineProfile:
    """Add a named profile (future backends register here once)."""
    validate_profile(profile)
    PROFILES[profile.name] = profile
    return profile


register_profile(EngineProfile(name="trampoline", engine="trampoline"))
register_profile(EngineProfile(name="batch-auto", engine="batch",
                               backend="auto"))
register_profile(EngineProfile(name="batch-numpy", engine="batch",
                               backend="numpy"))
register_profile(EngineProfile(name="batch-python", engine="batch",
                               backend="python"))
register_profile(EngineProfile(name="batch-sequential", engine="batch",
                               backend="sequential"))
# The generated-C-kernel backend (closed tables; bit-identical Python
# fallback otherwise).  Opt-in via --backend/--profile/the tuner: the
# static prior below never selects it, so cold-start behavior -- and
# the auto==static identity the differential tests pin -- is unchanged.
register_profile(EngineProfile(name="native", engine="batch",
                               backend="native"))


def profile_named(name: str) -> EngineProfile:
    """Look up a registered profile; ``ValueError`` lists the registry."""
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(
            "unknown profile %r (valid: %s)"
            % (name, ", ".join(sorted(PROFILES)))
        )


# -- program features ----------------------------------------------------

class ProgramFeatures(NamedTuple):
    """The compiler-exposed features selection policies key on."""

    rows: int
    closed: bool
    branch_entropy: float
    pruned_sites: int
    digest: Optional[str]


def branch_entropy(table, budget: int = 4096) -> float:
    """Shannon entropy (bits) of the table's fair-bit leaf distribution.

    Fair-bit mass is propagated from the root: each ``OP_BIT`` splits
    its mass in half, jumps and calls forward it, leaves accumulate it.
    Back-edges make the propagation non-terminating on rejection loops,
    so the sweep is bounded by ``budget`` node visits -- mass decays
    geometrically along loops, so the truncation error is tiny -- and
    the collected leaf masses are renormalized before computing the
    entropy via :func:`repro.stats.entropy.shannon_entropy`.  This is a
    *feature*, not a semantics: policies use it to distinguish flat
    high-fanout programs (the n=10000 die) from deep rejection-heavy
    ones (dueling coins at p=1/20).
    """
    from repro.engine.table import (
        OP_BIT,
        OP_CALL,
        OP_JMP,
        OP_LEAF,
    )
    from repro.stats.entropy import shannon_entropy

    if len(table) == 0:
        return 0.0
    leaf_mass: Dict[int, float] = {}
    queue = [(table.root, 1.0)]
    visits = 0
    while queue and visits < budget:
        index, mass = queue.pop()
        visits += 1
        if mass < 1e-12:
            continue
        op = table.op[index]
        if op == OP_LEAF:
            key = table.payload[index]
            leaf_mass[key] = leaf_mass.get(key, 0.0) + mass
        elif op == OP_BIT:
            queue.append((table.a[index], mass * 0.5))
            queue.append((table.b[index], mass * 0.5))
        elif op in (OP_JMP, OP_CALL):
            queue.append((table.a[index], mass))
        # OP_FAIL / OP_STUB: unresolved mass, dropped before normalizing.
    total = sum(leaf_mass.values())
    if total <= 0.0:
        return 0.0
    return shannon_entropy(
        {key: mass / total for key, mass in leaf_mass.items()}
    )


def features_of(program) -> ProgramFeatures:
    """Extract :class:`ProgramFeatures` from a ``CompiledProgram``.

    Reads ``program.stats`` where available (built artifacts) and falls
    back to the table itself (disk-rehydrated artifacts carry stats from
    the *building* process; rows may have grown since via JIT
    expansion).
    """
    table = program.table
    stats = getattr(program, "stats", None) or {}
    lower = stats.get("lower") or {}
    closed = lower.get("closed")
    if closed is None:
        closed = not (table.pending_stubs or table.calls)
    analysis = stats.get("analysis") or {}
    return ProgramFeatures(
        rows=len(table),
        closed=bool(closed),
        branch_entropy=branch_entropy(table),
        pruned_sites=int(analysis.get("pruned_sites", 0) or 0),
        digest=getattr(program, "digest", None),
    )


def feature_bucket(features: ProgramFeatures) -> str:
    """Coarse feature key the tuner's arm statistics are grouped by.

    Buckets must be coarse enough that throughput recorded on one
    program transfers to similar ones, and fine enough that closed
    16-row dice and open million-state races never share a policy.
    """
    if features.rows <= 16:
        size = "xs"
    elif features.rows <= 64:
        size = "s"
    elif features.rows <= 512:
        size = "m"
    else:
        size = "l"
    entropy = features.branch_entropy
    if entropy < 2.0:
        band = "lo"
    elif entropy < 6.0:
        band = "mid"
    else:
        band = "hi"
    return "%s:%s:%s" % ("closed" if features.closed else "open", size, band)


def static_profile(features: Optional[ProgramFeatures] = None) -> EngineProfile:
    """The pre-tuner heuristic as a profile: batch engine, best available
    backend.  This is both the default policy when no telemetry exists
    and the baseline the perf-policy CI gate measures the tuner against.
    """
    from repro.engine.pool import HAVE_NUMPY

    name = "batch-numpy" if HAVE_NUMPY else "batch-python"
    return PROFILES[name]
