"""The EngineProfile seam: differential bit-exactness, serialization,
telemetry, validation errors, fallback observability, and the tuner.

The refactor's contract is that extracting engine selection into
:class:`repro.engine.profile.EngineProfile` changed *nothing* about
what is sampled:

- every registered profile, pinned explicitly through ``collect_auto``,
  is bit-for-bit identical to the equivalent pre-profile kwargs
  (``engine=``/``backend=``) at the same seed;
- the ``batch-sequential`` profile is bit-for-bit identical to the
  reference trampoline on a shared bit source (the cross-engine anchor
  the differential suite pins per-sample; here at ``collect`` level);
- ``engine="auto"`` with no tuner engaged resolves to exactly
  :func:`~repro.engine.profile.static_profile` -- the old heuristic.

On top of that, the seam must be *observable*: profiles serialize
losslessly into telemetry JSONL records, silent batch-to-trampoline
downgrades surface as ``CollectResult.fallback_reason``, and unknown
engines/backends/profiles fail loudly with the valid set in the
message.
"""

import json
from fractions import Fraction

import pytest

from repro.engine import BatchSampler, BitPool, collect_auto
from repro.engine.profile import (
    PROFILES,
    EngineProfile,
    ProgramFeatures,
    feature_bucket,
    features_of,
    profile_from_dict,
    profile_named,
    static_profile,
    validate_profile,
)
from repro.engine.pool import HAVE_NUMPY
from repro.engine.tuner import EngineTuner, default_state_path, tuning_enabled
from repro.itree.unfold import cpgcl_to_itree
from repro.lang.expr import Var
from repro.lang.state import State
from repro.lang.sugar import (
    dueling_coins,
    geometric_primes,
    hare_tortoise,
    n_sided_die,
)
from repro.sampler.record import collect
from repro.telemetry import configure_telemetry, read_records, telemetry_path

S0 = State()

PROGRAMS = [
    ("die6", n_sided_die(6), 300),
    ("die200", n_sided_die(200), 150),
    ("dueling", dueling_coins(Fraction(1, 3)), 150),
    ("geometric", geometric_primes(Fraction(1, 2)), 150),
]

HEAVY_PROGRAMS = [
    ("hare_tortoise", hare_tortoise(Var("time") <= 10), 10),
]

#: (profile name, equivalent pre-profile collect_auto kwargs).
EQUIVALENT_KWARGS = [
    ("trampoline", {"engine": "trampoline"}),
    ("batch-python", {"backend": "python"}),
    ("batch-sequential", {"backend": "sequential"}),
    ("batch-numpy", {"backend": "numpy"}),
]


@pytest.fixture(autouse=True)
def _no_telemetry_leak():
    # Tests that enable telemetry point it at a tmp dir; everything else
    # must stay isolated from any ambient ZAR_TELEMETRY_DIR.
    configure_telemetry(None)
    yield
    configure_telemetry(None)


def _assert_same_samples(a, b, context):
    assert a.values == b.values, "%s: values diverged" % context
    assert a.bits == b.bits, "%s: per-sample bits diverged" % context


class TestDifferentialBitExactness:
    @pytest.mark.parametrize(
        "name,command,n", PROGRAMS, ids=[p[0] for p in PROGRAMS]
    )
    @pytest.mark.parametrize(
        "profile_name,kwargs", EQUIVALENT_KWARGS,
        ids=[name for name, _ in EQUIVALENT_KWARGS],
    )
    def test_profile_equals_preprofile_kwargs(
        self, name, command, n, profile_name, kwargs
    ):
        if profile_name == "batch-numpy" and not HAVE_NUMPY:
            pytest.skip("numpy backend unavailable")
        pinned = collect_auto(
            command, n, seed=23, profile=profile_named(profile_name)
        )
        loose = collect_auto(command, n, seed=23, **kwargs)
        _assert_same_samples(
            pinned.samples, loose.samples, "%s/%s" % (name, profile_name)
        )
        assert pinned.profile.name == profile_name
        assert pinned.fallback_reason is None

    @pytest.mark.parametrize(
        "name,command,n", PROGRAMS, ids=[p[0] for p in PROGRAMS]
    )
    def test_sequential_profile_matches_trampoline_on_shared_source(
        self, name, command, n
    ):
        reference = collect(
            cpgcl_to_itree(command, S0), n, source=BitPool(5)
        )
        profile = profile_named("batch-sequential")
        sampler = BatchSampler.from_command(command)
        engine = sampler.collect(n, source=BitPool(5), backend=profile.backend)
        _assert_same_samples(reference, engine, name)

    @pytest.mark.parametrize(
        "name,command,n", PROGRAMS, ids=[p[0] for p in PROGRAMS]
    )
    def test_auto_resolves_to_static_profile(self, name, command, n):
        # No tuner engaged: engine="auto" must be the static heuristic,
        # bit for bit (the cold-start-identity guarantee).
        auto = collect_auto(command, n, seed=31)
        pinned = collect_auto(command, n, seed=31, profile=static_profile())
        _assert_same_samples(auto.samples, pinned.samples, name)
        assert auto.profile.name == static_profile().name

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "name,command,n", HEAVY_PROGRAMS, ids=[p[0] for p in HEAVY_PROGRAMS]
    )
    def test_heavy_program_profiles_agree(self, name, command, n):
        auto = collect_auto(command, n, seed=47)
        pinned = collect_auto(command, n, seed=47, profile=static_profile())
        _assert_same_samples(auto.samples, pinned.samples, name)


class TestSerializationAndTelemetry:
    def test_profile_dict_roundtrip(self):
        for profile in PROFILES.values():
            assert profile_from_dict(profile.as_dict()) == profile

    def test_custom_profile_roundtrip_preserves_knobs(self):
        profile = EngineProfile(
            name="weird", backend="python",
            passes=("debias", "cse"), narrow=True, fuel=99, max_nodes=123,
        )
        clone = profile_from_dict(profile.as_dict())
        assert clone == profile
        assert isinstance(clone.passes, tuple)

    def test_run_record_serializes_profile(self, tmp_path):
        configure_telemetry(str(tmp_path))
        result = collect_auto(n_sided_die(6), 50, seed=3)
        records = read_records()
        assert telemetry_path() == str(tmp_path / "telemetry.jsonl")
        assert len(records) == 1
        record = records[0]
        assert record["schema"] == 1
        assert record["engine"] == "batch"
        assert record["n"] == 50
        assert record["digest"], "run record must carry the program digest"
        assert record["fallback_reason"] is None
        assert record["feature_bucket"]
        assert record["samples_per_sec"] is None or record["samples_per_sec"] > 0
        assert profile_from_dict(record["profile"]) == result.profile

    def test_telemetry_appends_jsonl_lines(self, tmp_path):
        configure_telemetry(str(tmp_path))
        for seed in range(3):
            collect_auto(n_sided_die(6), 20, seed=seed)
        lines = (tmp_path / "telemetry.jsonl").read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            json.loads(line)

    def test_disabled_telemetry_writes_nothing(self, tmp_path):
        collect_auto(n_sided_die(6), 20, seed=1)
        assert not (tmp_path / "telemetry.jsonl").exists()
        assert read_records() == []


class TestValidationErrors:
    def test_unknown_engine_lists_valid_set(self):
        with pytest.raises(ValueError, match=r"auto, batch, trampoline"):
            collect_auto(n_sided_die(6), 10, engine="warp")

    def test_unknown_backend_lists_valid_set(self):
        with pytest.raises(
            ValueError, match=r"auto, native, numpy, python, sequential"
        ):
            collect_auto(n_sided_die(6), 10, backend="gpu")

    def test_batch_sampler_backend_error_lists_valid_set(self):
        sampler = BatchSampler.from_command(n_sided_die(6))
        with pytest.raises(
            ValueError, match=r"auto, native, numpy, python, sequential"
        ):
            sampler.collect(10, seed=0, backend="gpu")

    def test_unknown_profile_name_lists_registry(self):
        with pytest.raises(ValueError, match=r"batch-numpy.*trampoline"):
            profile_named("hyperspeed")

    def test_bad_profile_engine_rejected(self):
        with pytest.raises(ValueError, match=r"batch, trampoline"):
            validate_profile(EngineProfile(engine="auto"))

    def test_bad_profile_knobs_rejected(self):
        with pytest.raises(ValueError, match="max_nodes"):
            validate_profile(EngineProfile(max_nodes=0))


class TestFallbackObservability:
    def _tiny_auto_profile(self):
        return PROFILES["batch-auto"]._replace(max_nodes=8)

    def test_auto_fallback_reason_is_recorded(self, tmp_path):
        # Shrink the auto path's node budget so lowering the open
        # geometric program overflows: engine="auto" must downgrade to
        # the trampoline and say why.
        original = PROFILES["batch-auto"]
        PROFILES["batch-auto"] = self._tiny_auto_profile()
        try:
            configure_telemetry(str(tmp_path))
            result = collect_auto(
                geometric_primes(Fraction(1, 2)), 30, seed=11
            )
        finally:
            PROFILES["batch-auto"] = original
            configure_telemetry(None)
        assert result.engine == "trampoline"
        assert result.fallback_reason, "downgrade must carry its reason"
        assert result.samples.values, "fallback still samples"
        [record] = read_records(str(tmp_path / "telemetry.jsonl"))
        assert record["fallback_reason"] == result.fallback_reason

    def test_explicit_batch_engine_raises_instead(self):
        from repro.engine.table import LoweringError

        original = PROFILES["batch-auto"]
        PROFILES["batch-auto"] = self._tiny_auto_profile()
        try:
            with pytest.raises(LoweringError):
                collect_auto(
                    geometric_primes(Fraction(1, 2)), 30, seed=11,
                    engine="batch",
                )
        finally:
            PROFILES["batch-auto"] = original

    def test_explicit_tiny_profile_raises(self):
        from repro.engine.table import LoweringError

        with pytest.raises(LoweringError):
            collect_auto(
                geometric_primes(Fraction(1, 2)), 30, seed=11,
                profile=self._tiny_auto_profile(),
            )

    def test_backend_kwarg_override_is_reported(self, tmp_path):
        # A kwarg-level backend override must show up in the reported
        # profile and the telemetry record -- the run should never be
        # attributed to the base profile's backend.
        configure_telemetry(str(tmp_path))
        try:
            result = collect_auto(
                n_sided_die(6), 40, seed=5, backend="sequential"
            )
        finally:
            configure_telemetry(None)
        assert result.profile.backend == "sequential"
        assert result.profile.name.endswith("+sequential")
        [record] = read_records(str(tmp_path / "telemetry.jsonl"))
        assert record["backend"] == "sequential"


def _features(bucket_rows=8):
    return ProgramFeatures(
        rows=bucket_rows, closed=True, branch_entropy=2.5,
        pruned_sites=0, digest="d" * 8,
    )


class TestEngineTuner:
    def test_cold_start_is_static_heuristic(self):
        tuner = EngineTuner()
        assert tuner.choose(_features()) == static_profile()

    def test_exploit_picks_best_mean_throughput(self):
        tuner = EngineTuner(
            epsilon=0.0, candidates=["batch-python", "batch-sequential"]
        )
        features = _features()
        for _ in range(3):
            tuner.record(features, PROFILES["batch-python"], 100.0)
            tuner.record(features, PROFILES["batch-sequential"], 10.0)
        assert tuner.choose(features).name == "batch-python"
        assert tuner.mean_throughput(features, "batch-python") == 100.0

    def test_untried_arm_is_tried_before_settling(self):
        tuner = EngineTuner(
            epsilon=0.0, candidates=["batch-python", "batch-sequential"]
        )
        features = _features()
        tuner.record(features, PROFILES["batch-sequential"], 500.0)
        # batch-python has no data yet: optimistic initialization must
        # pick it once rather than starving it forever.
        assert tuner.choose(features).name == "batch-python"

    def test_buckets_do_not_share_statistics(self):
        tuner = EngineTuner(
            epsilon=0.0, candidates=["batch-python", "batch-sequential"]
        )
        small, large = _features(8), _features(4096)
        assert feature_bucket(small) != feature_bucket(large)
        tuner.record(small, PROFILES["batch-python"], 100.0)
        assert tuner.choose(large) == static_profile()

    def test_epsilon_one_always_explores(self):
        tuner = EngineTuner(
            epsilon=1.0, candidates=["batch-python", "batch-sequential"]
        )
        features = _features()
        for _ in range(2):
            tuner.record(features, PROFILES["batch-python"], 100.0)
            tuner.record(features, PROFILES["batch-sequential"], 10.0)
        chosen = {tuner.choose(features).name for _ in range(40)}
        assert chosen == {"batch-python", "batch-sequential"}

    def test_state_persists_and_reloads(self, tmp_path):
        path = str(tmp_path / "tuner.json")
        tuner = EngineTuner(path=path, epsilon=0.0,
                            candidates=["batch-python"])
        features = _features()
        tuner.record(features, PROFILES["batch-python"], 250.0)
        assert tuner.saves == 1

        reloaded = EngineTuner(path=path, epsilon=0.0,
                               candidates=["batch-python"])
        assert reloaded.loads == 1
        assert reloaded.mean_throughput(features, "batch-python") == 250.0

    def test_corrupt_state_is_cold_start(self, tmp_path):
        path = tmp_path / "tuner.json"
        path.write_text("{not json")
        tuner = EngineTuner(path=str(path))
        assert tuner.state == {}
        assert tuner.choose(_features()) == static_profile()

    def test_tuning_enabled_follows_env(self, monkeypatch):
        monkeypatch.delenv("ZAR_TUNER_STATE", raising=False)
        monkeypatch.delenv("ZAR_COMPILE_CACHE_DIR", raising=False)
        assert not tuning_enabled()
        monkeypatch.setenv("ZAR_TUNER_STATE", "/tmp/t.json")
        assert tuning_enabled()
        assert default_state_path() == "/tmp/t.json"

    def test_engaged_tuner_records_routed_runs(self, tmp_path):
        path = str(tmp_path / "tuner.json")
        tuner = EngineTuner(path=path, epsilon=0.0)
        collect_auto(n_sided_die(6), 40, seed=2, tuner=tuner)
        assert sum(
            stats[0]
            for arms in tuner.state.values()
            for stats in arms.values()
        ) == 1
        # The recorded arm is the one the policy resolved.
        [(bucket, arms)] = list(tuner.state.items())
        assert static_profile().name in arms
