"""Fleet planner: grid expansion, bit-identity, disk-cache robustness.

The contracts under test:

* grid expansion is deterministic, deduplicated and strictly validated
  (unknown keys, empty grids and bad values are :class:`GridSpecError`);
* every fleet answer -- cold or warm -- is bit-identical to a fresh
  standalone single-workload run of the same training system;
* the disk cache degrades, never breaks: corrupted payloads, payloads from
  a different code version, concurrent writers and unwritable cache
  directories all fall back to a warned cold start with unchanged answers,
  and a save landing during a run's load is merged, never dropped;
* warnings raised inside point searches are collated (deduplicated, point
  order) in the fleet report instead of being emitted to the caller.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.config import tokens
from repro.fleet import (
    GridSpecError,
    SearchSettings,
    WorkloadGrid,
    WorkloadPoint,
    plan_fleet,
)
from repro.fleet.planner import CACHE_FILE_NAME, resolve_cache_path
from repro.sim.fastpath import (
    FastpathCacheWarning,
    clear_fastpath_caches,
    load_fastpath_caches,
)


@pytest.fixture(autouse=True)
def _cold_caches():
    """Every test starts and ends with cold fast-path caches."""
    clear_fastpath_caches()
    yield
    clear_fastpath_caches()


SMALL_AXES = {
    "model": ["7B"],
    "seqlen_k": [16, 32],
    "gpus": [8],
    "global_batch": [16],
}


def small_grid(**search) -> WorkloadGrid:
    return WorkloadGrid.from_spec({"axes": SMALL_AXES, "search": search})


# ------------------------------------------------------------ grid expansion

class TestGridExpansion:
    def test_axes_expand_in_fixed_order(self):
        grid = WorkloadGrid.from_spec({
            "axes": {"model": ["7B", "13B"], "seqlen_k": [16, 32],
                     "gpus": [8], "global_batch": [16]},
        })
        labels = [point.label() for point in grid.points]
        assert labels == [
            "7B/seq16384/gpus8/batch16",
            "7B/seq32768/gpus8/batch16",
            "13B/seq16384/gpus8/batch16",
            "13B/seq32768/gpus8/batch16",
        ]

    def test_scalar_axis_values_and_defaults(self):
        grid = WorkloadGrid.from_spec({"axes": {"model": "7B", "gpus": 16}})
        assert len(grid) == 1
        point = grid.points[0]
        assert point.model == "7B"
        assert point.num_gpus == 16
        assert point.sequence_length == tokens(256)
        assert point.global_batch_samples == 16

    def test_explicit_points_follow_axes_and_dedup(self):
        grid = WorkloadGrid.from_spec({
            "axes": SMALL_AXES,
            "points": [
                {"model": "7B", "seqlen_k": 16, "gpus": 8, "global_batch": 16},
                {"model": "7B", "seqlen_k": 64, "gpus": 8, "global_batch": 16},
            ],
        })
        # The first explicit point duplicates an axes cell and collapses.
        assert [p.label() for p in grid.points] == [
            "7B/seq16384/gpus8/batch16",
            "7B/seq32768/gpus8/batch16",
            "7B/seq65536/gpus8/batch16",
        ]

    def test_same_spec_same_points(self):
        spec = {"axes": SMALL_AXES, "search": {"seed": 3}}
        assert WorkloadGrid.from_spec(spec) == WorkloadGrid.from_spec(spec)

    def test_sequence_length_spelling(self):
        grid = WorkloadGrid.from_spec({
            "axes": {"sequence_length": [12345], "gpus": [8]},
        })
        assert grid.points[0].sequence_length == 12345

    @pytest.mark.parametrize("spec", [
        {"axes": {"seqlen_k": [16], "sequence_length": [16384]}},
        {"axes": {"unknown_axis": [1]}},
        {"axes": {"gpus": [0]}},
        {"axes": {"gpus": []}},
        {"unknown_section": {}},
        {"search": {"unknown_knob": 1}},
        {"search": {"system": "nonexistent"}},
        {"search": {"replicas": 0}},
        {"points": "not-a-list"},
        {"points": [{"bogus": 1}]},
        {"points": [{"seqlen_k": 16, "sequence_length": 16384}]},
    ])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(GridSpecError):
            WorkloadGrid.from_spec(spec)

    def test_duplicate_points_rejected_on_direct_construction(self):
        point = WorkloadPoint("7B", tokens(16), 8, 16)
        with pytest.raises(GridSpecError):
            WorkloadGrid(points=(point, point), search=SearchSettings())

    def test_from_file_json(self, tmp_path):
        spec_path = tmp_path / "grid.json"
        spec_path.write_text('{"axes": {"model": ["7B"], "gpus": [8]}}')
        assert len(WorkloadGrid.from_file(spec_path)) == 1
        spec_path.write_text("{nope")
        with pytest.raises(GridSpecError, match="invalid JSON"):
            WorkloadGrid.from_file(spec_path)

    def test_search_settings_round_trip(self):
        settings = SearchSettings(system="memo", jitter="compute=0.05",
                                  objective="p99", replicas=8, seed=7)
        assert SearchSettings.from_json_dict(settings.to_json_dict()) == settings

    def test_point_round_trip(self):
        point = WorkloadPoint("13B", tokens(64), 32, 128)
        assert WorkloadPoint.from_json_dict(point.to_json_dict()) == point


# ------------------------------------------------- bit-identity of the fleet

class TestFleetBitIdentity:
    def test_cold_warm_match_standalone(self, tmp_path):
        grid = small_grid()
        cold = plan_fleet(grid, workers=1, cache_dir=tmp_path)
        assert cold.loaded_entries == 0 and cold.saved_entries > 0

        clear_fastpath_caches()
        warm = plan_fleet(grid, workers=1, cache_dir=tmp_path)
        assert warm.loaded_entries == cold.saved_entries

        clear_fastpath_caches()
        for index, point in enumerate(grid.points):
            reference = grid.search.build_system().run(point.workload())
            for report in (cold, warm):
                outcome = report.outcomes[index]
                assert outcome.ok and outcome.error is None
                assert outcome.point == point
                assert outcome.report.parallel == reference.parallel
                assert outcome.report.iteration_time_s == reference.iteration_time_s
                assert outcome.report.to_json() == reference.to_json()

    def test_no_disk_cache_mode(self, tmp_path):
        grid = small_grid()
        report = plan_fleet(grid, workers=1, cache_dir=tmp_path,
                            use_disk_cache=False)
        assert report.cache_path is None
        assert report.loaded_entries == 0 and report.saved_entries == 0
        assert not os.path.exists(resolve_cache_path(tmp_path))
        assert all(outcome.ok for outcome in report.outcomes)

    def test_outcomes_in_grid_order_with_progress(self, tmp_path):
        grid = small_grid()
        completed = []
        report = plan_fleet(grid, cache_dir=tmp_path,
                            progress=completed.append)
        assert [o.point for o in report.outcomes] == list(grid.points)
        # Progress arrives in point order, one call per collated outcome.
        assert len(completed) == len(report.outcomes)
        assert all(seen is outcome
                   for seen, outcome in zip(completed, report.outcomes))

    def test_per_point_error_capture(self, tmp_path):
        bad = WorkloadPoint("999B", tokens(16), 8, 16)
        grid = WorkloadGrid(
            points=(grid_point_ok := WorkloadPoint("7B", tokens(16), 8, 16), bad),
            search=SearchSettings(),
        )
        report = plan_fleet(grid, workers=1, cache_dir=tmp_path)
        ok_outcome, bad_outcome = report.outcomes
        assert ok_outcome.ok and ok_outcome.point == grid_point_ok
        assert not bad_outcome.ok and bad_outcome.report is None
        assert "999B" in bad_outcome.error
        # The failed point still renders a JSON row.
        row = bad_outcome.to_json_dict()
        assert row["ok"] is False and row["strategy"] is None

    def test_points_never_scan_the_caches(self, tmp_path, monkeypatch):
        """No point snapshots the caches.  Without the disk cache an
        invocation never scans them.  With it, the invocation counts resident
        entries after the load and, only when the file is unchanged since
        then, once more before the save -- however many points the grid has."""
        import repro.fleet.planner as planner_mod

        scans = []
        snapshot = planner_mod.snapshot_fastpath_caches
        monkeypatch.setattr(planner_mod, "snapshot_fastpath_caches",
                            lambda: scans.append(1) or snapshot())

        grid = small_grid()
        report = plan_fleet(grid, use_disk_cache=False)
        assert all(outcome.ok for outcome in report.outcomes)
        assert len(scans) == 0

        # Cold: no file was loaded, so the save needs no second count.
        report = plan_fleet(grid, cache_dir=tmp_path)
        assert len(report.outcomes) == 2
        assert len(scans) == 1

        # Warm and unchanged: the second count proves there is nothing to save.
        clear_fastpath_caches()
        report = plan_fleet(grid, cache_dir=tmp_path)
        assert report.saved_entries == report.loaded_entries > 0
        assert len(scans) == 3

    @pytest.mark.parametrize("workers", [-1, 2, 4])
    def test_workers_must_be_zero_or_one(self, workers):
        with pytest.raises(ValueError, match="in-process"):
            plan_fleet(small_grid(), workers=workers)


# ------------------------------------------------------ disk-cache robustness

def _answers(report):
    return [
        (o.report.parallel, o.report.iteration_time_s) for o in report.outcomes
    ]


class TestDiskCacheRobustness:
    def test_corrupted_payload_is_warned_cold_start(self, tmp_path):
        grid = small_grid()
        reference = plan_fleet(grid, workers=1, cache_dir=tmp_path)
        cache_file = resolve_cache_path(tmp_path)
        with open(cache_file, "wb") as handle:
            handle.write(b"\x80garbage" * 128)

        clear_fastpath_caches()
        with pytest.warns(FastpathCacheWarning):
            report = plan_fleet(grid, workers=1, cache_dir=tmp_path)
        assert report.loaded_entries == 0
        assert _answers(report) == _answers(reference)
        # The run healed the cache: a full, loadable payload was re-persisted.
        assert report.saved_entries > 0
        clear_fastpath_caches()
        assert load_fastpath_caches(cache_file) == report.saved_entries

    def test_truncated_pickle_is_warned_cold_start(self, tmp_path):
        grid = small_grid()
        reference = plan_fleet(grid, workers=1, cache_dir=tmp_path)
        cache_file = resolve_cache_path(tmp_path)
        payload = open(cache_file, "rb").read()
        with open(cache_file, "wb") as handle:
            handle.write(payload[: len(payload) // 2])

        clear_fastpath_caches()
        with pytest.warns(FastpathCacheWarning):
            report = plan_fleet(grid, workers=1, cache_dir=tmp_path)
        assert report.loaded_entries == 0
        assert _answers(report) == _answers(reference)

    def test_version_stamp_mismatch_is_warned_cold_start(self, tmp_path):
        grid = small_grid()
        reference = plan_fleet(grid, workers=1, cache_dir=tmp_path)
        cache_file = resolve_cache_path(tmp_path)
        with open(cache_file, "rb") as handle:
            payload = pickle.load(handle)
        payload["version"] = "someone-elses-code-version"
        with open(cache_file, "wb") as handle:
            pickle.dump(payload, handle)

        clear_fastpath_caches()
        with pytest.warns(FastpathCacheWarning, match="different.*code version"):
            report = plan_fleet(grid, workers=1, cache_dir=tmp_path)
        assert report.loaded_entries == 0
        assert _answers(report) == _answers(reference)
        # The stale payload was replaced by a loadable current-version one.
        clear_fastpath_caches()
        assert load_fastpath_caches(cache_file) == report.saved_entries

    def test_unwritable_cache_dir_is_warned_cold_start(self, tmp_path):
        # Tests may run as root, where permission bits do not bite -- nesting
        # the cache dir under a regular file is unwritable for any uid.
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        grid = small_grid()
        with pytest.warns(FastpathCacheWarning, match="could not persist"):
            report = plan_fleet(grid, workers=1,
                                cache_dir=blocker / "nested")
        assert report.loaded_entries == 0 and report.saved_entries == 0
        assert all(outcome.ok for outcome in report.outcomes)

    def test_concurrent_writers_leave_a_loadable_payload(self, tmp_path):
        grid = small_grid()
        with ProcessPoolExecutor(max_workers=2) as pool:
            reports = list(pool.map(
                _plan_small_fleet, [os.fspath(tmp_path)] * 2,
            ))
        assert all(all(o[0] for o in report) for report in reports)
        assert reports[0] == reports[1]
        # Whoever won the last atomic replace left a complete, current
        # payload -- never a torn file.
        clear_fastpath_caches()
        with warnings.catch_warnings():
            warnings.simplefilter("error", FastpathCacheWarning)
            assert load_fastpath_caches(resolve_cache_path(tmp_path)) > 0

    def test_save_landing_during_the_load_is_merged(self, tmp_path, monkeypatch):
        """Another invocation's atomic save can land right after this run's
        load.  The run stats the file before loading it, so that save reads
        as a changed file and is merged into this run's save, never
        overwritten by it."""
        import repro.fleet.planner as planner_mod

        plan_fleet(WorkloadGrid.from_spec({"axes": {**SMALL_AXES, "seqlen_k": [16]}}),
                   cache_dir=tmp_path)
        cache_file = resolve_cache_path(tmp_path)
        with open(cache_file, "rb") as handle:
            payload = pickle.load(handle)
        known = {name: set(entries) for name, entries in payload["layers"].items()}
        # The other writer's payload: the same entries plus foreign keys.
        timelines = payload["layers"]["timelines"]
        template = next(iter(timelines.values()))
        foreign = {("foreign-writer", index) for index in range(8)}
        timelines.update((key, template) for key in foreign)

        real_load = planner_mod.load_fastpath_caches

        def load_then_foreign_save(path):
            loaded = real_load(path)
            with open(f"{path}.foreign", "wb") as handle:
                pickle.dump(payload, handle)
            os.replace(f"{path}.foreign", path)
            return loaded

        monkeypatch.setattr(planner_mod, "load_fastpath_caches",
                            load_then_foreign_save)
        clear_fastpath_caches()
        report = plan_fleet(small_grid(), cache_dir=tmp_path)
        assert all(outcome.ok for outcome in report.outcomes)

        with open(cache_file, "rb") as handle:
            saved = pickle.load(handle)["layers"]
        # The run added entries of its own, and kept the other writer's.
        assert any(set(entries) - known.get(name, set()) - foreign
                   for name, entries in saved.items())
        assert foreign <= set(saved["timelines"])

    def test_resolve_cache_path_defaults_to_user_cache(self):
        assert resolve_cache_path(None) == os.path.expanduser(
            os.path.join("~", ".cache", "repro-planner", CACHE_FILE_NAME))


def _plan_small_fleet(cache_dir: str):
    """Module-level helper (picklable) for the concurrent-writer test."""
    clear_fastpath_caches()
    grid = WorkloadGrid.from_spec({"axes": SMALL_AXES})
    report = plan_fleet(grid, workers=1, cache_dir=cache_dir)
    return [
        (o.ok, o.report.parallel.describe(), o.report.iteration_time_s)
        for o in report.outcomes
    ]


# --------------------------------------------------------- warning collation

class _WarningSystem:
    """A stand-in training system whose run emits duplicated warnings."""

    def __init__(self, real):
        self._real = real

    def run(self, workload):
        warnings.warn("synthetic degenerate schedule", UserWarning)
        warnings.warn("synthetic degenerate schedule", UserWarning)
        return self._real.run(workload)


class TestWarningCollation:
    def test_report_collates_and_dedupes(self, tmp_path, monkeypatch):
        grid = small_grid()
        real_build = SearchSettings.build_system
        monkeypatch.setattr(
            SearchSettings, "build_system",
            lambda self: _WarningSystem(real_build(self)),
        )
        with warnings.catch_warnings(record=True) as leaked:
            warnings.simplefilter("always")
            report = plan_fleet(grid, workers=1, cache_dir=tmp_path)
        # Each point captured its own warnings; the report dedupes across
        # points; nothing leaked to the caller's warning stream.
        assert all("synthetic" in w for o in report.outcomes for w in o.warnings)
        assert report.warnings.count("synthetic degenerate schedule") == 1
        assert [str(w.message) for w in leaked
                if "synthetic" in str(w.message)] == []
        json_report = report.to_json_dict()
        assert json_report["warnings"] == list(report.warnings)
