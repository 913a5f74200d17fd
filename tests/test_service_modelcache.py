"""Tests for the surrogate-model cache (repro.service.modelcache) and its
MLA integration.

Acceptance: a campaign warm-started from a populated cache performs
strictly fewer L-BFGS multi-starts than an identical cold campaign, as
counted by the ``model-fit`` events' ``n_starts`` field.
"""

import shutil

import pytest

from repro.apps.analytical import AnalyticalApp
from repro.core import GPTune, HistoryDB, Options
from repro.service import SurrogateCache
from repro.service.modelcache import CachedFit


def _fit(fps, ll=-1.0, problem="p", objective=0, shape=(2, 1, 2)):
    return CachedFit(
        problem, objective, shape[0], shape[1], shape[2],
        theta=[0.1, 0.2, 0.3], log_likelihood=ll, fingerprints=fps,
    )


class TestCachedFit:
    def test_key_ignores_fingerprint_order(self):
        assert _fit(["a", "b"]).key == _fit(["b", "a"]).key

    def test_key_changes_with_shape_and_data(self):
        base = _fit(["a", "b"])
        assert base.key != _fit(["a", "c"]).key
        assert base.key != _fit(["a", "b"], shape=(3, 1, 2)).key
        assert base.key != _fit(["a", "b"], objective=1).key

    def test_json_round_trip(self):
        fit = _fit(["a", "b"], ll=-2.5)
        back = CachedFit.from_json(fit.to_json())
        assert back.key == fit.key
        assert back.theta == fit.theta
        assert back.log_likelihood == -2.5
        assert back.fingerprints == frozenset(["a", "b"])


class TestSurrogateCache:
    @pytest.fixture
    def cache(self, tmp_path):
        return SurrogateCache(str(tmp_path / "fits.jsonl"))

    def test_empty_lookup(self, cache):
        assert len(cache) == 0
        assert cache.lookup("p", 0, ["a"], 2, 1, 2) is None
        assert cache.lookup("p", 0, [], 2, 1, 2) is None

    def test_put_and_exact_lookup(self, cache):
        fit = _fit(["a", "b"])
        cache.put(fit)
        got = cache.lookup("p", 0, ["a", "b"], 2, 1, 2)
        assert got is not None and got.key == fit.key

    def test_put_is_idempotent_per_key(self, cache):
        cache.put(_fit(["a", "b"]))
        cache.put(_fit(["b", "a"]))
        assert len(cache) == 1

    def test_subset_and_superset_match(self, cache):
        cache.put(_fit(["a", "b", "c"]))
        # cached ⊃ query (campaign resumed with less data than the fit saw)
        assert cache.lookup("p", 0, ["a", "b"], 2, 1, 2) is not None
        # cached ⊂ query (campaign gathered a few more points since)
        assert cache.lookup("p", 0, ["a", "b", "c", "d"], 2, 1, 2) is not None
        # overlapping but neither subset nor superset: no reuse
        assert cache.lookup("p", 0, ["a", "b", "z"], 2, 1, 2) is None

    def test_min_overlap_gates_weak_matches(self, cache):
        cache.put(_fit(["a"]))
        # Jaccard 1/4 < 0.5: a fit on one of four records is too stale
        assert cache.lookup("p", 0, ["a", "b", "c", "d"], 2, 1, 2) is None
        assert cache.lookup("p", 0, ["a", "b"], 2, 1, 2) is not None

    def test_shape_mismatch_never_matches(self, cache):
        cache.put(_fit(["a", "b"]))
        assert cache.lookup("p", 0, ["a", "b"], 3, 1, 2) is None
        assert cache.lookup("p", 0, ["a", "b"], 2, 2, 2) is None
        assert cache.lookup("p", 0, ["a", "b"], 2, 1, 3) is None
        assert cache.lookup("p", 1, ["a", "b"], 2, 1, 2) is None
        assert cache.lookup("other", 0, ["a", "b"], 2, 1, 2) is None

    def test_largest_overlap_wins(self, cache):
        small = _fit(["a", "b"], ll=0.0)
        big = _fit(["a", "b", "c"], ll=-9.0)
        cache.put(small)
        cache.put(big)
        got = cache.lookup("p", 0, ["a", "b", "c"], 2, 1, 2)
        assert got.key == big.key  # exact beats subset despite worse ll

    def test_persists_across_instances(self, tmp_path):
        path = str(tmp_path / "fits.jsonl")
        SurrogateCache(path).put(_fit(["a", "b"]))
        assert SurrogateCache(path).lookup("p", 0, ["a", "b"], 2, 1, 2) is not None

    def test_compact_keeps_latest_per_problem(self, cache):
        for i in range(6):
            cache.put(_fit([f"f{i}"], problem="p"))
        cache.put(_fit(["x"], problem="q"))
        assert cache.compact(keep_latest=2) == 3  # 2 for p + 1 for q
        assert len(cache) == 3
        assert cache.lookup("p", 0, ["f5"], 2, 1, 2) is not None
        assert cache.lookup("p", 0, ["f0"], 2, 1, 2) is None

    def test_compact_is_durable(self, cache, monkeypatch):
        """The compacted temp file is fsynced before the rename and the
        cache's directory after it."""
        import os
        import stat

        for i in range(3):
            cache.put(_fit([f"f{i}"], problem="p"))
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            st = os.fstat(fd)
            calls.append(("fsync", "dir" if stat.S_ISDIR(st.st_mode) else st.st_size))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.path.basename(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        assert cache.compact(keep_latest=1) == 1
        size = os.path.getsize(cache.path)
        assert calls == [("fsync", size), ("replace", "fits.jsonl"), ("fsync", "dir")]

    def test_bad_min_overlap_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SurrogateCache(str(tmp_path / "c.jsonl"), min_overlap=0.0)

    def test_torn_line_is_skipped(self, cache):
        cache.put(_fit(["a", "b"]))
        with open(cache.path, "a", encoding="utf-8") as fh:
            fh.write('{"problem": "p", "objecti')
        fresh = SurrogateCache(cache.path)
        assert len(fresh) == 1


class TestWarmStartAcceptance:
    """Warm campaign spends strictly fewer multi-starts than a cold one."""

    def _campaign(self, db, cache_path, seed, budget):
        problem = AnalyticalApp(seed=0).problem()
        tuner = GPTune(
            problem,
            Options(seed=seed, n_start=2, model_cache_path=cache_path),
            history=db,
        )
        tuner.tune([{"t": 2.0}], budget)
        return tuner.events

    def test_cache_hit_reduces_lbfgs_starts(self, tmp_path):
        # a prior campaign populates archive + cache
        db_path = str(tmp_path / "h.json")
        warm_cache = str(tmp_path / "warm.jsonl")
        self._campaign(HistoryDB(db_path), warm_cache, seed=0, budget=6)
        assert len(SurrogateCache(warm_cache)) >= 1

        # two identical follow-up campaigns, each over its own copy of the
        # primed archive (a shared one would hand the second campaign the
        # first's fresh evaluations and zero its budget) — one with the
        # populated cache, one starting a fresh cache file
        db2_path = str(tmp_path / "h2.json")
        shutil.copytree(db_path + ".d", db2_path + ".d")
        warm = self._campaign(HistoryDB(db_path), warm_cache, seed=42, budget=10)
        cold = self._campaign(
            HistoryDB(db2_path), str(tmp_path / "cold.jsonl"), seed=42, budget=10
        )

        assert warm.count("model-cache-hit") >= 1
        warm_starts = warm.total("model-fit", "n_starts")
        cold_starts = cold.total("model-fit", "n_starts")
        assert warm_starts < cold_starts, (warm_starts, cold_starts)

    def test_cold_campaign_stores_fits(self, tmp_path):
        cache_path = str(tmp_path / "fits.jsonl")
        events = self._campaign(
            HistoryDB(str(tmp_path / "h.json")), cache_path, seed=0, budget=6
        )
        assert events.count("model-fit") >= 1
        assert events.count("model-cache-store") >= 1
        assert len(SurrogateCache(cache_path)) == events.count("model-cache-store")


class TestLookupMemo:
    @pytest.fixture
    def cache(self, tmp_path):
        return SurrogateCache(str(tmp_path / "fits.jsonl"))

    def test_repeated_lookup_is_memoized(self, cache):
        cache.put(_fit(["a", "b"]))
        first = cache.lookup("p", 0, ["a", "b"], 2, 1, 2)
        assert first is not None
        assert len(cache._lookup_memo) == 1
        again = cache.lookup("p", 0, ["b", "a"], 2, 1, 2)  # same query set
        assert again is not None
        assert again.key == first.key
        assert len(cache._lookup_memo) == 1  # one memo entry served both

    def test_memo_remembers_misses(self, cache):
        cache.put(_fit(["a", "b"]))
        assert cache.lookup("other", 0, ["a", "b"], 2, 1, 2) is None
        assert len(cache._lookup_memo) == 1  # misses memoized too
        assert cache.lookup("other", 0, ["a", "b"], 2, 1, 2) is None

    def test_put_invalidates_memo(self, cache):
        cache.put(_fit(["a", "b"]))
        partial = cache.lookup("p", 0, ["a", "b", "c"], 2, 1, 2)
        assert partial is not None  # subset match serves as warm start
        cache.put(_fit(["a", "b", "c"]))  # an exact fit arrives later
        best = cache.lookup("p", 0, ["a", "b", "c"], 2, 1, 2)
        assert best.key == _fit(["a", "b", "c"]).key  # memo was invalidated

    def test_foreign_write_invalidates_memo(self, tmp_path):
        path = str(tmp_path / "fits.jsonl")
        reader = SurrogateCache(path)
        assert reader.lookup("p", 0, ["a", "b"], 2, 1, 2) is None
        SurrogateCache(path).put(_fit(["a", "b"]))  # another process writes
        assert reader.lookup("p", 0, ["a", "b"], 2, 1, 2) is not None

    def test_compact_invalidates_memo(self, cache):
        cache.put(_fit(["a", "b"]))
        assert cache.lookup("p", 0, ["a", "b"], 2, 1, 2) is not None
        cache.compact()
        assert cache.lookup("p", 0, ["a", "b"], 2, 1, 2) is not None
