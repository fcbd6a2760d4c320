from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import evalharness as ev
from factorlab import panel as panelio
from factorlab.errors import AlignmentError, DataError
from factorlab.panel import SERIES_ASSET

from . import oracles
from .conftest import make_panel


class TestAlign:
    def test_identical_supports(self):
        a = make_panel("A", ["2000-01", "2000-02"], ["x", "y"],
                       [[1.0, 2.0], [3.0, 4.0]])
        b = make_panel("B", ["2000-01", "2000-02"], ["x", "y"],
                       [[5.0, 6.0], [7.0, 8.0]])
        u, v = ev.align(a, b)
        assert u.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert v.tolist() == [5.0, 6.0, 7.0, 8.0]

    def test_disjoint_dates_error(self):
        a = make_panel("A", ["2000-01"], ["x"], [[1.0]])
        b = make_panel("B", ["2001-01"], ["x"], [[1.0]])
        with pytest.raises(AlignmentError):
            ev.align(a, b)

    def test_missing_pair_dropped(self):
        a = make_panel("A", ["2000-01"], ["x", "y"], [[1.0, None]])
        b = make_panel("B", ["2000-01"], ["x", "y"], [[2.0, 3.0]])
        u, v = ev.align(a, b)
        assert len(u) == 1

    def test_series_inputs(self):
        s1 = make_panel("S1", ["2000-01", "2000-02"], [SERIES_ASSET], [[1.0], [2.0]])
        s2 = make_panel("S2", ["2000-02", "2000-03"], [SERIES_ASSET], [[3.0], [4.0]])
        u, v = ev.align(s1, s2)
        assert u.tolist() == [2.0]
        assert v.tolist() == [3.0]


class TestCosine:
    def test_identical(self):
        assert ev.cosine([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal(self):
        assert ev.cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        assert ev.cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.70710678, abs=1e-8)

    def test_zero_norm_error(self):
        with pytest.raises(DataError):
            ev.cosine([0.0, 0.0], [1.0, 1.0])

    def test_tiny_vector_keeps_its_precision(self):
        # squared entries near 1e-320 are subnormal; unscaled norms lost ~6 digits here
        u = np.array([0.0, 6.64e-160])
        v = u + 1.0
        for scaled in (u, 2.0 * u):
            assert abs(ev.cosine(scaled, v) - 1.0 / np.sqrt(2.0)) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        vec=st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=8),
        c=st.floats(0.01, 50.0),
    )
    def test_scale_invariance(self, vec, c):
        u = np.array(vec)
        if np.linalg.norm(u) == 0:
            return
        v = u + 1.0
        if np.linalg.norm(v) == 0:
            return
        base = ev.cosine(u, v)
        assert ev.cosine(c * u, v) == pytest.approx(base, abs=1e-9)
        assert ev.cosine(-c * u, v) == pytest.approx(-base, abs=1e-9)


class TestSimAtK:
    def test_two_attempts_k1(self):
        assert ev.sim_at_k([0.5, 1.0], 1) == 0.75

    def test_two_attempts_k2(self):
        assert ev.sim_at_k([0.5, 1.0], 2) == 1.0

    def test_k_equals_n_is_max(self):
        sims = [0.1, -0.4, 0.9, 0.3]
        assert ev.sim_at_k(sims, 4) == max(sims)

    def test_k1_is_mean(self):
        sims = [0.25, 0.5, 0.75]
        assert ev.sim_at_k(sims, 1) == sum(sorted(sims)) / 3

    def test_k_out_of_range(self):
        with pytest.raises(DataError):
            ev.sim_at_k([0.5], 2)
        with pytest.raises(DataError):
            ev.sim_at_k([0.5], 0)

    @settings(max_examples=100, deadline=None)
    @given(
        sims=st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=10),
        data=st.data(),
    )
    def test_enumeration_agreement_and_monotonicity(self, sims, data):
        n = len(sims)
        k = data.draw(st.integers(1, n))
        closed = ev.sim_at_k(sims, k)
        brute = oracles.sim_at_k_enumerated(sims, k)
        assert closed == pytest.approx(brute, abs=1e-12)
        if k < n:
            assert ev.sim_at_k(sims, k + 1) >= closed - 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        sims=st.lists(st.floats(-1, 1, allow_nan=False), min_size=2, max_size=8),
        seed=st.integers(0, 1000),
    )
    def test_permutation_invariance(self, sims, seed):
        rng = np.random.default_rng(seed)
        shuffled = list(sims)
        rng.shuffle(shuffled)
        for k in range(1, len(sims) + 1):
            assert ev.sim_at_k(shuffled, k) == ev.sim_at_k(sims, k)


class TestAggregate:
    def test_single_task(self):
        assert ev.aggregate_simk([0.8]) == 0.8

    def test_mean(self):
        assert ev.aggregate_simk([1.0, 0.5]) == 0.75

    def test_empty_error(self):
        with pytest.raises(DataError):
            ev.aggregate_simk([])


class TestEvaluateTask:
    def test_failure_marker_scores_minus_one(self):
        ref = make_panel("REF", ["2000-01"], ["x"], [[1.0]])
        attempt = make_panel("A1", ["2000-01"], ["x"], [[2.0]])
        task = ev.AttemptSet(task_id="t", attempts=(attempt, None), reference=ref)
        result = ev.evaluate_task(task, ks=[1, 2])
        assert result.per_attempt_sims == (1.0, -1.0)
        assert result.per_k[1] == 0.0
        assert result.per_k[2] == 1.0

    def test_per_k_invariants(self):
        ref = make_panel("REF", ["2000-01", "2000-02"], ["x"], [[1.0], [2.0]])
        attempts = tuple(
            make_panel(f"A{i}", ["2000-01", "2000-02"], ["x"], [[v], [2 * v]])
            for i, v in enumerate((1.0, -1.0, 0.5))
        )
        task = ev.AttemptSet(task_id="t", attempts=attempts, reference=ref)
        result = ev.evaluate_task(task, ks=[1, 2, 3])
        assert result.per_k[1] == pytest.approx(np.mean(result.per_attempt_sims))
        assert result.per_k[3] == max(result.per_attempt_sims)
        assert result.per_k[1] <= result.per_k[2] <= result.per_k[3]


class TestManifest:
    def _manifest(self, tmp_path):
        panels_dir = tmp_path / "panels"
        ref = make_panel("REF", ["2000-01", "2000-02"], ["value"], [[1.0], [0.0]])
        # exact cosine 1.0 and approximately 0.5 against the reference
        a1 = make_panel("A1", ["2000-01", "2000-02"], ["value"], [[2.0], [0.0]])
        a2 = make_panel("A2", ["2000-01", "2000-02"], ["value"],
                        [[1.0], [float(np.sqrt(3.0))]])
        for p in (ref, a1, a2):
            panelio.save(p, panels_dir)
        manifest = {
            "tasks": [
                {
                    "task_id": "demo",
                    "reference": "panels/REF.csv",
                    "attempts": ["panels/A1.csv", "panels/A2.csv"],
                }
            ]
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        return path

    def test_worked_example_formatting(self, tmp_path):
        path = self._manifest(tmp_path)
        table = ev.evaluate_tasks(ev.load_manifest(path), ks=[1, 2])
        task = table["tasks"][0]
        assert task["sim_at_k"]["1"] == 0.75
        assert task["sim_at_k"]["2"] == 1.0
        text = ev.format_simk_table(table)
        assert "0.7500" in text and "1.0000" in text

    def test_aggregate_of_one_task(self, tmp_path):
        path = self._manifest(tmp_path)
        table = ev.evaluate_tasks(ev.load_manifest(path), ks=[1])
        assert table["aggregate_sim_at_k"]["1"] == 0.75

    @pytest.mark.parametrize("suffix", [".csv", ".npy", ".meta.json"])
    def test_an_entry_names_a_saved_panel_by_any_of_its_files(self, tmp_path, suffix):
        path = self._manifest(tmp_path)
        doc = json.loads(path.read_text())
        task = doc["tasks"][0]
        task["reference"] = f"panels/REF{suffix}"
        task["attempts"] = [f"panels/A1{suffix}", f"panels/A2{suffix}"]
        path.write_text(json.dumps(doc))
        assert ev.evaluate_tasks(ev.load_manifest(path), ks=[1])["aggregate_sim_at_k"]["1"] == 0.75

    def test_an_entry_that_is_not_a_saved_panel_file_is_refused(self, tmp_path):
        path = self._manifest(tmp_path)
        path.write_text(path.read_text().replace("panels/A1.csv", "panels/A1.txt"))
        with pytest.raises(DataError, match=r"\.csv, \.npy, \.meta\.json file, got .*A1\.txt"):
            ev.evaluate_tasks(ev.load_manifest(path), ks=[1])

    def test_bad_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{}")
        with pytest.raises(DataError):
            ev.evaluate_tasks(ev.load_manifest(path), ks=[1])
