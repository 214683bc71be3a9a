"""Stacked sweep sampling against the per-trial detector loop it replaces."""
import numpy as np
import pytest

from sglab import (
    DetectorModel,
    DimensionCapError,
    SpinPrep,
    coherence_factor,
    run_detector_mode,
    sweep_suppression,
)
from sglab import decoherence
from sglab.cli import main
from sglab.decoherence import ENV_DIM_CAP, SWEEP_CHUNK_ENTRIES, SWEEP_DRAW_CAP
from sglab.reports import RowTable
from sglab.sampling import split
from sglab.tensor import haar_unitary

GENERIC = SpinPrep(complex(0.28, 0.6), complex(0.5, np.sqrt(1 - 0.28**2 - 0.36 - 0.25)))

D_LISTS = ([1, 2, 3, 48, 64, 130], [3, 2, 5])


def loop_sweep(prep, d_values, trials, seed, env_model, weights_model):
    """One DetectorModel pair per trial from streams 2k and 2k + 1."""
    streams = split(seed, 2 * len(d_values) * trials)
    d_col = np.repeat(d_values, trials)
    up, dn, off = [], [], []
    for k, d in enumerate(d_col.tolist()):
        det_up = DetectorModel.sample(d, streams[2 * k], env_model, weights_model)
        det_dn = DetectorModel.sample(d, streams[2 * k + 1], env_model, weights_model)
        f_up = coherence_factor(det_up).value
        f_dn = coherence_factor(det_dn).value
        up.append(abs(f_up) ** 2)
        dn.append(abs(f_dn) ** 2)
        off.append(abs(prep.alpha * np.conj(prep.beta) * f_up * np.conj(f_dn)))
    up = np.array(up)
    rows = RowTable({
        "d": d_col,
        "trial": np.tile(np.arange(trials), len(d_values)),
        "f_abs2_up": up,
        "f_abs2_dn": np.array(dn),
        "offdiag_abs": np.array(off),
    })
    summary = {}
    for d in d_values:
        pooled = np.array([x for k, x in enumerate(up) if d_col[k] == d]
                          + [x for k, x in enumerate(dn) if d_col[k] == d])
        p2 = np.sum(DetectorModel.sample(d, 0, "identity", weights_model).weights ** 2)
        expected = {"haar": p2 / d, "phases": p2, "identity": 1.0}[env_model]
        se = pooled.std(ddof=1) / np.sqrt(pooled.size)
        summary[str(d)] = {
            "mean_f_abs2": float(up[d_col == d].mean()),
            "expected_uniform_haar": 1.0 / d**2,
            "expected_f_abs2": expected,
            "pooled_mean_f_abs2": pooled.mean(),
            "stderr": se,
            "z": (pooled.mean() - expected) / se if abs(pooled.mean() - expected) > 1e-12 else 0.0,
        }
    return rows, summary


@pytest.mark.parametrize("env_model", decoherence.ENV_MODELS)
@pytest.mark.parametrize("weights_model", decoherence.WEIGHT_MODELS)
@pytest.mark.parametrize("d_values", D_LISTS, ids=str)
def test_stacked_sweep_matches_per_trial_loop(env_model, weights_model, d_values):
    got = sweep_suppression(GENERIC, d_values, 5, seed=41,
                            env_model=env_model, weights_model=weights_model)
    got_rows, got_summary = got.rows, got.summary
    want_rows, want_summary = loop_sweep(GENERIC, d_values, 5, 41, env_model, weights_model)
    assert list(got_rows.columns) == list(want_rows.columns)
    for name, want in want_rows.columns.items():
        got = got_rows.columns[name]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert list(got_summary) == list(want_summary)
    for d, entry in want_summary.items():
        assert list(got_summary[d]) == list(entry)
        assert got_summary[d]["mean_f_abs2"] == entry["mean_f_abs2"]
        assert got_summary[d]["expected_uniform_haar"] == entry["expected_uniform_haar"]
        for key in ("expected_f_abs2", "pooled_mean_f_abs2", "stderr", "z"):
            assert got_summary[d][key] == pytest.approx(entry[key], rel=1e-9, abs=1e-15), (d, key)


class TestSummary:
    def test_phases_uniform_matches_its_own_moment(self):
        # The Haar-uniform reference 1/d^2 = 0.0156 is wrong for this model.
        summary = sweep_suppression(GENERIC, [8], 2000, seed=5, env_model="phases").summary
        entry = summary["8"]
        assert entry["expected_f_abs2"] == pytest.approx(0.125, abs=1e-15)
        assert abs(entry["z"]) < 5
        assert abs(entry["pooled_mean_f_abs2"] - 1 / 64) > 20 * entry["stderr"]

    def test_haar_geometric_moment_is_sum_p2_over_d(self):
        summary = sweep_suppression(GENERIC, [8], 2000, seed=6, weights_model="geometric").summary
        p = 0.5 ** np.arange(8)
        p /= p.sum()
        entry = summary["8"]
        assert entry["expected_f_abs2"] == pytest.approx(np.sum(p**2) / 8, rel=1e-12)
        assert abs(entry["z"]) < 5

    @pytest.mark.parametrize("env_model,d", [("identity", 5), ("haar", 1), ("phases", 1)])
    def test_exact_models_read_z_zero(self, env_model, d):
        summary = sweep_suppression(GENERIC, [d], 4, seed=7, env_model=env_model,
                                    weights_model="geometric").summary
        entry = summary[str(d)]
        assert entry["expected_f_abs2"] == 1.0
        assert entry["pooled_mean_f_abs2"] == pytest.approx(1.0, abs=1e-12)
        assert entry["z"] == 0.0


def test_streams_are_spawned_one_stack_at_a_time(monkeypatch):
    spawn, sizes = decoherence.spawn, []

    def spawn_spy(root, n):
        sizes.append(n)
        return spawn(root, n)

    monkeypatch.setattr(decoherence, "spawn", spawn_spy)
    sweep_suppression(GENERIC, [2, 48], 2100, seed=3, env_model="identity")
    assert sum(sizes) == 2 * 2 * 2100
    assert max(sizes) == SWEEP_CHUNK_ENTRIES // 4
    first = SWEEP_CHUNK_ENTRIES // 4
    assert sizes[:3] == [first, 4200 - first, SWEEP_CHUNK_ENTRIES // 48**2]


def test_haar_stack_is_bitwise_the_one_matrix_case():
    for d in (1, 3, 48):
        stack = haar_unitary(d, split(d, 5))
        singles = [haar_unitary(d, [rng])[0] for rng in split(d, 5)]
        assert stack.shape == (5, d, d)
        for got, want in zip(stack, singles):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("run,d_drawn", [
    (lambda: run_detector_mode(GENERIC, 3, 5, "haar", "uniform", "transmitting"), [3]),
    (lambda: sweep_suppression(GENERIC, [2, 130], 2, seed=5), [2, 130]),
], ids=["detector", "sweep"])
def test_detector_pipelines_draw_through_haar_unitary(run, d_drawn, monkeypatch):
    # Both pipelines' Haar draws pass the one name, so a span on
    # tensor.haar_unitary sees them all.
    drawn = []

    def spy(d, rngs):
        drawn.append(d)
        return haar_unitary(d, rngs)

    monkeypatch.setattr(decoherence, "haar_unitary", spy)
    run()
    assert sorted(set(drawn)) == d_drawn


class TestStackedUnitarityGate:
    @staticmethod
    def spoil(stack, how):
        bad = stack.copy()
        if how == "off":
            bad[2, 1, 0] += 1e-9
        else:
            bad[2, 0, 0] = np.nan
        return bad

    @pytest.mark.parametrize("how", ["off", "nan"])
    def test_one_bad_matrix_fails_the_stack(self, how):
        stack = haar_unitary(4, split(0, 5))
        decoherence._require_unitary(stack)
        with pytest.raises(ValueError, match="V is not unitary within 1e-12"):
            decoherence._require_unitary(self.spoil(stack, how))
        with pytest.raises(ValueError, match="V is not unitary within 1e-12"):
            DetectorModel(d=4, weights=np.full(4, 0.25), V=self.spoil(stack, how)[2])

    @pytest.mark.parametrize("how", ["off", "nan"])
    def test_sweep_refuses_a_bad_chunk(self, how, monkeypatch):
        def spoiled(d, rngs):
            return self.spoil(haar_unitary(d, rngs), how)

        monkeypatch.setattr(decoherence, "haar_unitary", spoiled)
        with pytest.raises(ValueError, match="V is not unitary within 1e-12"):
            sweep_suppression(GENERIC, [4], 3, seed=0)


class TestFailBeforeDrawing:
    @pytest.fixture
    def no_spawn(self, monkeypatch):
        def spawn_spy(root, n):
            raise AssertionError("spawn reached")

        monkeypatch.setattr(decoherence, "spawn", spawn_spy)

    @pytest.mark.parametrize("kwargs,error", [
        ({"d_values": [4, ENV_DIM_CAP + 1]}, DimensionCapError),
        ({"d_values": [4, 0]}, ValueError),
        ({"d_values": [4], "env_model": "thermal"}, ValueError),
        ({"d_values": [4], "weights_model": "zipf"}, ValueError),
        ({"d_values": [2, 3, 2]}, ValueError),
        ({"d_values": [2.7]}, ValueError),
        ({"d_values": [4, np.float64(3.0)]}, ValueError),
        ({"d_values": [True]}, ValueError),
        ({"d_values": [4, np.bool_(True)]}, ValueError),
        ({"d_values": [4], "trials": 2.5}, ValueError),
        ({"d_values": [4], "trials": True}, ValueError),
        ({"d_values": [2, 4], "trials": SWEEP_DRAW_CAP // 4 + 1}, DimensionCapError),
    ])
    def test_refused_before_any_stream_is_split(self, kwargs, error, no_spawn):
        kwargs = {"trials": 3, **kwargs}
        with pytest.raises(error):
            sweep_suppression(GENERIC, seed=0, **kwargs)

    def test_numpy_integers_are_accepted(self):
        report = sweep_suppression(GENERIC, np.array([3, 2]), np.int64(2), seed=5)
        assert report == sweep_suppression(GENERIC, [3, 2], 2, seed=5)
        assert list(report.summary) == ["3", "2"]

    def test_draw_cap_is_inclusive(self, monkeypatch):
        class Reached(Exception):
            pass

        def spawn_spy(root, n):
            raise Reached(root.entropy, n)

        monkeypatch.setattr(decoherence, "spawn", spawn_spy)
        with pytest.raises(Reached) as reached:
            sweep_suppression(GENERIC, [2, 4], SWEEP_DRAW_CAP // 4, seed=9)
        assert reached.value.args == (9, SWEEP_CHUNK_ENTRIES // 4)

    @pytest.mark.parametrize("argv", [
        ["--d", f"4,{ENV_DIM_CAP + 1}", "--trials", "200"],
        ["--d", "4,8", "--trials", str(SWEEP_DRAW_CAP // 4 + 1)],
    ])
    def test_cli_exits_3_without_drawing(self, argv, no_spawn, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        assert main(["run", "sweep", *argv, "--seed", "1", "--out", str(out)]) == 3
        assert "exceeds" in capsys.readouterr().err
        assert not out.exists()
