import json
import math
import os

import numpy as np
import pytest

import kaclab as kl
from kaclab import _kloop
from kaclab.cli import main
from kaclab.config_io import _parse_sidecar, load_trajectory_inputs
from kaclab.girsanov import TiltingScheme
from kaclab.kinetics import Kernel
from kaclab.rate_function import dynamic_cost


def _write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


BASE = {"N": 20, "T": 0.5, "kernel": "hard_sphere", "seed": 11,
        "checkpoints": [0.0, 0.25, 0.5], "record_full_states": False}


class TestSimulateCommand:
    def test_simulate_writes_artifacts(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.json", BASE)
        rc = main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        for key in ("events", "sidecar", "checkpoints"):
            assert os.path.exists(out["artifacts"][key])

    def test_determinism_across_invocations(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.json", BASE)
        for d in ("o1", "o2"):
            assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / d)]) == 0
        capsys.readouterr()
        for name in ("run_events.csv", "run_checkpoints.json"):
            b1 = (tmp_path / "o1" / name).read_bytes()
            b2 = (tmp_path / "o2" / name).read_bytes()
            assert b1 == b2

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.json", {"N": -1, "T": 1.0, "kernel": "maxwell"})
        assert main(["simulate", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_io_error_exit_code(self, capsys):
        assert main(["simulate", "--config", "/nonexistent/cfg.json"]) == 4

    def test_ensemble_mode(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.json", dict(BASE, N=8))
        rc = main(["simulate", "--config", cfg, "--runs", "3", "--out-dir", str(tmp_path / "ens")])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_runs"] == 3
        assert os.path.exists(tmp_path / "ens" / "manifest.json")


class TestReplayCommand:
    def test_replay_verifies(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.json", BASE)
        out = str(tmp_path / "out")
        main(["simulate", "--config", cfg, "--out-dir", out])
        capsys.readouterr()
        rc = main(["replay", "--sidecar", f"{out}/run_sidecar.json",
                   "--events", f"{out}/run_events.csv",
                   "--reference-checkpoints", f"{out}/run_checkpoints.json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_abs_checkpoint_gap"] == 0.0

    def test_replay_rejects_one_ulp_momentum_edit(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.json", dict(BASE, truncation_thresholds=[1.0, 2.0]))
        out = str(tmp_path / "out")
        main(["simulate", "--config", cfg, "--out-dir", out])
        path = f"{out}/run_checkpoints.json"
        ref = json.load(open(path))
        cp = ref["checkpoints"]["0.5"]
        cp["momentum"][1] = float(np.nextafter(cp["momentum"][1], np.inf))
        json.dump(ref, open(path, "w"))
        capsys.readouterr()
        rc = main(["replay", "--sidecar", f"{out}/run_sidecar.json",
                   "--events", f"{out}/run_events.csv", "--reference-checkpoints", path])
        assert rc == 3
        report = json.loads(capsys.readouterr().out)
        assert 0.0 < report["max_abs_checkpoint_gap"] < 1e-15

    def test_replay_rejects_missing_checkpoint(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.json", dict(BASE, checkpoints=[0.5]))
        out = str(tmp_path / "out")
        main(["simulate", "--config", cfg, "--out-dir", out])
        path = f"{out}/run_checkpoints.json"
        ref = json.load(open(path))
        (cp,) = ref["checkpoints"].values()
        ref["checkpoints"] = {"0.125": cp}
        json.dump(ref, open(path, "w"))
        capsys.readouterr()
        rc = main(["replay", "--sidecar", f"{out}/run_sidecar.json",
                   "--events", f"{out}/run_events.csv", "--reference-checkpoints", path])
        assert rc == 3

    @staticmethod
    def _run_checkpointed_at_zero(tmp_path):
        """A hard-sphere run (compiled loop) whose only checkpoint is t = 0,
        so only the final-state digest can catch a change to its log."""
        cfg = _write(tmp_path / "cfg.json", dict(BASE, checkpoints=[0.0]))
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out-dir", out]) == 0
        return f"{out}/run_sidecar.json", f"{out}/run_events.csv"

    def _replay(self, sidecar, events, capsys):
        capsys.readouterr()
        return main(["replay", "--sidecar", sidecar, "--events", events])

    def test_replay_checks_final_state(self, tmp_path, capsys):
        sidecar, events = self._run_checkpointed_at_zero(tmp_path)
        assert self._replay(sidecar, events, capsys) == 0

    def test_replay_rejects_edited_sigma(self, tmp_path, capsys):
        sidecar, events = self._run_checkpointed_at_zero(tmp_path)
        lines = open(events).read().splitlines()
        # the first collision that moves two particles
        k = next(k for k, line in enumerate(lines[1:], 1)
                 if line.endswith(",0") and line.split(",")[1] != line.split(",")[2])
        cols = lines[k].split(",")
        digits = cols[3]
        pos = next(p for p in range(3, len(digits)) if digits[p].isdigit())
        cols[3] = digits[:pos] + str((int(digits[pos]) + 1) % 10) + digits[pos + 1:]
        lines[k] = ",".join(cols)
        open(events, "w").write("\n".join(lines) + "\n")
        assert self._replay(sidecar, events, capsys) == 3
        assert "final state" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["drop_field", "extra_field"])
    def test_replay_rejects_row_with_wrong_field_count(self, tmp_path, capsys, edit):
        sidecar, events = self._run_checkpointed_at_zero(tmp_path)
        lines = open(events).read().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] if edit == "drop_field" else lines[2] + ",0"
        open(events, "w").write("\n".join(lines) + "\n")
        assert self._replay(sidecar, events, capsys) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_replay_rejects_missing_digest(self, tmp_path, capsys):
        sidecar, events = self._run_checkpointed_at_zero(tmp_path)
        payload = json.load(open(sidecar))
        del payload["final_sha256"]
        json.dump(payload, open(sidecar, "w"))
        assert self._replay(sidecar, events, capsys) == 3

    def test_version_mismatch_exit_code(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.json", BASE)
        out = str(tmp_path / "out")
        main(["simulate", "--config", cfg, "--out-dir", out])
        sidecar = json.load(open(f"{out}/run_sidecar.json"))
        sidecar["version"] = "9.9.9"
        json.dump(sidecar, open(f"{out}/run_sidecar.json", "w"))
        capsys.readouterr()
        rc = main(["replay", "--sidecar", f"{out}/run_sidecar.json",
                   "--events", f"{out}/run_events.csv"])
        assert rc == 3

    def test_version_mismatch_exits_3_before_a_malformed_log_is_parsed(self, tmp_path, capsys):
        sidecar, events = self._run_checkpointed_at_zero(tmp_path)
        payload = json.load(open(sidecar))
        payload["version"] = "9.9.9"
        json.dump(payload, open(sidecar, "w"))
        with open(events, "a") as fh:
            fh.write("0.5,1,x\n")
        assert self._replay(sidecar, events, capsys) == 3
        assert "version 9.9.9" in capsys.readouterr().err


class TestRateEvalCommand:
    def test_report_written(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.json", BASE)
        out = str(tmp_path / "out")
        main(["simulate", "--config", cfg, "--out-dir", out])
        desc = _write(tmp_path / "desc.json", {
            "descriptors": [
                {"phi": {"kind": "energy", "coeff": 0.2},
                 "f": {"kind": "product", "a_kind": "sin", "a_param": 1.0, "b_kind": "energy"},
                 "g": {"kind": "flux_test", "coeff": 0.1, "radius": 2.0}},
            ]})
        capsys.readouterr()
        rc = main(["rate-eval", "--sidecar", f"{out}/run_sidecar.json",
                   "--events", f"{out}/run_events.csv", "--descriptors", desc,
                   "--out-dir", out])
        assert rc == 0
        report = json.load(open(f"{out}/rate_eval.json"))
        assert len(report["descriptors"]) == 1
        assert abs(report["descriptors"][0]["xi1"]) < 1e-7

    def test_dynamic_cost_and_entropy_with_tilting(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.json", dict(BASE, kernel="maxwell"))
        out = str(tmp_path / "out")
        main(["simulate", "--config", cfg, "--out-dir", out])
        desc = _write(tmp_path / "desc.json",
                      {"descriptors": [], "tilting": {"kind": "constant", "kappa": 2.0}})
        capsys.readouterr()
        rc = main(["rate-eval", "--sidecar", f"{out}/run_sidecar.json",
                   "--events", f"{out}/run_events.csv", "--descriptors", desc,
                   "--out-dir", out])
        assert rc == 0
        report = json.load(open(f"{out}/rate_eval.json"))
        # K = 2 against the unit kernel over horizon T: tau(2) * T
        import math
        assert report["dynamic_cost"]["value"] == pytest.approx(
            (2 * math.log(2) - 1) * BASE["T"], abs=1e-9)
        assert report["relative_entropy"] == 0.0

    def test_dynamic_cost_is_exact_under_pairwise_tilt(self, tmp_path, capsys):
        tilting = {"kind": "pairwise", "a": 1.0, "b": 0.2}
        cfg = _write(tmp_path / "cfg.json", dict(BASE, N=300, kernel="maxwell", tilting=tilting))
        out = str(tmp_path / "out")
        main(["simulate", "--config", cfg, "--out-dir", out])
        desc = _write(tmp_path / "desc.json", {"descriptors": [], "tilting": tilting})
        capsys.readouterr()
        rc = main(["rate-eval", "--sidecar", f"{out}/run_sidecar.json",
                   "--events", f"{out}/run_events.csv", "--descriptors", desc,
                   "--out-dir", out])
        assert rc == 0
        report = json.load(open(f"{out}/rate_eval.json"))
        sidecar, state0, log = load_trajectory_inputs(f"{out}/run_sidecar.json", f"{out}/run_events.csv")
        traj = kl.Trajectory(initial_state=state0, final_state=None, checkpoints=[], log=log,
                             rn_ledger=None, seed=sidecar["seed"],
                             config=kl.SimConfig(n=300, t_max=BASE["T"], kernel=Kernel.MAXWELL))
        exact = dynamic_cost(traj, TiltingScheme.pairwise(1.0, 0.2), mode="exact")
        assert report["dynamic_cost"] == {"value": exact[0], "stderr": 0.0}
        assert exact[0] > 0.0


class TestSimulateWithTilting:
    def test_tilted_config_runs_under_q(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.json",
                     dict(BASE, kernel="maxwell",
                          tilting={"kind": "pairwise", "a": 1.0, "b": 0.2}))
        rc = main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["log_rn"] is not None

    def test_pairwise_with_growing_kernel_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.json",
                     dict(BASE, tilting={"kind": "pairwise", "a": 1.0, "b": 0.2}))
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2

    def test_freeze_tilting_requires_experiment_driver(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.json",
                     dict(BASE, tilting={"kind": "freeze", "M": 2.0, "r": 2,
                                         "theta": {"jump_times": [0.25], "levels": [1.0, 2.0]}}))
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2


class TestTiltExperimentCommand:
    def test_nan_threshold_is_config_error(self, tmp_path, capsys):
        with open(tmp_path / "cfg.json", "w") as fh:
            fh.write('{"N": 20, "T": 1.0, "kernel": "hard_sphere", "tilting": {"kind": "freeze",'
                     ' "M": NaN, "r": 2, "theta": {"jump_times": [0.5], "levels": [1.0, 2.0]}}}')
        rc = main(["tilt-experiment", "--config", str(tmp_path / "cfg.json"),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "$.tilting.M: nan is not a finite number" in capsys.readouterr().err


class TestMetricsCommand:
    def test_distance_between_csvs(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("x0,x1,x2,weight\n0,0,0,1.0\n")
        b.write_text("x0,x1,x2,weight\n1,0,0,1.0\n")
        rc = main(["metrics", "--measure-a", str(a), "--measure-b", str(b)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["distance"] == pytest.approx(1.0, abs=1e-12)

    def test_flux_mode_allows_unequal_mass(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("x0,x1,weight\n")
        b.write_text("x0,x1,weight\n0,0,0.25\n1,1,0.25\n")
        rc = main(["metrics", "--measure-a", str(a), "--measure-b", str(b), "--flux"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["distance"] == pytest.approx(0.5, abs=1e-12)
        # without --flux the mass mismatch is a config error
        assert main(["metrics", "--measure-a", str(a), "--measure-b", str(b)]) == 2

    @pytest.mark.parametrize("body, message", [
        ("0,0,0,1.0\n1,1,1,1.0\n", "row 2 has 4 values, the header 3 columns"),
        ("0,0,1.0\n\n1,1.0\n", "row 4 has 2 values, the header 3 columns"),
        ("0,0,1.0\n0,x,1.0\n", "row 3: could not convert string to float: 'x'"),
    ])
    def test_rows_must_match_the_header(self, tmp_path, capsys, body, message):
        # a row wider or narrower than the header names its file and row
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("x,y,weight\n" + body)
        b.write_text("x,y,weight\n0,0,1.0\n")
        assert main(["metrics", "--measure-a", str(a), "--measure-b", str(b)]) == 2
        assert capsys.readouterr().err == f"config error: {a}: {message}\n"

    @pytest.mark.parametrize("cap", ["-1", "0", "1"])
    @pytest.mark.parametrize("flux", [False, True])
    def test_support_cap_below_two_is_a_config_error(self, tmp_path, capsys, cap, flux):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("x0,weight\n0,0.5\n1,0.5\n")
        b.write_text("x0,weight\n0,0.5\n2,0.5\n")
        argv = ["metrics", "--measure-a", str(a), "--measure-b", str(b), "--support-cap", cap]
        assert main(argv + ["--flux"] * flux) == 2
        err = capsys.readouterr().err
        assert err == f"config error: support_cap = {cap}: at least 2 atoms are needed, one a side\n"


class TestMomentsCommand:
    def test_track_vs_ode_csv(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.json",
                     {"N": 200, "T": 1.0, "kernel": "maxwell", "seed": 2,
                      "checkpoints": [0.0, 0.5, 1.0], "runs": 3})
        ens = str(tmp_path / "ens")
        main(["simulate", "--config", cfg, "--runs", "3", "--out-dir", ens])
        capsys.readouterr()
        rc = main(["moments", "--summary", f"{ens}/ensemble_summary.json", "--out-dir", ens])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert os.path.exists(out["csv"])
        lines = open(out["csv"]).read().strip().splitlines()
        assert lines[0] == "t,m4_sim,m4_se,m4_ode"
        assert len(lines) == 4


class TestTiltExperimentCommand:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.json", {
            "N": 120, "T": 1.0, "kernel": "hard_sphere", "seed": 3, "runs": 2,
            "checkpoints": [0.0, 0.25, 0.75, 1.0],
            "tilting": {"kind": "freeze", "M": 2.0, "r": 2,
                        "theta": {"jump_times": [0.5], "levels": [1.0, 2.0]}},
        })
        out = str(tmp_path / "exp")
        rc = main(["tilt-experiment", "--config", cfg, "--out-dir", out])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["max_relative_energy_drift"] <= 1e-9
        report = json.load(open(f"{out}/experiment_report.json"))
        assert len(report["checkpoint_times"]) == 4
        csv_lines = open(f"{out}/experiment_energy.csv").read().strip().splitlines()
        assert csv_lines[0] == "t,window_energy_mean,window_energy_se,theta"


class TestExitCodes:
    """Runtime failures inside `simulate` exit 3 from either proposal loop;
    configuration errors exit 2, also when `simulate` raises them."""

    @pytest.mark.parametrize("command", ["simulate", "tilt-experiment"])
    @pytest.mark.parametrize("flag", ["--runs", "--threads"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_runs_and_threads_below_one_exit_2(self, tmp_path, capsys, command, flag, value):
        # the config schema's minimum of 1 holds for the flags that override it
        cfg = _write(tmp_path / "cfg.json", dict(BASE, tilting=TestMalformedInputs.FREEZE))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, flag, value, "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"argument {flag}: must be an integer of at least 1, got '{value}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # a collision sends one speed^2 past the largest double: the Fenwick
    # tree refuses the infinite weight in the middle of the run
    OVERFLOWING = np.array([[1e154, 0.5e154, 0.0], [1e154, -0.5e154, 0.0]])

    def _overflowing_run(self, tmp_path, monkeypatch, capsys):
        from kaclab import engine
        monkeypatch.setattr(engine.InitialCondition, "sample",
                            lambda self, reference, n, rng: TestExitCodes.OVERFLOWING.copy())
        cfg = _write(tmp_path / "cfg.json", dict(BASE, N=2, T=50.0, checkpoints=[0.0, 50.0]))
        rc = main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "out")])
        return rc, capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_fenwick_failure_in_compiled_loop_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        from kaclab import _kloop
        if _kloop.kernel(3) is None:
            pytest.skip("no compiled loop")
        rc, err = self._overflowing_run(tmp_path, monkeypatch, capsys)
        assert rc == 3
        assert "runtime error: weights must be finite and nonnegative" in err

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_fenwick_failure_in_python_loop_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        from kaclab import _kloop
        monkeypatch.setattr(_kloop, "_lib", None)
        rc, err = self._overflowing_run(tmp_path, monkeypatch, capsys)
        assert rc == 3
        assert "runtime error: weights must be finite and nonnegative" in err

    def test_config_error_inside_simulate_exits_2(self, tmp_path, capsys):
        # the mixture weights are checked when simulate samples the initial data
        cfg = _write(tmp_path / "cfg.json",
                     dict(BASE, initial={"kind": "scale_mixture", "weights": [0.5, 0.4],
                                         "scales": [1.0, 2.0]}))
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert "config error: mixture weights" in capsys.readouterr().err


class TestMalformedInputs:
    """Every malformed config, descriptors file or sidecar exits 2 with a
    one-line config error, and no traceback."""

    FREEZE = {"kind": "freeze", "M": 2.0, "r": 2,
              "theta": {"jump_times": [0.25], "levels": [1.0, 2.0]}}

    def _assert_config_error(self, argv, capsys):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        return err

    @pytest.mark.parametrize("tilting", [{"kind": "constant"}, {"kind": "pairwise", "b": 0.1},
                                         {"kind": "freeze", "M": 2.0, "r": 2}])
    def test_simulate_tilting_without_its_parameters(self, tmp_path, capsys, tilting):
        cfg = _write(tmp_path / "cfg.json", dict(BASE, kernel="maxwell", tilting=tilting))
        self._assert_config_error(["simulate", "--config", cfg, "--out-dir", str(tmp_path)], capsys)

    @pytest.mark.parametrize("drop", ["theta", "M", "r"])
    def test_tilt_experiment_freeze_without_its_parameters(self, tmp_path, capsys, drop):
        tilting = {k: v for k, v in self.FREEZE.items() if k != drop}
        cfg = _write(tmp_path / "cfg.json", dict(BASE, tilting=tilting))
        self._assert_config_error(["tilt-experiment", "--config", cfg, "--out-dir", str(tmp_path)],
                                  capsys)

    def _simulated(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", _write(tmp_path / "cfg.json", dict(BASE, kernel="maxwell")),
                     "--out-dir", out]) == 0
        return f"{out}/run_sidecar.json", f"{out}/run_events.csv"

    @pytest.mark.parametrize("spec", [
        {"descriptors": [], "tilting": {"kind": "constant"}},
        {"descriptors": [], "tilting": {"kind": "constant", "kappa": 2.0, "oops": 1}},
        {"descriptors": [], "tilting": FREEZE},
        {"descriptors": [{"phi": {"kind": "energy", "coef": 0.2}}]},
        [{"descriptors": []}],
        {"descriptors": ["energy"]},
        {"descriptors": [{"f": {"kind": "product", "a_kind": "poly", "a_param": -1}}]},
        {"descriptors": [{"phi": {"kind": "coordinate", "axis": 3}}]},
        {"descriptors": [{"f": {"kind": "product", "b_kind": "coordinate", "axis": 3}}]},
        {"descriptors": [{"f": {"kind": "product", "b_kind": "coordinate", "axis": -1}}]},
        {"descriptors": [{"phi": {"kind": "radial_bump", "radius": 0}}]},
        {"descriptors": [{"f": {"kind": "product", "b_kind": "radial_bump", "radius": 0}}]},
        {"descriptors": [{"g": {"kind": "flux_test", "radius": 0}}]},
    ])
    def test_rate_eval_malformed_descriptors(self, tmp_path, capsys, spec):
        sidecar, events = self._simulated(tmp_path)
        desc = _write(tmp_path / "desc.json", spec)
        self._assert_config_error(["rate-eval", "--sidecar", sidecar, "--events", events,
                                   "--descriptors", desc, "--out-dir", str(tmp_path)], capsys)

    @pytest.mark.parametrize("spec, path", [
        ({"descriptors": [], "tilting": {"kind": "constant", "kappa": math.nan}},
         "$.tilting.kappa"),
        ({"descriptors": [{"phi": {"kind": "energy", "coeff": math.nan}}]},
         "$.descriptors[0].phi.coeff"),
        ({"descriptors": [{"f": {"kind": "energy", "coeff": -math.inf}}]},
         "$.descriptors[0].f.coeff"),
    ])
    def test_rate_eval_non_finite_descriptors(self, tmp_path, capsys, spec, path):
        # json writes and reads NaN and Infinity, and the schema takes them as numbers
        sidecar, events = self._simulated(tmp_path)
        desc = _write(tmp_path / "desc.json", spec)
        err = self._assert_config_error(["rate-eval", "--sidecar", sidecar, "--events", events,
                                         "--descriptors", desc, "--out-dir", str(tmp_path)],
                                        capsys)
        assert f"{path}: " in err and "is not a finite number" in err
        assert not os.path.exists(tmp_path / "rate_eval.json")

    @pytest.mark.parametrize("command", ["replay", "rate-eval"])
    @pytest.mark.parametrize("edit", ["drop n", "drop checkpoint_times", "add T", "bad kernel",
                                      "remove initial_velocities", "cut velocity_row",
                                      "cut velocity_column", "stringify initial_velocities",
                                      "bool velocity_entry", "huge velocity_entry"])
    def test_malformed_sidecar_config(self, tmp_path, capsys, monkeypatch, command, edit):
        sidecar, events = self._simulated(tmp_path)
        payload = json.load(open(sidecar))
        verb, key = edit.split()
        if verb == "drop":
            del payload["config"][key]
        elif verb == "remove":  # a top-level sidecar key
            del payload[key]
        elif verb == "add":
            payload["config"][key] = 1.0
        elif verb == "bad":
            payload["config"]["kernel"] = "billiards"
        elif key == "velocity_row":  # N - 1 rows
            payload["initial_velocities"].pop()
        elif key == "velocity_column":  # rows of d - 1 numbers
            for row in payload["initial_velocities"]:
                row.pop()
        elif verb == "stringify":  # a string in place of the array
            payload[key] = json.dumps(payload[key])
        else:  # a JSON true, or an integer no double holds
            payload["initial_velocities"][0][0] = True if verb == "bool" else 10 ** 400
        with open(sidecar, "w") as fh:  # the writer's layout, which the compiled reader reads
            json.dump(payload, fh, indent=1)
        if verb == "cut" and _kloop.library() is not None:
            assert _parse_sidecar(open(sidecar, "rb").read()) is not None
        argv = [command, "--sidecar", sidecar, "--events", events]
        if command == "rate-eval":
            argv += ["--descriptors", _write(tmp_path / "desc.json", {"descriptors": []}),
                     "--out-dir", str(tmp_path)]
        self._assert_config_error(argv, capsys)
        monkeypatch.setattr(_kloop, "_lib", None)  # json reads every sidecar
        self._assert_config_error(argv, capsys)

    @pytest.mark.parametrize("edit", ["drop m4_mean", "shorten m4_se", "drop d", "drop kernel",
                                      "set d 2", "set kernel hard_sphere"])
    def test_moments_malformed_summary(self, tmp_path, capsys, edit):
        summary = {"n_runs": 2, "checkpoint_times": [0.0, 0.5], "m2_mean": [1.0, 1.0],
                   "m2_se": [0.0, 0.0], "m4_mean": [3.0, 2.9], "m4_se": [0.1, 0.1],
                   "d": 3, "kernel": "maxwell"}
        assert main(["moments", "--summary", _write(tmp_path / "ok.json", summary),
                     "--out-dir", str(tmp_path)]) == 0
        verb, key, *value = edit.split()
        if verb == "drop":
            del summary[key]
        elif verb == "set":  # a summary the d = 3 Maxwell law does not describe
            summary[key] = int(value[0]) if key == "d" else value[0]
        else:
            summary[key] = summary[key][:1]
        path = _write(tmp_path / "summary.json", summary)
        self._assert_config_error(["moments", "--summary", path, "--out-dir", str(tmp_path)], capsys)

    @pytest.mark.parametrize("edit", [{"d": 2}, {"kernel": "hard_sphere"}])
    def test_moments_refuses_other_ensembles(self, tmp_path, capsys, edit):
        cfg = _write(tmp_path / "cfg.json", {**BASE, "kernel": "maxwell", **edit})
        ens = str(tmp_path / "ens")
        assert main(["simulate", "--config", cfg, "--runs", "2", "--out-dir", ens]) == 0
        summary = json.load(open(f"{ens}/ensemble_summary.json"))
        assert (summary["d"], summary["kernel"]) == (edit.get("d", 3), edit.get("kernel", "maxwell"))
        self._assert_config_error(["moments", "--summary", f"{ens}/ensemble_summary.json",
                                   "--out-dir", ens], capsys)

    @pytest.mark.parametrize("command", ["replay", "rate-eval"])
    @pytest.mark.parametrize("index", [-1, BASE["N"]])
    def test_event_row_with_a_bad_particle_index(self, tmp_path, capsys, command, index):
        sidecar, events = self._simulated(tmp_path)
        header, first, *rest = open(events).read().splitlines()
        t, i, j, *tail = first.split(",")
        with open(events, "w") as fh:
            fh.write("\n".join([header, ",".join([t, str(index), j, *tail]), *rest]) + "\n")
        argv = [command, "--sidecar", sidecar, "--events", events]
        if command == "rate-eval":
            argv += ["--descriptors", _write(tmp_path / "desc.json", {"descriptors": []}),
                     "--out-dir", str(tmp_path)]
        self._assert_config_error(argv, capsys)

    @pytest.mark.parametrize("command", ["replay", "rate-eval"])
    @pytest.mark.parametrize("edit", ["d = 2 log", "renamed column"])
    def test_event_header_against_the_sidecar_d(self, tmp_path, capsys, command, edit):
        sidecar, events = self._simulated(tmp_path)  # d = 3
        if edit == "d = 2 log":
            out = str(tmp_path / "d2")
            cfg = _write(tmp_path / "cfg2.json", dict(BASE, kernel="maxwell", d=2))
            assert main(["simulate", "--config", cfg, "--out-dir", out]) == 0
            events = f"{out}/run_events.csv"
        else:
            text = open(events).read()
            with open(events, "w") as fh:
                fh.write(text.replace("sx,sy,sz", "s0,s1,s2", 1))
        argv = [command, "--sidecar", sidecar, "--events", events]
        if command == "rate-eval":
            argv += ["--descriptors", _write(tmp_path / "desc.json", {"descriptors": []}),
                     "--out-dir", str(tmp_path)]
        err = self._assert_config_error(argv, capsys)
        # the message names the header the sidecar's d = 3 calls for
        assert "'t,i,j,sx,sy,sz,assignment,fictitious'" in err

    def test_replay_reference_without_checkpoints(self, tmp_path, capsys):
        sidecar, events = self._simulated(tmp_path)
        ref = _write(tmp_path / "ref.json", {"version": "0.1.0"})
        self._assert_config_error(["replay", "--sidecar", sidecar, "--events", events,
                                   "--reference-checkpoints", ref], capsys)
