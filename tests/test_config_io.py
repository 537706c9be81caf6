import json

import numpy as np
import pytest

import kaclab as kl
from kaclab.config_io import (ConfigError, VersionMismatchError, _one_run, parse_config,
                              pool_summaries, read_event_csv, replay, run_ensemble,
                              save_trajectory, state_digest, write_event_csv, write_sidecar)
from kaclab.kinetics import Kernel


class TestParseConfig:
    def test_minimal_defaults(self):
        parsed = parse_config({"N": 10, "T": 1.0, "kernel": "maxwell"})
        assert parsed.sim.d == 3
        assert parsed.sim.seed == 0
        assert parsed.sim.checkpoint_times == (0.0, 1.0)
        assert parsed.runs == 1

    def test_negative_n_names_field(self):
        with pytest.raises(ConfigError, match="N"):
            parse_config({"N": -5, "T": 1.0, "kernel": "maxwell"})

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="unexpected|additional"):
            parse_config({"N": 10, "T": 1.0, "kernel": "maxwell", "notakey": 3})

    def test_nested_unknown_key_path(self):
        with pytest.raises(ConfigError, match="tilting"):
            parse_config({"N": 10, "T": 1.0, "kernel": "maxwell",
                          "tilting": {"kind": "constant", "kappa": 2.0, "oops": 1}})

    def test_bad_kernel_enum(self):
        with pytest.raises(ConfigError, match="kernel"):
            parse_config({"N": 10, "T": 1.0, "kernel": "billiards"})

    def test_freeze_config_roundtrips_byte_identically(self):
        raw = {
            "N": 100, "T": 1.0, "kernel": "hard_sphere", "seed": 9, "runs": 4,
            "checkpoints": [0.0, 0.5, 1.0],
            "tilting": {"kind": "freeze", "M": 4.0, "r": 4,
                        "theta": {"jump_times": [0.5], "levels": [1.0, 2.0]}},
        }
        echo1 = parse_config(raw).echo
        echo2 = parse_config(echo1).echo
        assert json.dumps(echo1, sort_keys=True) == json.dumps(echo2, sort_keys=True)


class TestSimConfigFromDict:
    CONFIGS = [
        kl.SimConfig(n=10, t_max=1.0),
        kl.SimConfig(n=7, t_max=0.5, kernel=Kernel.HARD_SPHERE, d=2, seed=4,
                     checkpoint_times=(0.5, 0.0, 0.25), truncation_thresholds=(1.0, 2.5),
                     initial=kl.InitialCondition("scale_mixture", (0.25, 0.75), (1.0, 2.0))),
        kl.SimConfig(n=3, t_max=2.0, measure="P", store_log=False, record_full_states=True),
        kl.SimConfig(n=5, t_max=1.0, majorant_inflation=1.5),
    ]

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_inverts_to_dict(self, cfg):
        assert kl.SimConfig.from_dict(cfg.to_dict()) == cfg
        assert kl.SimConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @pytest.mark.parametrize("key", ["n", "checkpoint_times", "initial"])
    def test_missing_key(self, key):
        data = kl.SimConfig(n=10, t_max=1.0).to_dict()
        del data[key]
        with pytest.raises(ValueError, match=f"missing keys \\['{key}'\\]"):
            kl.SimConfig.from_dict(data)

    def test_extra_key(self):
        data = dict(kl.SimConfig(n=10, t_max=1.0).to_dict(), T=1.0)
        with pytest.raises(ValueError, match="unknown keys \\['T'\\]"):
            kl.SimConfig.from_dict(data)

    def test_extra_initial_key(self):
        data = kl.SimConfig(n=10, t_max=1.0).to_dict()
        data["initial"]["shape"] = 2.0
        with pytest.raises(ValueError, match="config.initial"):
            kl.SimConfig.from_dict(data)


class TestPersistence:
    def _traj(self, **kw):
        cfg = kl.SimConfig(n=24, t_max=0.8, kernel=Kernel.HARD_SPHERE, seed=3,
                           truncation_thresholds=(1.5,), **kw)
        return kl.simulate(cfg)

    def test_event_csv_roundtrip_bitexact(self, tmp_path):
        traj = self._traj()
        path = tmp_path / "events.csv"
        write_event_csv(str(path), traj.log, 3)
        log2 = read_event_csv(str(path), 24, 0.8)
        assert np.array_equal(log2.t, traj.log.t)
        assert np.array_equal(log2.sigma, traj.log.sigma)
        assert np.array_equal(log2.i, traj.log.i)
        assert np.array_equal(log2.fictitious, traj.log.fictitious)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_event_csv_columns_keep_their_dtypes_and_bytes(self, tmp_path, d):
        traj = kl.simulate(kl.SimConfig(n=30, t_max=0.5, kernel=Kernel.HARD_SPHERE, d=d, seed=4))
        path = tmp_path / "events.csv"
        write_event_csv(str(path), traj.log, d)
        log2 = read_event_csv(str(path), 30, 0.5)
        for name in ("t", "i", "j", "sigma", "assignment", "fictitious"):
            a, b = getattr(traj.log, name), getattr(log2, name)
            assert b.dtype == a.dtype and b.shape == a.shape and b.flags.c_contiguous
            assert b.tobytes() == a.tobytes(), name

    @staticmethod
    def _reference_csv(log, d) -> bytes:
        """The event CSV formatted one numpy scalar at a time: the writer's oracle."""
        cols = ["sx", "sy", "sz"] if d == 3 else [f"s{k}" for k in range(d)]
        lines = ["t,i,j," + ",".join(cols) + ",assignment,fictitious"]
        for k in range(len(log)):
            sig = ",".join(f"{x:.17g}" for x in log.sigma[k])
            lines.append(f"{log.t[k]:.17g},{log.i[k]},{log.j[k]},{sig},{log.assignment[k]},"
                         f"{int(log.fictitious[k])}")
        return ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("rows", [None, 0])
    def test_event_csv_bytes_match_the_reference_writer(self, tmp_path, d, rows):
        log = kl.simulate(kl.SimConfig(n=30, t_max=0.5, kernel=Kernel.HARD_SPHERE, d=d, seed=4)).log
        if rows == 0:
            log = kl.EventLog(log.t[:0], log.i[:0], log.j[:0], log.sigma[:0], log.assignment[:0],
                              log.fictitious[:0], 30, 0.5)
        else:  # values %.17g prints in every form: exponents, -0, whole numbers
            log.t[:4] = (1e-300, 2.5e-7, 0.125, 3.0)
            log.sigma[:3, 0] = (-0.0, 1.0, -1e-17)
            assert np.any(log.fictitious) and np.any(~log.fictitious)
        path = tmp_path / "events.csv"
        write_event_csv(str(path), log, d)
        assert path.read_bytes() == self._reference_csv(log, d)

    @pytest.mark.parametrize("i", [-1, 24])
    def test_event_csv_with_a_bad_particle_index_is_a_config_error(self, tmp_path, i):
        traj = self._traj()
        path = tmp_path / "events.csv"
        write_event_csv(str(path), traj.log, 3)
        lines = path.read_text().splitlines()
        fields = lines[5].split(",")
        fields[2] = str(i)  # the j column
        lines[5] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="row 5 names particles"):
            read_event_csv(str(path), 24, 0.8)

    @pytest.mark.parametrize("d", [2, 4])
    def test_event_csv_header_of_another_d_is_a_config_error(self, tmp_path, d):
        traj = self._traj()
        path = tmp_path / "events.csv"
        write_event_csv(str(path), traj.log, 3)
        assert len(read_event_csv(str(path), 24, 0.8, d=3)) == len(traj.log)
        expected = "t,i,j," + ",".join(f"s{k}" for k in range(d)) + ",assignment,fictitious"
        with pytest.raises(ConfigError, match=f"is not the d = {d} event header '{expected}'"):
            read_event_csv(str(path), 24, 0.8, d=d)

    @pytest.mark.filterwarnings("error")
    def test_event_csv_of_no_rows(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("t,i,j,s0,s1,s2,s3,assignment,fictitious\n")
        log = read_event_csv(str(path), 5, 1.0)
        assert log.t.shape == log.i.shape == log.assignment.shape == log.fictitious.shape == (0,)
        assert log.sigma.shape == (0, 4) and log.fictitious.dtype == bool

    def test_event_csv_row_with_missing_field_is_a_value_error(self, tmp_path):
        traj = self._traj()
        path = tmp_path / "events.csv"
        write_event_csv(str(path), traj.log, 3)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="columns"):
            read_event_csv(str(path), 24, 0.8)

    def test_replay_reproduces_checkpoints(self, tmp_path):
        traj = self._traj(checkpoint_times=(0.0, 0.4, 0.8))
        paths = save_trajectory(str(tmp_path), traj)
        _, summaries = replay(paths["sidecar"], paths["events"])
        for cp, got in zip(traj.checkpoints, summaries):
            assert got["m2"] == pytest.approx(cp.m2, abs=1e-12)
            assert got["m4"] == pytest.approx(cp.m4, abs=1e-12)
            assert got["truncated_m2"]["1.5"] == pytest.approx(cp.truncated_m2[1.5], abs=1e-12)

    @pytest.mark.parametrize("n, d", [(1, 2), (1, 3), (40, 2), (40, 3)])
    def test_sidecar_is_the_indented_json_dump(self, tmp_path, n, d):
        traj = kl.simulate(kl.SimConfig(n=n, t_max=0.5, kernel=Kernel.HARD_SPHERE, d=d, seed=6))
        path = tmp_path / "sidecar.json"
        write_sidecar(str(path), traj)
        payload = {"version": kl.__version__, "config": traj.config.to_dict(), "seed": traj.seed,
                   "initial_velocities": traj.initial_state.velocities.tolist(),
                   "final_sha256": state_digest(traj.final_state.velocities),
                   "ledger": traj.rn_ledger.to_dict()}
        assert path.read_text() == json.dumps(payload, indent=1)

    def test_version_stamp_refusal(self, tmp_path):
        traj = self._traj()
        paths = save_trajectory(str(tmp_path), traj)
        with open(paths["sidecar"]) as fh:
            sidecar = json.load(fh)
        sidecar["version"] = "0.0.0-other"
        with open(paths["sidecar"], "w") as fh:
            json.dump(sidecar, fh)
        with pytest.raises(VersionMismatchError):
            replay(paths["sidecar"], paths["events"])
        replay(paths["sidecar"], paths["events"], force=True)


class TestEnsemble:
    BASE = {"N": 16, "T": 0.5, "kernel": "maxwell", "seed": 5, "checkpoints": [0.0, 0.5]}

    def test_single_run_matches_simulate(self):
        parsed = parse_config(self.BASE)
        summaries, _ = run_ensemble(parsed, n_runs=1)
        traj = kl.simulate(parsed.sim, rng=kl.make_rng(5, 0))
        assert summaries[0].m2[-1] == traj.checkpoints[-1].m2
        assert summaries[0].m4[-1] == traj.checkpoints[-1].m4

    def test_same_master_seed_identical_artifacts(self, tmp_path):
        parsed = parse_config(self.BASE)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_ensemble(parsed, n_runs=3, out_dir=str(d1))
        run_ensemble(parsed, n_runs=3, out_dir=str(d2))
        assert (d1 / "ensemble_summary.json").read_bytes() == (d2 / "ensemble_summary.json").read_bytes()

    def test_batch_split_pools_identically(self):
        parsed = parse_config(self.BASE)
        full, _ = run_ensemble(parsed, n_runs=20)
        first, _ = run_ensemble(parsed, n_runs=10)
        # runs 10..19 on their own, as a second batch would draw them
        second = [_one_run((parsed.sim, parsed.tilting, k)) for k in range(10, 20)]
        pooled_full = pool_summaries(full)
        pooled_split = pool_summaries(first + second)
        assert json.dumps(pooled_full, sort_keys=True) == json.dumps(pooled_split, sort_keys=True)

    def test_parallel_matches_sequential(self):
        parsed = parse_config(self.BASE)
        seq, _ = run_ensemble(parsed, n_runs=4, threads=1)
        par, _ = run_ensemble(parsed, n_runs=4, threads=2)
        assert json.dumps(pool_summaries(seq), sort_keys=True) == \
               json.dumps(pool_summaries(par), sort_keys=True)
