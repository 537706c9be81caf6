import dataclasses
import decimal
import json
import locale
import math
import os
import re
import shutil
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import kaclab as kl
from kaclab import _kloop
from kaclab.cli import main
from kaclab.config_io import (ConfigError, VersionMismatchError, _atomic_write, _one_run,
                              _parse_sidecar, _read_sidecar, _velocity_block,
                              load_trajectory_inputs, parse_config, pool_summaries,
                              read_event_csv, replay, run_ensemble, save_trajectory,
                              state_digest, write_event_csv, write_sidecar)
from kaclab.kinetics import Kernel

needs_kernel = pytest.mark.skipif(_kloop.library() is None, reason="no compiled kernel")


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

    @pytest.mark.parametrize("text, path", [
        ('{"N": 2, "T": Infinity, "kernel": "maxwell"}', "$.T"),
        ('{"N": 2, "T": 1.0, "kernel": "maxwell", "checkpoints": [0.0, -Infinity]}', "$.checkpoints[1]"),
        ('{"N": 2, "T": 1.0, "kernel": "maxwell", "majorant_inflation": 1e999}', "$.majorant_inflation"),
        ('{"N": 2, "T": 1.0, "kernel": "hard_sphere", "tilting": {"kind": "freeze", "M": NaN, "r": 2,'
         ' "theta": {"jump_times": [0.5], "levels": [1.0, 2.0]}}}', "$.tilting.M"),
        ('{"N": 2, "T": 1.0, "kernel": "maxwell", "tilting": {"kind": "constant", "kappa": NaN}}',
         "$.tilting.kappa"),
    ], ids=["T", "checkpoint", "overflow", "M", "kappa"])
    def test_non_finite_numbers_rejected_from_file_and_dict(self, text, path, tmp_path):
        # json and the schema both take NaN and infinities
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        for source in (str(cfg), json.loads(text)):
            with pytest.raises(ConfigError, match=re.escape(path) + ": .* is not a finite number"):
                parse_config(source)

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


def _sidecar_payload(traj) -> dict:
    """What the sidecar of a trajectory holds, the velocities as lists."""
    return {"version": kl.__version__, "config": traj.config.to_dict(), "seed": traj.seed,
            "initial_velocities": traj.initial_state.velocities.tolist(),
            "final_sha256": state_digest(traj.final_state.velocities),
            "ledger": traj.rn_ledger.to_dict()}


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

    def _check_writer(self, tmp_path, d, rows):
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

    # the compiled writer where the kernel loads, the Python writer without it
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("rows", [None, 0])
    def test_event_csv_bytes_match_the_reference_writer(self, tmp_path, d, rows):
        self._check_writer(tmp_path, d, rows)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("rows", [None, 0])
    def test_python_event_csv_writer_matches_the_reference_writer(self, tmp_path, monkeypatch,
                                                                  d, rows):
        monkeypatch.setattr(_kloop, "_lib", None)
        self._check_writer(tmp_path, d, rows)

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
        sidecar, summaries = replay(paths["sidecar"], paths["events"])
        # the replay walks a copy: the sidecar keeps the initial velocities
        assert sidecar["initial_velocities"].tobytes() == traj.initial_state.velocities.tobytes()
        for cp, got in zip(traj.checkpoints, summaries):
            assert got["m2"] == pytest.approx(cp.m2, abs=1e-12)
            assert got["m4"] == pytest.approx(cp.m4, abs=1e-12)
            assert got["truncated_m2"]["1.5"] == pytest.approx(cp.truncated_m2[1.5], abs=1e-12)

    @pytest.mark.parametrize("n, d", [(1, 2), (1, 3), (40, 2), (40, 3)])
    def test_sidecar_is_the_indented_json_dump(self, tmp_path, monkeypatch, n, d):
        # the run's own velocities, and a block of every form repr prints with
        # values outside the compiled writer's band among them, on the
        # compiled writer and the Python one
        traj = kl.simulate(kl.SimConfig(n=n, t_max=0.5, kernel=Kernel.HARD_SPHERE, d=d, seed=6))
        cases = _repr_cases(np.random.default_rng(n + d), 200, 20)
        cases = np.resize(cases, (len(cases) // d, d))
        path = tmp_path / "sidecar.json"
        for traj in (traj, dataclasses.replace(traj, initial_state=kl.ParticleState(cases))):
            for lib in (_kloop.library(), None):
                with monkeypatch.context() as m:
                    m.setattr(_kloop, "_lib", lib)
                    write_sidecar(str(path), traj)
                assert path.read_text() == json.dumps(_sidecar_payload(traj), indent=1)

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

    def test_version_mismatch_is_refused_before_the_log_is_read(self, tmp_path):
        traj = self._traj()
        paths = save_trajectory(str(tmp_path), traj)
        with open(paths["sidecar"]) as fh:
            sidecar = json.load(fh)
        sidecar["version"] = "0.0.0-other"
        with open(paths["sidecar"], "w") as fh:
            json.dump(sidecar, fh)
        with open(paths["events"], "a") as fh:
            fh.write("not,a,row\n")
        with pytest.raises(VersionMismatchError):
            replay(paths["sidecar"], paths["events"])
        with pytest.raises(ValueError):
            replay(paths["sidecar"], paths["events"], force=True)

    @pytest.mark.parametrize("payload", ["text", b"bytes"])
    def test_atomic_write_leaves_no_temporary_file_when_the_replace_fails(
            self, tmp_path, monkeypatch, payload):
        path = tmp_path / "out.txt"
        path.write_text("old")

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            _atomic_write(str(path), payload)
        assert os.listdir(tmp_path) == ["out.txt"] and path.read_text() == "old"

    def test_atomic_write_leaves_no_temporary_file_when_the_write_fails(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(UnicodeEncodeError):
            _atomic_write(str(path), "\ud800")  # a lone surrogate encodes in no codec
        assert os.listdir(tmp_path) == []


@pytest.fixture(params=["compiled", "python"])
def csv_route(request, monkeypatch):
    """Run a test on the compiled event-CSV path and on the Python one."""
    if request.param == "python":
        monkeypatch.setattr(_kloop, "_lib", None)
    elif _kloop.library() is None:
        pytest.skip("no compiled kernel")
    return request.param


def _ties(rng, count):
    """Doubles whose exact decimal expansion has 18 significant digits: a
    tie at the 17th, which %.17g rounds to even."""
    out = []
    for m in range(count):
        j = int(rng.integers(3, 18))  # k / 2**j with k odd ends in 5 at the j-th decimal
        k = int(rng.integers(10 ** (17 - j) * 2 ** j, 10 ** (18 - j) * 2 ** j)) | 1
        out.append((-1) ** m * k / 2 ** j)
        assert len(Decimal(out[-1]).as_tuple().digits) == 18
    return out


def _battery(rng) -> np.ndarray:
    """Doubles %.17g prints in every form, and rounds at every kind of tie."""
    bits = rng.integers(0, 2 ** 63, 3000, dtype=np.int64).view(np.float64)
    bits = np.concatenate([bits, -bits])
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1e308, -1e308, 1e-308, 1e-307,
               1e16, 1e17, 123456789012345678.0, 0.1, 1e-5, 1e-4, 9.9999999999999995e-5]
    return np.concatenate([bits[np.isfinite(bits)], rng.uniform(-1.0, 1.0, 2000),
                           rng.uniform(0.0, 2.0, 2000), _ties(rng, 1000), special])


def _log_of(values: np.ndarray, d: int, n: int = 30) -> kl.EventLog:
    """An event log whose times are the sorted values and whose sigma rows
    are the values in order."""
    rows = len(values) // d
    rng = np.random.default_rng(1)
    sigma = values[:rows * d].reshape(rows, d)
    return kl.EventLog(np.sort(values[:rows]), rng.integers(0, n, rows), rng.integers(0, n, rows),
                       sigma, rng.integers(-128, 128, rows), rng.integers(0, 2, rows) == 1,
                       n, 1.0)


def _outcome(path, n, horizon):
    """The bits of the log read from path, or the type and message of the
    exception reading it raises."""
    try:
        log = read_event_csv(str(path), n, horizon)
    except Exception as exc:  # noqa: BLE001 - the paths must raise alike
        return type(exc), str(exc)
    return tuple((name, getattr(log, name).dtype.str, getattr(log, name).shape,
                  getattr(log, name).tobytes())
                 for name in ("t", "i", "j", "sigma", "assignment", "fictitious"))


def _both_routes(path, monkeypatch, n=24, horizon=0.8):
    """Read path on the compiled path and on np.loadtxt; they must agree."""
    compiled = _outcome(path, n, horizon)
    with monkeypatch.context() as m:
        m.setattr(_kloop, "_lib", None)
        python = _outcome(path, n, horizon)
    assert compiled == python
    return compiled


def _set_comma_locale() -> bool:
    """Set LC_NUMERIC to a locale whose decimal point is a comma, if one is
    installed."""
    for name in ("de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8"):
        try:
            locale.setlocale(locale.LC_NUMERIC, name)
            return True
        except locale.Error:
            continue
    return False


def _set_field(col: int, value: bytes):
    """An edit of an event CSV's text that sets field `col` of its second row."""
    def edit(data):
        lines = data.split(b"\n")
        fields = lines[2].split(b",")
        fields[col] = value
        lines[2] = b",".join(fields)
        return b"\n".join(lines)
    return edit


class TestEventCsvRoutes:
    """The compiled writer and reader (`kac_write_events`, `kac_read_events`)
    against the Python writer and `np.loadtxt`."""

    @pytest.mark.parametrize("d", [1, 3])
    def test_value_battery_matches_the_reference_and_reads_back_bit_exact(
            self, tmp_path, monkeypatch, csv_route, d):
        log = _log_of(_battery(np.random.default_rng(d)), d)
        path = tmp_path / "events.csv"
        write_event_csv(str(path), log, d)
        assert path.read_bytes() == TestPersistence._reference_csv(log, d)
        read = _both_routes(path, monkeypatch, n=30, horizon=1.0)
        for name, dtype, shape, data in read:
            want = np.ascontiguousarray(getattr(log, name))
            assert (dtype, shape, data) == (want.dtype.str, want.shape, want.tobytes()), name

    @pytest.mark.parametrize("column", ["t", "sigma"])
    def test_non_finite_values_match_the_reference_writer(self, tmp_path, csv_route, column):
        # glibc prints a negative NaN as -nan, Python as nan
        log = _log_of(np.arange(9.0), 3)
        if column == "t":  # an EventLog checks its times once, when it is made
            log.t[:] = (-np.inf, -np.nan, np.inf)
        else:
            log.sigma[1] = (np.nan, -np.nan, np.inf)
            log.sigma[2, 0] = -np.inf
        path = tmp_path / "events.csv"
        write_event_csv(str(path), log, 3)
        assert path.read_bytes() == TestPersistence._reference_csv(log, 3)

    @needs_kernel
    def test_a_canonical_file_is_read_without_loadtxt(self, tmp_path, monkeypatch):
        traj = kl.simulate(kl.SimConfig(n=24, t_max=0.8, kernel=Kernel.HARD_SPHERE, seed=3))
        path = tmp_path / "events.csv"
        write_event_csv(str(path), traj.log, 3)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))  # no final newline is canonical too

        def fail(*args, **kwargs):
            raise AssertionError("np.loadtxt read a canonical event CSV")

        monkeypatch.setattr(np, "loadtxt", fail)
        log = read_event_csv(str(path), 24, 0.8)
        assert log.sigma.tobytes() == traj.log.sigma.tobytes() and len(log) == len(traj.log)

    EDITS = {
        "blank_line": lambda data: data.replace(b"\n", b"\n\n", 3),
        "comment": lambda data: data.replace(b"\n", b"\n# a comment\n", 2),
        "trailing_comment": lambda data: data.replace(b",0\n", b",0 # note\n", 3),
        "crlf": lambda data: data.replace(b"\n", b"\r\n"),
        "crlf_header_only": lambda data: data.replace(b"\n", b"\r\n", 1),
        "header_spaces": lambda data: b"  " + data,
        "no_final_newline": lambda data: data.rstrip(b"\n"),
        "two_final_newlines": lambda data: data + b"\n",
        "only_the_header": lambda data: data.split(b"\n", 1)[0] + b"\n",
        "header_without_newline": lambda data: data.split(b"\n", 1)[0],
        "missing_field": lambda data: data.replace(b",0\n", b"\n", 1),
        "extra_field": lambda data: data.replace(b",0\n", b",0,0\n", 1),
        "embedded_nul": lambda data: data.replace(b",0\n", b",0\x00\n", 1),
        "final_nul": lambda data: data.rstrip(b"\n") + b"\x00",
        "space_before": _set_field(3, b" 0.5"),
        "space_after": _set_field(4, b"0.5 "),
        "empty_field": _set_field(4, b""),
        "plus_float": _set_field(3, b"+0.5"),
        "plus_int": _set_field(1, b"+3"),
        "inf": _set_field(3, b"inf"),
        "nan": _set_field(4, b"nan"),
        "hex_float": _set_field(5, b"0x1.8p-1"),
        "upper_exponent": _set_field(3, b"1.5E-05"),
        "unsigned_exponent": _set_field(3, b"1.5e5"),
        "bare_point": _set_field(3, b"5."),
        "leading_point": _set_field(3, b".5"),
        "huge_exponent": _set_field(3, b"1e+400"),
        "tiny_exponent": _set_field(4, b"-1e-400"),
        "long_mantissa": _set_field(5, b"0.12345678901234567890123456789012345678901"),
        "float_in_int": _set_field(1, b"3.0"),
        "leading_zeros": _set_field(1, b"007"),
        "minus_zero_int": _set_field(6, b"-0"),
        "int8_overflow": _set_field(6, b"200"),
        "int8_underflow": _set_field(6, b"-129"),
        "int8_max": _set_field(6, b"127"),
        "int8_min": _set_field(7, b"-128"),
        "fictitious_two": _set_field(7, b"2"),
        "int64_overflow": _set_field(2, b"9223372036854775808"),
        "int64_min": _set_field(2, b"-9223372036854775808"),
    }

    @pytest.mark.parametrize("name", list(EDITS))
    def test_non_canonical_files_read_alike_on_both_paths(self, tmp_path, monkeypatch, name):
        traj = kl.simulate(kl.SimConfig(n=24, t_max=0.8, kernel=Kernel.HARD_SPHERE, seed=3))
        path = tmp_path / "events.csv"
        write_event_csv(str(path), traj.log, 3)
        path.write_bytes(self.EDITS[name](path.read_bytes()))
        _both_routes(path, monkeypatch)

    def test_locale_with_a_comma_decimal_point_takes_the_python_paths(self, tmp_path,
                                                                      monkeypatch):
        old = locale.setlocale(locale.LC_NUMERIC)
        if not _set_comma_locale():
            # none installed: compile de_DE.UTF-8 and point glibc at it
            if shutil.which("localedef") is None:
                pytest.skip("no locale with a comma decimal point, and no localedef")
            out = tmp_path / "locales"
            out.mkdir()
            proc = subprocess.run(["localedef", "-i", "de_DE", "-f", "UTF-8",
                                   str(out / "de_DE.UTF-8")], capture_output=True, text=True)
            if proc.returncode != 0:
                pytest.skip(f"no locale with a comma decimal point: {proc.stderr.strip()}")
            monkeypatch.setenv("LOCPATH", str(out))
            assert _set_comma_locale()
        try:
            assert locale.localeconv()["decimal_point"] == ","
            log = _log_of(_battery(np.random.default_rng(5)), 3)
            path = tmp_path / "events.csv"
            write_event_csv(str(path), log, 3)
            assert path.read_bytes() == TestPersistence._reference_csv(log, 3)
            _both_routes(path, monkeypatch, n=30, horizon=1.0)
            # the sidecar: the compiled writer prints no locale's point, and
            # the compiled reader declines, so json.load reads it
            traj = kl.simulate(kl.SimConfig(n=24, t_max=0.8, kernel=Kernel.HARD_SPHERE, seed=3))
            traj = _with_velocities(traj, np.resize(_repr_cases(np.random.default_rng(5), 200, 20),
                                                    (24, 3)))
            paths = save_trajectory(str(tmp_path), traj)
            with open(paths["sidecar"]) as fh:
                assert fh.read() == json.dumps(_sidecar_payload(traj), indent=1)
            with open(paths["sidecar"], "rb") as fh:
                assert _parse_sidecar(fh.read()) is None
            compiled = _load_outcome(paths)
            with monkeypatch.context() as m:
                m.setattr(_kloop, "_lib", None)
                assert _load_outcome(paths) == compiled
            assert compiled[0][3] == traj.initial_state.velocities.tobytes()
        finally:
            locale.setlocale(locale.LC_NUMERIC, old)


def _up(x: float, steps: int) -> list:
    """x and the doubles after it (steps > 0) or before it (steps < 0)."""
    out = [x]
    for _ in range(abs(steps)):
        out.append(float(np.nextafter(out[-1], np.inf if steps > 0 else -np.inf)))
    return out


def _ties_at(rng, k: int, count: int) -> list:
    """Doubles in [10^k, 10^(k + 1)) whose exact decimal expansion has 18
    significant digits, the last a 5: odd / 2^(17 - k), a tie at the 17th."""
    j = 17 - k
    lo = math.ceil(Fraction(2 ** j) * Fraction(10) ** k)
    hi = min(math.ceil(Fraction(2 ** j) * Fraction(10) ** (k + 1)), 2 ** 53)
    out = [(-1) ** m * (2 * int(rng.integers(lo // 2, hi // 2)) + 1) / 2 ** j
           for m in range(count)]
    assert all(len(Decimal(x).as_tuple().digits) == 18 for x in out)
    return out


def _writer_cases(rng) -> np.ndarray:
    """Doubles at every edge of the writer's fast path, 2^-19 <= |x| < 2^52,
    and of its decimal exponent k: the powers of ten with a run of
    neighbours each side (the first 17 digits of 10^k up from 10^k come
    out 18 digits long while the binary exponent says k - 1; none rounds
    up to 10^(k + 1), which the run below each checks), the band's edges,
    the powers of two with their unevenly spaced neighbours, ties at every
    k, and -0.0."""
    out = [-0.0, 0.0]
    for k in range(-8, 18):
        out += _up(float(f"1e{k}"), 40) + _up(float(f"1e{k}"), -40)
        out += _ties_at(rng, k, 40) if -6 <= k <= 15 else []
    for e in range(-24, 56):
        out += _up(2.0 ** e, 2) + _up(2.0 ** e, -2)
    out += [float(x) for x in rng.uniform(-1.0, 1.0, 500) * 10.0 ** rng.integers(-8, 18, 500)]
    values = np.array(out)
    return np.concatenate([values, -values])


def _digits_text(rng, count: int, exponent: int | None) -> str:
    """A random mantissa of `count` digits, first one not 0, with its point
    at a random place, and an exponent if one is given."""
    digits = str(int(rng.integers(1, 10))) + "".join(map(str, rng.integers(0, 10, count - 1)))
    point = int(rng.integers(1, count + 1))
    text = digits[:point] + ("." + digits[point:] if point < count else "")
    return text if exponent is None else f"{text}e{exponent:+03d}"


def _reader_cases(rng) -> list:
    """Texts in the writer's grammar at every edge of the reader's fast path,
    w 10^-n with w < 10^19 and 0 <= n <= 22: mantissas of 17 to 20 digits
    (20 take strtod), the 19-digit texts next to midpoints of adjacent
    doubles, exact midpoints of at most 19 digits, leading zeros, e-forms
    and zeros."""
    out = ["0", "-0", "0.0", "-0.0", "0e+00", "-0e-05", "0.000", "1", "-1", "1e+00", "1e-22",
           "1e-23", "1e+22", "10000000000000000000", "9999999999999999999",
           "18446744073709551615", "18446744073709551616", "0.0000147", "-0.000014700000000000001",
           "147e-07", "0.00147e-2", "123e+01", "1.5e-05", "5e-324", "2.2250738585072014e-308"]
    for count in (1, 5, 17, 18, 19, 20):
        for exponent in (None, *range(-25, 5)):
            out += [("-" if m % 2 else "") + _digits_text(rng, count, exponent) for m in range(4)]
    near_misses = 0
    for x in [*rng.uniform(0.0, 2.0, 300),
              *(rng.uniform(1.0, 10.0, 300) * 10.0 ** rng.integers(-7, 17, 300))]:
        mid = (Decimal(x) + Decimal(float(np.nextafter(x, np.inf)))) / 2
        for rounding in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING):
            near = mid.quantize(Decimal(1).scaleb(mid.adjusted() - 18), rounding)
            near_misses += abs(near - mid) <= mid * Decimal("1e-19")
            out += [f"{near:f}", f"{near:e}"]
    assert near_misses > 100
    for e in range(50, 63):  # the midpoints here have at most 19 digits
        for x in rng.uniform(2.0 ** e, 2.0 ** (e + 1), 20):
            mid = (Decimal(x) + Decimal(float(np.nextafter(x, np.inf)))) / 2
            assert len(mid.as_tuple().digits) <= 19
            out += [f"{mid:f}", f"{mid.normalize():e}"]
    for x in rng.uniform(1e-8, 1e-3, 200):  # leading zeros after the point
        out.append(f"{x:.{int(rng.integers(8, 30))}f}")
    return out


def _pow5_inv_table() -> list:
    """The 23 entries 2^(127 + z) / 5^n, z = ceil(n log2 5), of to_double in
    `_ktools.c`, read from the source (rounded up; exact at n = 0)."""
    with open(_kloop.TOOLS_SOURCE) as fh:
        source = fh.read()
    block = source[source.index("POW5_INV[23][2] = {"):]
    words = re.findall(r"\{(0x[0-9a-f]+), (0x[0-9a-f]+)\}", block[:block.index("};")])
    return [int(hi, 16) << 64 | int(lo, 16) for hi, lo in words]


def _products(table: list, w: int, n: int):
    """to_double's product for w 10^-n in exact integers: its high and low
    word, the shift that leaves 54 bits of the high word, and whether the
    second product ran."""
    W = w << (64 - w.bit_length())
    a = W * (table[n] >> 64)
    second = (a >> 64) & 0x1FF == 0x1FF
    if second:
        a += W * (table[n] & (2 ** 64 - 1)) >> 64
    hi = a >> 64
    return hi, a & (2 ** 64 - 1), 9 + (hi >> 63), second


def _text(w: int, n: int, exponent: bool) -> str:
    """w 10^-n as digits and an exponent, or with a point (none at n = 0)."""
    if exponent:
        return f"{w}e{-n:+03d}"
    digits = str(w).rjust(n + 1, "0")
    return digits[:len(digits) - n] + "." + digits[len(digits) - n:] if n else digits


def _eisel_lemire_cases(rng) -> list:
    """Texts w 10^-n, w < 10^19 and n <= 22, at every branch of to_double,
    made in exact integers: 19-digit texts next to the midpoints of adjacent
    doubles, which run the second product (the low 9 bits of the first
    product's high word all ones) or come nearest to it; exact midpoints at
    n <= 4, which round half to even (9007199254740993 = 2^53 + 1 among
    them); and 19 significant digits at n = 0 and n = 22.  The all-ones
    remainder after the second product, where a reader could not tell the
    rounding, cannot occur at n <= 22: w 2^(63 + z) / 5^n is a whole
    multiple of 2^64 or more than 2^63 / 5^n > 3800 from one, and the
    product is within 1 of it.  Every second product met here is held to
    that bound."""
    table = _pow5_inv_table()
    assert len(table) == 23 and table[0] == 2 ** 127
    assert all(table[n] == 2 ** (127 + (5 ** n).bit_length()) // 5 ** n + 1 for n in range(1, 23))
    out, seconds = [], 0
    for n in range(23):
        taken = 0
        for x in rng.uniform(10.0 ** (18 - n), 10.0 ** (19 - n), 4000):
            mid = (Fraction(x) + Fraction(float(np.nextafter(x, np.inf)))) / 2 * 10 ** n
            for w in (math.floor(mid), math.ceil(mid)):
                hi, lo, shift, second = _products(table, w, n)
                if second:
                    seconds += 1
                    gap = 2 ** 63 // 5 ** n
                    assert lo == 0 or gap - 1 <= lo <= 2 ** 64 - gap + 1, (w, n)
                if second and taken < 12 or rng.random() < 0.002:
                    taken += second
                    out += [_text(w, n, False), _text(w, n, True)]
    assert seconds > 23 * 12
    halfway = ["9007199254740993", "9007199254740993e+00", "9007199254740995"]
    for n in range(5):
        for _ in range(40):
            m = int(rng.integers(2 ** 52, 2 ** 53)) * 2 + 1
            j = int(rng.integers(0, n + 1)) if n else -int(rng.integers(0, 10))
            w = m * 5 ** n * 2 ** (n - j)  # w 10^-n = m 2^-j, 54 bits: a midpoint
            if w < 10 ** 19:
                hi, lo, shift, _ = _products(table, w, n)
                assert lo == 0 and hi % 2 ** (shift + 1) == 2 ** shift, (w, n)
                halfway += [_text(w, n, False), _text(w, n, True)]
    assert len(halfway) > 300
    long = []
    for n in (0, 22):
        for w in rng.integers(10 ** 18, 10 ** 19, 50, dtype=np.uint64).tolist():
            long += [_text(w, n, False), _text(w, n, True)]
    return out + halfway + long


def _sidecar_of_texts(texts: list) -> bytes:
    """A sidecar's text whose initial velocities are one row of the texts, as
    the writer lays them out."""
    return ('{\n "initial_velocities": [\n  [\n   ' + ",\n   ".join(texts)
            + "\n  ]\n ]\n}").encode()


def _n_digits(rng, n: int) -> int:
    """A random integer of n digits, the last not 0."""
    return int(rng.integers(10 ** (n - 1), 10 ** n)) // 10 * 10 + int(rng.integers(1, 10))


def _digit_cases(rng) -> list:
    """Doubles whose exact decimal expansion has n = 1 to 17 significant
    digits and decimal exponent K, for every K from -6 to 15, so %.17g
    prints them in every layout with every digit count: q / 2^b with q odd,
    K + b + 1 digits, or c 10^j, a c of n digits, when n < K + 1."""
    out = []
    for K in range(-6, 16):
        for n in range(1, 18):
            b = n - K - 1
            for _ in range(4):
                if b >= 0:
                    lo = math.ceil(Fraction(10) ** K * 2 ** b)
                    hi = min(math.ceil(Fraction(10) ** (K + 1) * 2 ** b), 2 ** 53)
                    if lo >= hi - 1:
                        continue
                    x = (int(rng.integers(lo, hi - 1)) | 1) / 2 ** b
                else:
                    c = _n_digits(rng, n)
                    if c * 10 ** -b >= 2 ** 53:
                        continue
                    x = float(c * 10 ** -b)
                digits = Decimal(x).normalize().as_tuple()
                assert (len(digits.digits), Decimal(x).adjusted()) == (n, K), (x, n, K)
                out.append(x)
    return out


def _repr_digit_cases(rng) -> list:
    """The doubles nearest c 10^(K - n + 1) for c of n = 1 to 17 digits, the
    last not 0, and K from -6 to 15: repr prints them with up to 17 digits
    in every layout, ".0" after the whole numbers."""
    out = []
    for K in range(-6, 16):
        for n in range(1, 18):
            for _ in range(4):
                out.append(float(f"{_n_digits(rng, n)}e{K - n + 1}"))
    return out


def _int_cases(rng) -> list:
    """Integers of 1 to 19 digits, both signs, and the ends of int64."""
    out = [0, 2 ** 63 - 1, -2 ** 63, -(2 ** 63 - 1)]
    for n in range(1, 20):
        for _ in range(6):
            u = int(rng.integers(10 ** (n - 1) if n > 1 else 0, min(10 ** n, 2 ** 63 - 1)))
            out += [u, -u]
    return out


# reads the texts given on stdin (JSON: a list of [kind, text]) with the text
# put at the end of a page whose next page may not be read, so its NUL is the
# last byte the reader may touch; prints the readers' results
_GUARD_PAGE = r"""
import ctypes, json, mmap, sys
import numpy as np
from kaclab import _kloop
lib = _kloop.library()
page = mmap.PAGESIZE
m = mmap.mmap(-1, 2 * page, prot=mmap.PROT_READ | mmap.PROT_WRITE)
base = ctypes.addressof(ctypes.c_char.from_buffer(m))
libc = ctypes.CDLL(None, use_errno=True)
libc.mprotect.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
assert libc.mprotect(base + page, page, 0) == 0  # PROT_NONE
out = []
for kind, text in json.load(sys.stdin):
    body = text.encode()
    start = page - 1 - len(body)
    m[start:page - 1] = body
    m[page - 1] = 0
    if kind == "csv":
        rows = 64
        cols = (np.empty(rows), np.empty(rows, np.int64), np.empty(rows, np.int64),
                np.empty((rows, 3)), np.empty(rows, np.int8), np.empty(rows, np.int8))
        got = lib.kac_read_events(base + start, len(body), 3, rows,
                                  *(c.ctypes.data for c in cols))
        out.append([got, cols[3][:max(got, 0)].tolist()])
    else:
        v, shape = np.empty(64), np.empty(2, np.int64)
        got = lib.kac_read_velocities(base + start, len(body), v.ctypes.data, len(v),
                                      shape.ctypes.data)
        out.append([got, v[:shape[0] * shape[1]].tolist() if got >= 0 else []])
print(json.dumps(out))
"""


class TestEventCsvFastPaths:
    """The writer's and the reader's integer fast paths against the Python
    writer and float(), on the cases at their edges."""

    @needs_kernel
    @pytest.mark.parametrize("d", [1, 3])
    def test_writer_cases_match_the_python_writer_and_read_back(self, tmp_path, monkeypatch, d):
        values = _writer_cases(np.random.default_rng(11 + d))
        log = _log_of(np.resize(values, -(-len(values) // d) * d), d)
        path = tmp_path / "events.csv"
        write_event_csv(str(path), log, d)
        with monkeypatch.context() as m:
            m.setattr(_kloop, "_lib", None)
            write_event_csv(str(tmp_path / "python.csv"), log, d)
        assert path.read_bytes() == (tmp_path / "python.csv").read_bytes()
        assert path.read_bytes() == TestPersistence._reference_csv(log, d)
        for name, dtype, shape, data in _both_routes(path, monkeypatch, n=30, horizon=1.0):
            assert data == np.ascontiguousarray(getattr(log, name)).tobytes(), name

    @needs_kernel
    def test_reader_cases_match_float(self, tmp_path, monkeypatch):
        texts = _reader_cases(np.random.default_rng(12))
        path = tmp_path / "events.csv"
        path.write_text("t,i,j,s0,assignment,fictitious\n"
                        + "".join(f"0.5,0,1,{text},0,0\n" for text in texts))

        def fail(*args, **kwargs):
            raise AssertionError("np.loadtxt read an event CSV in the writer's grammar")

        monkeypatch.setattr(np, "loadtxt", fail)
        sigma = read_event_csv(str(path), 2, 1.0).sigma[:, 0]
        want = np.array([float(text) for text in texts])
        bad = [t for t, got, x in zip(texts, sigma.tolist(), want.tolist())
               if np.float64(got).tobytes() != np.float64(x).tobytes()]
        assert bad == []

    @needs_kernel
    def test_eisel_lemire_branches_read_as_float(self, tmp_path, monkeypatch):
        texts = _eisel_lemire_cases(np.random.default_rng(13))
        want = np.array([float(text) for text in texts])
        path = tmp_path / "events.csv"
        path.write_text("t,i,j,s0,assignment,fictitious\n"
                        + "".join(f"0.5,0,1,{text},0,0\n" for text in texts))

        def fail(*args, **kwargs):
            raise AssertionError("np.loadtxt read an event CSV in the writer's grammar")

        monkeypatch.setattr(np, "loadtxt", fail)
        got = read_event_csv(str(path), 2, 1.0).sigma[:, 0]
        assert [t for t, a, b in zip(texts, got, want) if a.tobytes() != b.tobytes()] == []
        # the sidecar's reader: JSON has no integer form of a float
        json_texts = [t if "." in t or "e" in t else t + "e+00" for t in texts]
        sidecar = _parse_sidecar(_sidecar_of_texts(json_texts))
        assert sidecar is not None
        got = sidecar["initial_velocities"][0]
        assert [t for t, a, b in zip(json_texts, got, want) if a.tobytes() != b.tobytes()] == []

    # the last row of a file, cut and whole: its last float's digits end 0
    # to 7 bytes before the end of the text
    TAILS = ["", ",", ",0", ",0\n", ",0,0", ",0,0\n", ",-1,0\n", ",-12,0\n", ",-128,1"]
    SHORT = ["", "1", "0.5", "-7", "1,2", "0.5,0\n", "1234567", "0.25,0\n\n"]

    @needs_kernel
    def test_the_reader_stops_at_the_end_of_the_text(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(14)
        header = "t,i,j,sx,sy,sz,assignment,fictitious\n"
        bodies = self.SHORT + [f"0.25,0,1,0.5,-0.5,0.125,0,0\n0.5,1,0,0.1,0.2,{x:.{k}g}{tail}"
                               for k in range(1, 18) for x in rng.uniform(-1.0, 1.0, 1)
                               for tail in self.TAILS]
        bodies += ["0.5,1,0,0.1,0.2,0.30000000000000004,0,0", "0,0,1,0,0,0,0,0",
                   "12345678901234567,0,1,1,2,3,4,5"]
        path = tmp_path / "events.csv"
        read = 0
        for body in bodies:
            path.write_text(header + body)
            outcome = _both_routes(path, monkeypatch)
            read += isinstance(outcome[0], tuple)
        assert read > 30  # the whole rows, against the cut ones

    @needs_kernel
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="mprotect through libc")
    def test_no_read_passes_the_nul_after_the_text(self):
        # the text's NUL is the last byte of a page whose next page faults
        rng = np.random.default_rng(15)
        cases = [["csv", body] for body in self.SHORT]
        cases += [["csv", f"0.5,1,0,0.1,0.2,{x:.{k}g}{tail}"] for k in range(1, 18)
                  for x in rng.uniform(-1.0, 1.0, 1) for tail in self.TAILS]
        cases += [["sidecar", '\n  [\n   0.5,\n   ' + f"{x!r}"[:k] + "\n  ]\n ]"[:cut]]
                  for k in range(3, 19) for x in rng.uniform(-1.0, 1.0, 1) for cut in (0, 4, 7)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(_kloop.__file__)), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _GUARD_PAGE], input=json.dumps(cases),
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        results = json.loads(proc.stdout)
        lib = _kloop.library()
        for (kind, text), (got, values) in zip(cases, results):
            body = text.encode()  # a bytes object ends in a NUL too
            raw = np.frombuffer(body + b"\0", np.uint8)
            if kind == "csv":
                cols = (np.empty(64), np.empty(64, np.int64), np.empty(64, np.int64),
                        np.empty((64, 3)), np.empty(64, np.int8), np.empty(64, np.int8))
                want = lib.kac_read_events(raw.ctypes.data, len(body), 3, 64,
                                           *(c.ctypes.data for c in cols))
                assert (got, values) == (want, cols[3][:max(want, 0)].tolist()), text
            else:
                v, shape = np.empty(64), np.empty(2, np.int64)
                want = lib.kac_read_velocities(raw.ctypes.data, len(body), v.ctypes.data, 64,
                                               shape.ctypes.data)
                assert got == want, text
                if want >= 0:
                    assert values == v[:shape[0] * shape[1]].tolist(), text
        assert sum(got > 0 for got, _ in results) > 20

    @needs_kernel
    def test_writer_prints_every_digit_count_and_integer_alike(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(16)
        values = np.array(_digit_cases(rng))
        values = np.concatenate([values, -values])
        log = _log_of(np.resize(values, -(-len(values) // 3) * 3), 3)
        ints = np.resize(np.array(_int_cases(rng), dtype=np.int64), len(log))
        log.assignment = np.resize(np.arange(-128, 128, dtype=np.int8), len(log))
        path = tmp_path / "events.csv"
        # particle indices of either sign, which the reader refuses on both
        # routes, then of 1 to 19 digits that it reads back
        for i in (ints, np.where(ints < 0, ~ints, ints) % (2 ** 63 - 1)):
            log.i, log.j = i, i[::-1].copy()
            write_event_csv(str(path), log, 3)
            with monkeypatch.context() as m:
                m.setattr(_kloop, "_lib", None)
                write_event_csv(str(tmp_path / "python.csv"), log, 3)
            assert path.read_bytes() == (tmp_path / "python.csv").read_bytes()
            assert path.read_bytes() == TestPersistence._reference_csv(log, 3)
            read = _both_routes(path, monkeypatch, n=2 ** 63 - 1, horizon=1.0)
        for name, dtype, shape, data in read:
            assert data == np.ascontiguousarray(getattr(log, name)).tobytes(), name


def _is_tie(x: float) -> bool:
    """x lies halfway between repr(x) and the next decimal of as many digits."""
    text = Decimal(repr(x))
    return abs(Fraction(x) - Fraction(text)) * 2 == Fraction(10) ** text.as_tuple().exponent


def _repr_ties(rng, per_exponent: int) -> list:
    """Doubles at every binary exponent of the sidecar writer's band that lie
    halfway between the two nearest shortest texts, where repr takes the
    even one: short mantissas m (low bits cleared) make such x."""
    out = []
    for e2 in range(-19, 52):
        for _ in range(per_exponent):
            z = int(rng.integers(0, 53))
            x = math.ldexp(int(rng.integers(2 ** 52, 2 ** 53)) >> z << z, e2 - 52)
            out += [x] if _is_tie(x) else []
    return out


def _repr_cases(rng, count: int, tries: int) -> np.ndarray:
    """Doubles float.__repr__ prints in every form, at every edge of the
    sidecar writer's band, 2^-19 <= |x| < 2^52, with both signs: `count`
    random bit patterns in the band and two binary exponents either side;
    every power of two from 2^-21 to 2^53 with its neighbours (at m = 2^52
    the gap below is half the one above); the ties among `tries` short
    mantissas at each exponent; every power of ten in the band with its
    neighbours (1e-4 and 1e-5 among them, where the layout switches);
    k / 1000, k 1e-5, k / 7 and whole numbers; and values outside the band
    (zeros, subnormals, 1e-300, 2^53 and above)."""
    exponents = rng.integers(1023 - 21, 1023 + 54, count)
    bits = rng.integers(0, 2 ** 52, count) | exponents << 52
    out = bits.view(np.float64).tolist()
    for e2 in range(-21, 54):
        out += _up(2.0 ** e2, 3) + _up(2.0 ** e2, -3)
    ties = _repr_ties(rng, tries)
    assert len(ties) >= tries // 4
    out += ties
    for k in range(-6, 16):
        out += _up(float(f"1e{k}"), 20) + _up(float(f"1e{k}"), -20)
    out += [k / 1000 for k in range(1, 3000, 7)] + [k * 1e-5 for k in range(1, 3000, 7)]
    out += [k / 7 for k in range(1, 3000, 7)] + [float(k) for k in range(1, 100)]
    out += [1e15 + 1.0, 2.0 ** 52 - 1.0, 2.0 ** 51 + 0.5]
    out += [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-300, 2.0 ** -20,
            2.0 ** 52, 2.0 ** 53, 1e16, 1e300, 1.7976931348623157e308]
    values = np.array(out)
    return np.concatenate([values, -values])


def _with_velocities(traj, velocities):
    """traj from other initial velocities, its config's N and d theirs."""
    state = kl.ParticleState(velocities)
    config = dataclasses.replace(traj.config, n=state.n, d=state.d)
    return dataclasses.replace(traj, initial_state=state, config=config)


def _first_velocity(token: str, indent: str = "\n   "):
    """An edit of a sidecar's text that sets its first initial velocity, and
    the text before it."""
    def edit(text):
        return re.sub(r'("initial_velocities": \[\n  \[)\n   [^,\n]+', r"\g<1>" + indent + token,
                      text, count=1)
    return edit


def _load_outcome(paths):
    """The sidecar, initial velocities and log read from paths, or the type
    and message of the exception reading them raises; and the exit code of
    `kaclab replay` on them, or the exception it raises."""
    try:
        sidecar, state, log = load_trajectory_inputs(paths["sidecar"], paths["events"])
        # the sidecar's velocities by dtype, shape and bytes, the rest of it by ==
        v = sidecar.pop("initial_velocities")
        read = (sidecar, v.dtype.str, v.shape, v.tobytes(), state.velocities.tobytes(),
                log.sigma.tobytes())
    except Exception as exc:  # noqa: BLE001 - the paths must raise alike
        read = type(exc), str(exc)
    try:
        code = main(["replay", "--sidecar", paths["sidecar"], "--events", paths["events"]])
    except Exception as exc:  # noqa: BLE001 - one the CLI does not map to an exit code
        code = type(exc), str(exc)
    return read, code


class TestSidecarVelocities:
    """The sidecar's "initial_velocities" block, written by
    `kac_write_velocities` and read by `kac_read_velocities`, against
    float.__repr__ and json."""

    @needs_kernel
    @pytest.mark.parametrize("d", [1, 3])
    def test_writer_cases_match_repr_and_read_back(self, tmp_path, monkeypatch, d):
        values = _repr_cases(np.random.default_rng(20 + d), 60000, 300)
        v = np.resize(values, (len(values) // d, d))
        lib = _kloop.library()
        buf, slow = np.empty(len(v) * (28 * d + 9) + 4, np.uint8), np.empty(v.size, np.uint8)
        assert lib.kac_write_velocities(v.ctypes.data, len(v), d, buf.ctypes.data, len(buf),
                                        slow.ctypes.data) > 0
        band = (np.abs(v) >= 2.0 ** -19) & (np.abs(v) < 2.0 ** 52)
        assert np.array_equal(slow == 0, band.ravel())  # the values the C prints
        assert (slow == 0).sum() > 0.9 * v.size and (slow == 1).sum() > 30
        assert _velocity_block(v) == json.dumps(v.tolist(), indent=1).replace("\n", "\n ")
        traj = _with_velocities(kl.simulate(kl.SimConfig(n=4, t_max=0.1, kernel=Kernel.MAXWELL,
                                                         d=d, seed=1)), v)
        path = tmp_path / "sidecar.json"
        write_sidecar(str(path), traj)

        def fail(*args, **kwargs):
            raise AssertionError("json.load read a sidecar as the writer writes it")

        monkeypatch.setattr(json, "load", fail)
        sidecar, _, state = _read_sidecar(str(path))
        got = sidecar.pop("initial_velocities")
        assert got is state.velocities
        assert got.dtype == np.float64 and got.shape == v.shape and got.tobytes() == v.tobytes()
        want = _sidecar_payload(traj)
        del want["initial_velocities"]
        assert sidecar == want

    @needs_kernel
    def test_writer_prints_every_digit_count_as_repr_does(self):
        values = np.array(_repr_digit_cases(np.random.default_rng(24)))
        v = np.concatenate([values, -values]).reshape(-1, 2)
        assert _velocity_block(v) == json.dumps(v.tolist(), indent=1).replace("\n", "\n ")
        texts = [repr(x) for x in values.tolist()]
        assert {len(t.replace("-", "").replace(".", "").split("e")[0].lstrip("0")) for t in texts
                if not t.endswith(".0")} == set(range(1, 18))
        assert any(t.endswith(".0") for t in texts) and any("e-0" in t for t in texts)

    @needs_kernel
    def test_the_block_read_at_the_end_of_the_text(self, tmp_path, monkeypatch):
        # the last velocity of every digit count, right before "\n  ]", and
        # the text cut after it
        traj = kl.simulate(kl.SimConfig(n=24, t_max=0.8, kernel=Kernel.HARD_SPHERE, seed=3))
        paths = save_trajectory(str(tmp_path), traj)
        with open(paths["sidecar"]) as fh:
            text = fh.read()
        last = text.rindex("\n  ]\n ]")
        before = text[:text.rindex("\n   ", 0, last) + 4]
        read = 0
        for k in range(1, 18):
            value = repr(float(f"{0.123456789012345678:.{k}g}"))
            for after in (text[last:], "\n  ]\n ]", "\n  ]", "\n ", ""):
                with open(paths["sidecar"], "w") as fh:
                    fh.write(before + value + after)
                compiled = _load_outcome(paths)
                with monkeypatch.context() as m:
                    m.setattr(_kloop, "_lib", None)
                    assert _load_outcome(paths) == compiled, (value, after)
                read += isinstance(compiled[0][0], dict)
        assert read == 17

    EDITS = {
        "as_written": lambda text: text,
        "compact": lambda text: json.dumps(json.loads(text)),
        "indented_2": lambda text: json.dumps(json.loads(text), indent=2),
        "duplicate_key_after": lambda text: text.replace(
            '\n "final_sha256"', '\n "initial_velocities": [[1.5, 2.5]],\n "final_sha256"'),
        "duplicate_key_before": lambda text: text.replace(
            '\n "seed"', '\n "initial_velocities": [[1.5]],\n "seed"'),
        "duplicate_block_before": lambda text: text.replace(
            '\n "seed"', '\n "initial_velocities": [\n  [\n   1.5\n  ]\n ],\n "seed"'),
        "nested_key": lambda text: text.replace(
            '\n "initial_velocities"', '\n "ledger_copy": {\n "initial_velocities"', 1).replace(
            '\n ],\n "final_sha256"', '\n ]},\n "final_sha256"', 1),
        "ragged_row": _first_velocity("0.5,\n   0.5"),
        "empty_row": lambda text: text.replace("[\n  [\n", "[\n  [],\n  [\n", 1),
        "nan": _first_velocity("NaN"),
        "upper_exponent": _first_velocity("1E5"),
        "unsigned_exponent": _first_velocity("1.5e5"),
        "integer": _first_velocity("1"),
        "minus_zero_integer": _first_velocity("-0"),
        "leading_zero": _first_velocity("01.5"),
        "huge": _first_velocity("1e+400"),
        "long_mantissa": _first_velocity("0.12345678901234567890123456789"),
        "space": _first_velocity("0.5 "),
        "crlf": lambda text: text.replace("\n", "\r\n"),
        "tab_indent": _first_velocity("0.5", "\n\t"),
        "truncated": lambda text: text[:len(text) // 2],
        "trailing_text": lambda text: text + "x",
        "not_a_dict": lambda text: "[" + text + "]",
        "non_ascii": lambda text: text.replace('"seed"', '"seed", "\u00e9": 1', 1),
    }

    @pytest.mark.parametrize("name", list(EDITS))
    def test_edited_sidecars_read_alike_on_both_paths(self, tmp_path, monkeypatch, name):
        traj = kl.simulate(kl.SimConfig(n=24, t_max=0.8, kernel=Kernel.HARD_SPHERE, seed=3))
        paths = save_trajectory(str(tmp_path), traj)
        path = paths["sidecar"]
        with open(path, newline="") as fh:
            text = self.EDITS[name](fh.read())
        with open(path, "w", newline="") as fh:
            fh.write(text)
        compiled = _load_outcome(paths)
        with monkeypatch.context() as m:
            m.setattr(_kloop, "_lib", None)
            assert _load_outcome(paths) == compiled
        read, code = compiled
        if isinstance(read[0], dict):
            with open(path) as fh:
                sidecar = json.load(fh)
            v = np.asarray(sidecar.pop("initial_velocities"), dtype=float)
            assert read[0] == sidecar
            assert read[1:5] == (v.dtype.str, v.shape, v.tobytes(), v.tobytes())
        if name in ("as_written", "compact", "indented_2", "crlf"):
            assert code == 0 and read[3] == traj.initial_state.velocities.tobytes()


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
