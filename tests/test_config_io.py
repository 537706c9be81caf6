import json
import locale
import os
import re
from decimal import Decimal

import numpy as np
import pytest

import kaclab as kl
from kaclab import _kloop
from kaclab.config_io import (ConfigError, VersionMismatchError, _atomic_write, _one_run,
                              parse_config, pool_summaries, read_event_csv, replay, run_ensemble,
                              save_trajectory, state_digest, write_event_csv, write_sidecar)
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
        for name in ("de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8"):
            try:
                locale.setlocale(locale.LC_NUMERIC, name)
                break
            except locale.Error:
                continue
        else:
            pytest.skip("no locale with a comma decimal point")
        try:
            assert locale.localeconv()["decimal_point"] == ","
            log = _log_of(_battery(np.random.default_rng(5)), 3)
            path = tmp_path / "events.csv"
            write_event_csv(str(path), log, 3)
            assert path.read_bytes() == TestPersistence._reference_csv(log, 3)
            _both_routes(path, monkeypatch, n=30, horizon=1.0)
        finally:
            locale.setlocale(locale.LC_NUMERIC, old)


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
