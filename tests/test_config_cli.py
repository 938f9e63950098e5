import dataclasses
import hashlib
import json
import re
import runpy
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from axionkit import cli, geometry, sensitivity, svgplot
from axionkit.config import (
    ConfigError,
    apply_overrides,
    build_config,
    config_to_dict,
    list_config_keys,
    load_config,
)

# the retired keys, at their former defaults, as manifests of the earlier
# format carry them
PARENT_FORMAT_KEYS = {
    "geometry": {"longitude_deg": 116.4074, "turntable_rate_rad_s": 0.0},
    "ephemeris": {"omega_annual": 1.991021277657232e-07, "omega_sidereal": 7.292115857915991e-05},
    "axion": {"g_ae": 1e-13, "mass_uev": 1.0, "phase": 0.0},
    "qubit": {
        "b0_t": 0.5, "gamma_e_hz_t": 28000000000.0, "omega0_rad_s": None, "q_resonator": 10000.0,
        "t1_s": 0.001, "t2_s": 0.0001,
    },
}

# a tiny run of each subcommand, and for each setting the subcommand and a
# value at which it changes that subcommand's CSVs; the Sun's speed is two
# keys that move together, and the search bandwidth and false-alarm rate
# move the curves only once the look-elsewhere threshold exceeds n_sigma
_TINY = {
    "envelope": ["--span-days", "3", "--dt", "3000"],
    "daily-rms": ["--trials", "2", "--samples-per-day", "24"],
    "psd": ["--span-days", "30", "--dt", "2000"],
    "triplet": ["--span-days", "30", "--dt", "2000"],
    "linewidth": ["--masses", "1"],
    "sensitivity": ["--mass-points", "8"],
}
_SUN_SPEED = ("halo.v_ref", "ephemeris.v_sun")
_MOVES = {
    "geometry.latitude_deg": ("envelope", 20),
    "geometry.wind_ra_deg": ("envelope", 250),
    "geometry.wind_dec_deg": ("envelope", 40),
    "geometry.elevation_deg": ("envelope", 60),
    "geometry.azimuth_deg": ("envelope", 30),
    "geometry.lst0_rad": ("envelope", 1),
    "ephemeris.v_sun": ("psd", 200),
    "ephemeris.v_orbit": ("envelope", 20),
    "ephemeris.obliquity_deg": ("envelope", 10),
    "ephemeris.orbital_phase": ("envelope", 1),
    "halo.v0": ("linewidth", 200),
    "halo.v_esc": ("linewidth", 500),
    "halo.rho_dm": ("sensitivity", 0.3),
    "halo.v_ref": ("sensitivity", 200),
    "qubit.n_spins": ("daily-rms", 3),
    "qubit.eta_b_t_rthz": ("sensitivity", 3e-15),
    "noise.white_psd": ("psd", 0.5),
    "noise.pink_amplitude": ("psd", 1e-3),
    "noise.pink_exponent": ("psd", 1.5),
    "noise.rtn_amplitude": ("psd", 0.5),
    "noise.rtn_rate_hz": ("psd", 1e-3),
    "noise.readout_f0": ("daily-rms", 0.9),
    "noise.readout_f1": ("daily-rms", 0.9),
    "noise.seed": ("triplet", 5),
    "search.epsilon_safety": ("sensitivity", 0.3),
    "search.t_cap_s": ("sensitivity", 3e-4),
    "search.t_tot_s": ("sensitivity", 1e5),
    "search.bandwidth_hz": ("sensitivity", 1e10),
    "search.alpha": ("sensitivity", 1e-6),
    "search.n_sigma": ("sensitivity", 3),
}
_SAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "scripts" / "sample_config.json"


class TestConfig:
    def test_empty_config_uses_defaults(self):
        cfg = build_config({})
        assert cfg.geometry.latitude_deg == pytest.approx(39.9042)
        assert cfg.halo.v0 == 220.0
        assert cfg.qubit.n_spins == 10
        assert cfg.search.alpha == 0.01

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            build_config({"halos": {}})

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="halo.v_zero"):
            build_config({"halo": {"v_zero": 220.0}})

    def test_type_error_reports_path(self):
        with pytest.raises(ConfigError, match="halo.v0"):
            build_config({"halo": {"v0": "fast"}})

    def test_invariant_violation_reported(self):
        with pytest.raises(ConfigError, match="halo"):
            build_config({"halo": {"v0": 600.0, "v_esc": 544.0}})

    def test_nullable_fields(self):
        cfg = build_config({"noise": {"white_psd": None}})
        assert cfg.noise.white_psd is None
        cfg = build_config({"noise": {"white_psd": 0.25}})
        assert cfg.noise.white_psd == 0.25

    def test_round_trip_through_dict(self):
        cfg = build_config({"halo": {"v0": 230.0}, "noise": {"seed": 5}})
        again = build_config(config_to_dict(cfg))
        assert again == cfg

    def test_overrides(self):
        data = apply_overrides({}, ["halo.v0_km_s=220", "noise.seed=9"])
        # unknown key should surface during build, not during override
        with pytest.raises(ConfigError, match="halo.v0_km_s"):
            build_config(data)
        data = apply_overrides({}, ["halo.v0=230", "noise.seed=9"])
        cfg = build_config(data)
        assert cfg.halo.v0 == 230.0
        assert cfg.noise.seed == 9

    def test_override_requires_key_value(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides({}, ["halo.v0"])

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_sample_config_loads(self):
        cfg, run_args = load_config(_SAMPLE_CONFIG)
        assert cfg.halo == build_config({}).halo
        assert run_args == {}

    def test_sample_config_holds_every_key(self):
        sample = json.loads(_SAMPLE_CONFIG.read_text())
        keys = [f"{section}.{key}" for section, fields in sample.items() for key in fields]
        assert sorted(keys) == sorted(line.split()[0] for line in list_config_keys())

    def test_key_listing_covers_all_sections(self):
        keys = list_config_keys()
        joined = "\n".join(keys)
        for expected in (
            "geometry.latitude_deg",
            "halo.v0",
            "qubit.eta_b_t_rthz",
            "noise.seed",
            "search.alpha",
            "output.directory",
        ):
            assert expected in joined
        for section, keys in PARENT_FORMAT_KEYS.items():
            for key in keys:
                assert f"{section}.{key} " not in joined

    def test_every_setting_changes_a_csv(self, tmp_path):
        # a setting that changes no CSV reaches no artifact; the output
        # section decides where and in which formats artifacts go
        def csvs(subcommand, *overrides):
            out = tmp_path / str(len(list(tmp_path.iterdir())))
            sets = [arg for override in overrides for arg in ("--set", override)]
            argv = [subcommand, "--out", str(out), "--formats", "csv", *_TINY[subcommand], *sets]
            assert cli.main(argv) == 0
            return {path.name: path.read_bytes() for path in out.glob("*.csv")}

        base = {subcommand: csvs(subcommand) for subcommand in _TINY}

        def moves(key):
            subcommand, value = _MOVES[key]
            keys = _SUN_SPEED if key in _SUN_SPEED else (key,)
            return csvs(subcommand, *(f"{k}={value}" for k in keys)) != base[subcommand]

        exempt = ("output.directory", "output.formats")
        keys = [line.split()[0] for line in list_config_keys()]
        idle = [key for key in keys if key not in exempt and not (key in _MOVES and moves(key))]
        assert idle == []


class TestCli:
    def run(self, *argv):
        return cli.main(list(argv))

    def test_envelope_artifacts(self, tmp_path):
        out = tmp_path / "env"
        assert self.run("envelope", "--out", str(out), "--span-days", "40") == 0
        for name in (
            "envelope_daily.csv",
            "beta_instantaneous.csv",
            "coefficients.json",
            "envelope.svg",
            "manifest.json",
        ):
            assert (out / name).exists()
        header = (out / "envelope_daily.csv").read_text().splitlines()[0]
        assert header == "day,env_min,env_max"

    def test_envelope_frequencies(self, tmp_path):
        # the instantaneous series ripples at the sidereal rate
        out = tmp_path / "envf"
        assert self.run("envelope", "--out", str(out), "--span-days", "64",
                        "--dt", "1200", "--formats", "csv") == 0
        rows = np.loadtxt(out / "beta_instantaneous.csv", delimiter=",", skiprows=1)
        t, beta = rows[:, 0], rows[:, 1]
        spec = np.abs(np.fft.rfft(beta - beta.mean()))
        freqs = np.fft.rfftfreq(beta.size, t[1] - t[0])
        # |signal| folds the sign, so the strongest line sits at f_star or 2 f_star
        peak = freqs[np.argmax(spec)]
        f_star = 1.1605763e-5
        assert min(abs(peak - f_star), abs(peak - 2 * f_star)) < freqs[1]

    def test_psd_artifacts_and_markers(self, tmp_path):
        out = tmp_path / "psd"
        assert self.run("psd", "--out", str(out), "--span-days", "200",
                        "--dt", "2000", "--seed", "1") == 0
        markers = json.loads((out / "psd_markers.json").read_text())
        assert markers["f_star_hz"] == pytest.approx(1.1606e-5, rel=1e-3)
        assert markers["annual_splitting_hz"] == pytest.approx(3.17e-8, rel=2e-3)
        assert markers["resolvable"] is False  # 200 days < 1/f_annual
        assert (out / "psd.csv").read_text().split("\n", 1)[0] == "f_hz,psd"

    def test_psd_plots_short_records(self, tmp_path):
        # below about 17.5 days the bins, 1/T apart, can all miss
        # f_star +/- 10 f_a; the zoom then widens to +/- 2 df
        for span in np.round(np.arange(2.0, 17.5, 0.1), 1):
            out = tmp_path / f"psd{span}"
            assert self.run("psd", "--out", str(out), "--span-days", repr(float(span))) == 0
            assert (out / "psd.svg").is_file()

    def test_triplet_requires_phases_with_external_data(self, tmp_path):
        data = tmp_path / "series.csv"
        from axionkit import TimeSeries

        TimeSeries(0.0, 1800.0, np.zeros(64) + 1.0, {"origin": "x"}).to_csv(data)
        out = tmp_path / "t"
        assert self.run("triplet", "--out", str(out), "--data", str(data)) == 2
        assert not out.exists()

    def test_triplet_on_external_data(self, tmp_path):
        from axionkit import EphemerisConstants, TimeSeries

        eph = EphemerisConstants()
        t = np.arange(0, 120 * 86400.0, 1800.0)
        y = (1 + 0.2 * np.cos(eph.omega_annual * t)) * np.cos(eph.omega_sidereal * t)
        data = tmp_path / "series.csv"
        TimeSeries(0.0, 1800.0, y, {"origin": "external"}).to_csv(data)
        out = tmp_path / "t2"
        assert self.run(
            "triplet", "--out", str(out), "--data", str(data),
            "--psi-daily", "0", "--psi-annual", "0",
        ) == 0
        record = json.loads((out / "triplet.json").read_text())
        assert record["epsilon_hat"] == pytest.approx(0.2, rel=1e-6)

    def test_linewidth_masses(self, tmp_path):
        out = tmp_path / "lw"
        assert self.run("linewidth", "--out", str(out), "--masses", "1,5") == 0
        rows = (out / "linewidth.csv").read_text().splitlines()
        masses = {row.split(",")[0] for row in rows[1:]}
        assert masses == {"1.0", "5.0"}

    def test_linewidth_masses_at_the_domain_ends(self, tmp_path):
        out = tmp_path / "lw"
        assert self.run("linewidth", "--out", str(out), "--masses", "1e-150,1e150") == 0
        table = np.loadtxt(out / "linewidth.csv", delimiter=",", skiprows=1)
        for mass in (1e-150, 1e150):
            _, offsets, density = table[table[:, 0] == mass].T
            assert np.all(np.isfinite(density))
            assert np.trapezoid(density, offsets) == pytest.approx(1.0, rel=1e-2)

    def test_sensitivity_gain_shift(self, tmp_path):
        out_all = tmp_path / "s_all"
        out_none = tmp_path / "s_none"
        for out, gains in ((out_all, "all"), (out_none, "none")):
            assert self.run(
                "sensitivity", "--out", str(out), "--preset", "future",
                "--gains", gains, "--mass-points", "12",
            ) == 0
        g_all = np.loadtxt(out_all / "sensitivity_shm.csv", delimiter=",",
                           skiprows=1, usecols=1)
        g_none = np.loadtxt(out_none / "sensitivity_shm.csv", delimiter=",",
                            skiprows=1, usecols=1)
        np.testing.assert_allclose(g_none / g_all, 5.40, rtol=0.005)

    @pytest.mark.parametrize("gains", ["none", "matched", "all"])
    def test_sensitivity_records(self, tmp_path, gains):
        out = tmp_path / gains
        assert self.run("sensitivity", "--out", str(out), "--preset", "current",
                        "--gains", gains, "--mass-points", "4") == 0
        for name in ("sensitivity_shm.csv", "sensitivity_flat.csv"):
            assert (out / name).read_text().split("\n", 1)[0] == "m_a_uev,g_min,regime"
        record = json.loads((out / "sensitivity.json").read_text())
        g = geometry.geometric_gains(geometry.SiteGeometry())
        assert record["gains"] == {
            "none": {"total": 1.0},
            "matched": {"total": g.g_daily},
            "all": {"matched_weighting": g.g_daily, "three_axis": g.g_three_axis,
                    "resource_sqrt_n": np.sqrt(3.0), "total": g.g_total},
        }[gains]
        config = record["config"]
        assert config["qubit"] == dataclasses.asdict(sensitivity.PRESETS["current"])

    @pytest.mark.parametrize("preset", ["current", "future"])
    def test_sensitivity_columns_from_one_pass(self, tmp_path, monkeypatch, preset):
        from test_sensitivity import g_min_loop_reference

        calls = []
        g_min_curve = sensitivity.g_min_curve

        def counted(*args, **kwargs):
            calls.append(args)
            return g_min_curve(*args, **kwargs)

        monkeypatch.setattr(sensitivity, "g_min_curve", counted)
        out = tmp_path / preset
        assert self.run("sensitivity", "--out", str(out), "--preset", preset,
                        "--gains", "all", "--mass-points", "8") == 0
        assert len(calls) == 1

        cfg, qubit = build_config({}), sensitivity.PRESETS[preset]
        g = geometry.geometric_gains(cfg.geometry)

        def read(name):
            rows = [line.split(",") for line in (out / name).read_text().splitlines()[1:]]
            masses, *columns, regime = zip(*rows)
            return np.array(masses, dtype=float), np.array(columns, dtype=float), list(regime)

        def reference(masses, gain, coherence_limited):
            return g_min_loop_reference(masses, qubit, cfg.halo, cfg.search, gain,
                                        coherence_limited)

        masses, variants, regime = read("sensitivity_variants.csv")
        for column, gain in zip(variants, (1.0, g.g_daily, g.g_total), strict=True):
            g_ref, regime_ref = reference(masses, gain, True)
            np.testing.assert_array_equal(column, g_ref)
            assert regime == regime_ref
        for name, coherence_limited in (("sensitivity_shm.csv", True),
                                        ("sensitivity_flat.csv", False)):
            masses, (column,), regime = read(name)
            g_ref, regime_ref = reference(masses, g.g_total, coherence_limited)
            np.testing.assert_array_equal(column, g_ref)
            assert regime == regime_ref

    def test_psd_triplet_with_default_synthesis(self, tmp_path):
        # four years of default-geometry synthesis with noise: the annual
        # sidebands appear as local maxima at the marker frequencies
        out = tmp_path / "psd4"
        assert self.run("psd", "--out", str(out), "--seed", "8",
                        "--formats", "csv,json") == 0
        rows = np.loadtxt(out / "psd.csv", delimiter=",", skiprows=1)
        markers = json.loads((out / "psd_markers.json").read_text())
        assert markers["resolvable"] is True
        f, p = rows[:, 0], rows[:, 1]
        df = f[1] - f[0]
        k_star = int(np.argmax(p))
        assert k_star == round(markers["f_star_hz"] / df)
        for name in ("f_plus_hz", "f_minus_hz"):
            k = int(round(markers[name] / df))
            kk = k - 2 + int(np.argmax(p[k - 2 : k + 3]))
            assert p[kk] > p[kk - 1] and p[kk] > p[kk + 1]
            assert abs(kk - k_star) * df == pytest.approx(
                markers["annual_splitting_hz"], abs=df
            )

    def test_daily_rms_band_coverage(self, tmp_path):
        out = tmp_path / "rms"
        assert self.run("daily-rms", "--out", str(out), "--trials", "6",
                        "--seed", "3", "--formats", "csv") == 0
        rows = np.loadtxt(out / "daily_rms.csv", delimiter=",", skiprows=1)
        theory, mc_mean, mc_sigma = rows[:, 1], rows[:, 2], rows[:, 3]
        inside = np.abs(mc_mean - theory) <= 5 * mc_sigma
        assert np.mean(inside) >= 0.95

    def test_daily_rms_band_past_the_float_range(self, tmp_path):
        # sigma times 1.7e308 overflows; the band is left out of the plot
        out = tmp_path / "wide"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.run("daily-rms", "--out", str(out), "--trials", "2",
                            "--samples-per-day", "12", "--band-sigma", "1.7e308") == 0
        assert "nan" not in (out / "daily_rms.svg").read_text()

    def test_degenerate_readout_fidelities_exit_code(self, tmp_path, capsys):
        # f0 + f1 = 1 makes the readout debias divide by zero
        out = tmp_path / "rms0"
        assert self.run("daily-rms", "--out", str(out), "--trials", "2",
                        "--set", "noise.readout_f0=0.5",
                        "--set", "noise.readout_f1=0.5") == 2
        err = capsys.readouterr().err
        assert "readout_f0" in err and "readout_f1" in err
        assert not (out / "daily_rms.csv").exists()

    def test_unrealizable_pink_exponent_exit_code(self, tmp_path, capsys):
        # a validated exponent whose 1/f density overflows on the record's grid
        out = tmp_path / "pink"
        assert self.run("psd", "--out", str(out), "--set", "noise.pink_exponent=40") == 2
        err = capsys.readouterr().err
        assert err.startswith("axionkit: config error: noise.pink_exponent")
        assert not (out / "psd.csv").exists()

    def test_config_file_and_overrides(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"halo": {"v0": 230.0}}))
        out = tmp_path / "lw2"
        assert self.run(
            "linewidth", "--config", str(cfg_path), "--out", str(out),
            "--set", "halo.v_esc=500", "--masses", "1",
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["halo"]["v0"] == 230.0
        assert manifest["config"]["halo"]["v_esc"] == 500.0

    def test_bad_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"halo": {"v0": -5}}))
        assert self.run("linewidth", "--config", str(cfg_path),
                        "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize(
        "make, overrides",
        [
            (lambda path: None, []),
            (lambda path: path.write_text("{not json"), []),
            (lambda path: path.write_text("[1, 2]"), ["halo.v0=230"]),
            (lambda path: path.write_text('{"halo": 5}'), ["halo.v0=230"]),
            (lambda path: path.write_text('{"axion": 5}'), []),
            (lambda path: path.mkdir(), []),
            (lambda path: path.write_text('{"schema": "axionkit-manifest/1", "args": [1]}'), []),
        ],
        ids=["missing-file", "invalid-json", "list-root", "section-not-object",
             "retired-section-not-object", "directory", "manifest-args-not-object"],
    )
    def test_unreadable_config_exit_code(self, tmp_path, capsys, make, overrides):
        cfg_path = tmp_path / "cfg.json"
        make(cfg_path)
        out = tmp_path / "out"
        sets = [arg for item in overrides for arg in ("--set", item)]
        assert self.run("linewidth", "--config", str(cfg_path), "--out", str(out), *sets) == 2
        err = capsys.readouterr().err
        assert err.startswith("axionkit: config error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["abc", 1.5, -1, True])
    def test_bad_manifest_seed_exit_code(self, tmp_path, capsys, seed):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"schema": "axionkit-manifest/1", "seed": seed}))
        out = tmp_path / "out"
        assert self.run("linewidth", "--config", str(manifest), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("axionkit: config error: seed")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["linewidth", "--formats", "cvs"], "formats"),
            (["linewidth", "--seed", "-1"], "seed"),
            (["linewidth", "--set", "noise.seed=-1"], "seed"),
            (["linewidth", "--set", "ephemeris.omega_sidereal=1.0938e-4"],
             "ephemeris.omega_sidereal"),
            (["linewidth", "--set", "qubit.t1_s=2e-3"], "qubit.t1_s"),
            (["envelope", "--set", "geometry.turntable_rate_rad_s=1e-4"],
             "geometry.turntable_rate_rad_s"),
            (["sensitivity", "--set", "axion.g_ae=1e-10"], "axion.g_ae"),
            (["sensitivity", "--set", "qubit.gamma_e_hz_t=1e9"], "qubit.gamma_e_hz_t"),
            (["linewidth", "--set", "axion.mass=1"], "axion.mass: unknown key"),
            (["linewidth", "--set", "halo.rho_dm=Infinity"],
             "halo.rho_dm: expected a finite number"),
            (["envelope", "--set", "geometry.latitude_deg=NaN"],
             "geometry.latitude_deg: expected a finite number"),
            # settings that pass validation and fail in the computation
            (["sensitivity", "--gains", "none", "--set", "geometry.latitude_deg=0"],
             "geometry.latitude_deg = 0"),
            (["sensitivity", "--set", "geometry.wind_dec_deg=0"], "geometry.wind_dec_deg = 0"),
            (["psd", "--set", "noise.white_psd=1e300"], "noise.pink_amplitude"),
            # records whose squares would overflow
            (["psd", "--span-days", "30", "--dt", "2000", "--set", "noise.rtn_amplitude=1e160"],
             "noise.rtn_amplitude"),
            (["triplet", "--span-days", "30", "--set", "noise.rtn_amplitude=1e300"],
             "noise.rtn_amplitude"),
            (["daily-rms", "--trials", "2", "--set", "noise.rtn_amplitude=1e300"],
             "noise.rtn_amplitude"),
            # speeds below 1 km/s, negative or at least c, each named by its key
            (["envelope", "--set", "ephemeris.v_orbit=1e300"], "ephemeris.v_orbit must"),
            (["psd", "--span-days", "30", "--dt", "2000", "--set", "ephemeris.v_orbit=1e300"],
             "ephemeris.v_orbit must"),
            (["linewidth", "--set", "ephemeris.v_orbit=-1"], "ephemeris.v_orbit must"),
            (["linewidth", "--set", "ephemeris.v_sun=0.5", "--set", "halo.v_ref=0.5"],
             "ephemeris.v_sun must"),
            (["linewidth", "--set", "halo.v_ref=3e5"], "halo.v_ref must"),
            # halos whose line is unresolvable or whose speeds exceed c
            (["linewidth", "--masses", "1", "--set", "halo.v0=1e-120",
              "--set", "halo.v_esc=1e-119"], "halo.v0 "),
            (["linewidth", "--masses", "1", "--set", "halo.v0=1e150",
              "--set", "halo.v_esc=2e150"], "halo.v_esc "),
            # searches whose trial count or integration time overflows
            (["sensitivity", "--mass-min", "1e-10", "--mass-max", "1e-9",
              "--set", "search.bandwidth_hz=1e308", "--set", "search.t_cap_s=1e10"],
             "search.bandwidth_hz * t_cap_s = "),
            (["sensitivity", "--mass-points", "3", "--set", "search.t_cap_s=1e300",
              "--set", "search.t_tot_s=1e300"], "search.t_cap_s * t_tot_s = "),
            # searches whose integration time underflows
            (["sensitivity", "--mass-points", "3", "--set", "search.t_cap_s=1e-300",
              "--set", "search.t_tot_s=1e-300", "--set", "search.bandwidth_hz=1e300"],
             "search.t_tot_s / bandwidth_hz = "),
            (["sensitivity", "--mass-points", "3", "--set", "search.t_cap_s=1e10",
              "--set", "search.t_tot_s=1e-300"], "search.t_tot_s / bandwidth_hz / t_cap_s = "),
        ],
        ids=["formats-typo", "negative-seed", "negative-noise-seed", "retired-sidereal-rate",
             "retired-t1", "retired-turntable", "retired-coupling", "retired-gamma",
             "retired-section-unknown-key", "infinite-rho-dm", "nan-latitude", "equatorial-site",
             "equatorial-wind", "pink-amplitude-from-white", "overflowing-psd",
             "overflowing-triplet", "overflowing-daily-rms", "superluminal-orbit-envelope",
             "superluminal-orbit-psd", "negative-orbit", "slow-sun", "superluminal-v-ref",
             "unresolvable-halo", "superluminal-halo", "infinite-trial-count",
             "infinite-integration-time",
             "underflowing-integration-time", "subnormal-integration-time"],
    )
    def test_bad_run_setting_exit_code(self, tmp_path, capsys, argv, key):
        out = tmp_path / "out"
        assert self.run(argv[0], "--out", str(out), *argv[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("axionkit: config error: ") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("args", [{"dt": "abc"}, {"span-days": True}, {"dt": [600]}])
    def test_bad_manifest_args_exit_code(self, tmp_path, capsys, args):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"schema": "axionkit-manifest/1", "args": args}))
        out = tmp_path / "out"
        assert self.run("envelope", "--config", str(manifest), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"axionkit: config error: args.{next(iter(args))}")
        assert not out.exists()

    def test_manifest_of_another_subcommand_lends_config_only(self, tmp_path):
        # psd's span counts days of 86,400 s and its dt is psd's own
        psd = tmp_path / "psd"
        assert self.run("psd", "--out", str(psd), "--span-days", "30", "--dt", "2000",
                        "--set", "halo.v0=230") == 0
        out = tmp_path / "envelope"
        assert self.run("envelope", "--config", str(psd / "manifest.json"), "--out", str(out),
                        "--formats", "json") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["args"] == {"span-days": 366.0, "dt": 600.0}
        assert manifest["config"]["halo"]["v0"] == 230.0

    def test_sun_speed_mismatch_exit_code(self, tmp_path, capsys):
        out = tmp_path / "vref"
        assert self.run("linewidth", "--out", str(out), "--set", "halo.v_ref=220") == 2
        err = capsys.readouterr().err
        assert "halo.v_ref" in err and "ephemeris.v_sun" in err
        assert not out.exists()
        assert self.run("linewidth", "--out", str(out), "--set", "halo.v_ref=220",
                        "--set", "ephemeris.v_sun=220") == 0

    def test_unknown_key_exit_code(self, tmp_path):
        assert self.run(
            "linewidth", "--out", str(tmp_path / "x"), "--set", "halo.nope=1"
        ) == 2

    @pytest.mark.parametrize(
        "subcommand, argv, parent_format",
        [
            pytest.param(subcommand, argv, False, id=subcommand)
            for subcommand, argv in (
                ("envelope", ["--span-days", "30"]),
                ("daily-rms", ["--trials", "2"]),
                ("psd", ["--span-days", "30", "--dt", "2000"]),
                ("triplet", ["--span-days", "30", "--dt", "2000"]),
                ("linewidth", ["--masses", "1,5"]),
                ("sensitivity", ["--mass-points", "8"]),
            )
        ]
        + [
            pytest.param(
                "triplet",
                ["--data", "series.csv", "--psi-daily", "0.3", "--psi-annual", "1.2"],
                False,
                id="triplet-data",
            ),
            pytest.param(
                "triplet", ["--span-days", "30", "--dt", "2000"], True, id="triplet-parent-format"
            ),
            pytest.param("sensitivity", ["--mass-points", "8"], True,
                         id="sensitivity-parent-format"),
        ],
    )
    def test_manifest_reproduces_bytes(self, tmp_path, monkeypatch, subcommand, argv,
                                       parent_format):
        from axionkit import EphemerisConstants, TimeSeries

        # the CSV that triplet --data reads, at a path relative to the run
        monkeypatch.chdir(tmp_path)
        eph = EphemerisConstants()
        t = np.arange(0, 60 * 86400.0, 1800.0)
        y = (1 + 0.2 * np.cos(eph.omega_annual * t - 1.2)) * np.cos(eph.omega_sidereal * t - 0.3)
        TimeSeries(0.0, 1800.0, y, {"origin": "external"}).to_csv("series.csv")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert self.run(subcommand, "--out", str(out1), "--seed", "11", *argv) == 0
        manifest = out1 / "manifest.json"
        if parent_format:
            # the same run as a manifest of the earlier format records it;
            # regenerated, its manifest drops the retired keys again
            record = json.loads(manifest.read_text())
            for section, keys in PARENT_FORMAT_KEYS.items():
                record["config"].setdefault(section, {}).update(keys)
            manifest = tmp_path / "parent_manifest.json"
            manifest.write_text(json.dumps(record))
        assert self.run(subcommand, "--config", str(manifest), "--out", str(out2)) == 0
        outputs = json.loads((out1 / "manifest.json").read_text())["outputs"]
        assert sorted(path.name for path in out1.iterdir()) == sorted([*outputs, "manifest.json"])
        for name in [*outputs, "manifest.json"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_replay_script_reports_changed_artifacts(self, tmp_path):
        script = Path(__file__).resolve().parent.parent / "scripts" / "replay_manifests.py"
        replay = runpy.run_path(str(script))["replay"]
        run = tmp_path / "runs" / "00_linewidth"
        assert self.run("linewidth", "--out", str(run), "--masses", "1,5") == 0
        assert replay(tmp_path / "runs") == []
        rows = len((run / "linewidth.csv").read_text().splitlines())
        (run / "linewidth.csv").write_text("edited\n")
        assert replay(tmp_path / "runs") == [f"{run / 'linewidth.csv'}: 1 rows, regenerated {rows:,}"]

    # no real dispatch lists a target of that name
    @pytest.mark.parametrize("key, recorded", [("numpy", "1.0.0"), ("numpy_simd", ["NO_SUCH_TARGET"])],
                             ids=["numpy", "numpy_simd"])
    def test_replay_script_notes_other_versions(self, tmp_path, capsys, key, recorded):
        script = runpy.run_path(
            str(Path(__file__).resolve().parent.parent / "scripts" / "replay_manifests.py")
        )
        run = tmp_path / "runs" / "00_linewidth"
        assert self.run("linewidth", "--out", str(run), "--masses", "1,5") == 0
        capsys.readouterr()
        assert script["run"]([str(tmp_path / "runs")]) == 0
        assert capsys.readouterr() == ("", "")
        path = run / "manifest.json"
        manifest = json.loads(path.read_text())
        now = manifest["versions"][key]
        manifest["versions"][key] = recorded
        path.write_text(json.dumps(manifest))
        assert script["run"]([str(tmp_path / "runs")]) == 0
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"{path}: replayed under other versions: {key} {recorded} -> {now}\n"

    def test_replay_script_measures_changed_cells(self, tmp_path, capsys):
        script = runpy.run_path(
            str(Path(__file__).resolve().parent.parent / "scripts" / "replay_manifests.py")
        )
        run = tmp_path / "runs" / "00_psd"
        assert self.run("psd", "--out", str(run), "--span-days", "30", "--dt", "2000") == 0
        assert script["run"]([str(tmp_path / "runs")]) == 0
        capsys.readouterr()
        path = run / "psd.csv"
        regenerated = path.read_text()
        lines = regenerated.splitlines(keepends=True)
        # one density cell moved by about three parts in 10^9
        f_hz, psd = lines[5].rstrip("\n").split(",")
        lines[5] = f"{f_hz},{float(psd) * (1 + 3e-9)!r}\n"
        path.write_text("".join(lines))
        assert script["run"]([str(tmp_path / "runs")]) == 1
        line = capsys.readouterr().out.strip()
        prefix = f"{path}: largest relative difference of numeric cells "
        assert line.startswith(prefix) and line.endswith(", text cells identical")
        relative, absolute = line[len(prefix) :].split(", ")[:2]
        assert float(relative) == pytest.approx(3e-9, rel=1e-3)
        assert absolute.startswith("largest absolute ")
        assert float(absolute.split()[-1]) == pytest.approx(3e-9 * float(psd), rel=1e-3)
        # a header cell is text
        path.write_text(regenerated.replace("f_hz,psd", "f_Hz,psd", 1))
        assert script["replay"](tmp_path / "runs") == [
            f"{path}: largest relative difference of numeric cells 0, largest absolute 0, "
            "text cells differ"
        ]

    def test_replay_script_measures_changed_json_leaves(self, tmp_path):
        replay = runpy.run_path(
            str(Path(__file__).resolve().parent.parent / "scripts" / "replay_manifests.py")
        )["replay"]
        run = tmp_path / "runs" / "00_linewidth"
        assert self.run("linewidth", "--out", str(run), "--masses", "1,5") == 0
        path = run / "linewidth_meta.json"
        regenerated = json.loads(path.read_text())
        # one numeric leaf moved by about three parts in 10^9
        width = regenerated["fractional_scale_width"] * (1 + 3e-9)
        path.write_text(json.dumps({**regenerated, "fractional_scale_width": width}))
        (line,) = replay(tmp_path / "runs")
        prefix = f"{path}: largest relative difference of numeric leaves "
        assert line.startswith(prefix) and line.endswith(", other leaves identical")
        relative, absolute = line[len(prefix) :].split(", ")[:2]
        assert float(relative) == pytest.approx(3e-9, rel=1e-3)
        assert float(absolute.split()[-1]) == pytest.approx(width - width / (1 + 3e-9), rel=1e-3)
        # a string leaf
        path.write_text(json.dumps({**regenerated, "schema": "axionkit-linewidth/0"}))
        assert replay(tmp_path / "runs") == [
            f"{path}: largest relative difference of numeric leaves 0, largest absolute 0, "
            "other leaves differ"
        ]
        path.write_text(json.dumps({**regenerated, "extra": 1}))
        assert replay(tmp_path / "runs") == [f"{path}: keys or list lengths differ"]

    def test_seed_recorded_once_and_old_manifests_fold_it(self, tmp_path):
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        argv = ["--span-days", "30", "--dt", "2000", "--formats", "csv,json"]
        assert self.run("psd", "--out", str(out1), "--set", "noise.seed=5",
                        "--seed", "3", *argv) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["config"]["noise"]["seed"] == 3 and "seed" not in manifest
        assert manifest["config"]["output"]["formats"] == ["csv", "json"]
        # a manifest written when the seed was stored at the top level
        manifest["seed"], manifest["config"]["noise"]["seed"] = 3, 0
        old = tmp_path / "old_manifest.json"
        old.write_text(json.dumps(manifest))
        assert self.run("psd", "--config", str(old), "--out", str(out2)) == 0
        for name in manifest["outputs"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        # an explicit override beats the manifest, as for every other key
        assert self.run("psd", "--config", str(old), "--out", str(out3),
                        "--set", "noise.seed=5") == 0
        assert (out1 / "psd.csv").read_bytes() != (out3 / "psd.csv").read_bytes()

    def test_manifest_records_versions(self, tmp_path):
        import platform

        import scipy

        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert self.run("envelope", "--out", str(out1), "--span-days", "30") == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        simd = np.show_config(mode="dicts")["SIMD Extensions"]
        assert manifest["versions"] == {
            "axionkit": cli.__version__,
            "numpy": np.__version__,
            "numpy_simd": simd["baseline"] + simd.get("found", []),
            "python": platform.python_version(),
            "scipy": scipy.__version__,
        }
        # a manifest written before python, scipy and the SIMD dispatch
        # were recorded
        for key in ("python", "scipy", "numpy_simd"):
            del manifest["versions"][key]
        old = tmp_path / "old_manifest.json"
        old.write_text(json.dumps(manifest))
        assert self.run("envelope", "--config", str(old), "--out", str(out2)) == 0
        for name in manifest["outputs"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_formats_subset(self, tmp_path):
        out = tmp_path / "fmt"
        assert self.run("linewidth", "--out", str(out), "--formats", "csv") == 0
        assert (out / "linewidth.csv").exists()
        assert not (out / "linewidth.svg").exists()
        assert (out / "manifest.json").exists()  # manifest always written

    @pytest.mark.parametrize(
        "subcommand, argv",
        [
            ("envelope", ["--span-days", "2"]),
            ("daily-rms", ["--trials", "2"]),
            ("psd", ["--span-days", "10"]),
            ("triplet", ["--span-days", "10"]),
            ("linewidth", ["--masses", "1"]),
            ("sensitivity", ["--mass-points", "5"]),
        ],
    )
    def test_manifest_args_follow_the_argument_table(self, tmp_path, capsys, subcommand, argv):
        names = [name for name, *_ in cli._COMMANDS[subcommand][2]]
        out = tmp_path / "out"
        assert self.run(subcommand, "--out", str(out), "--formats", "json", *argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["args"]) == sorted(names)
        with pytest.raises(SystemExit):
            cli.main([subcommand, "--help"])
        text = capsys.readouterr().out
        assert all(f"--{name}" in text for name in names)

    @staticmethod
    def _digests(root: Path) -> dict:
        return {
            str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*"))
            if path.is_file()
        }

    @pytest.mark.parametrize("existing", [True, False], ids=["existing-out", "missing-out"])
    @pytest.mark.parametrize(
        "module, name",
        [(geometry, "beta_ratio"), (svgplot, "line_plot")],
        ids=["compute-stage", "write-stage"],
    )
    def test_failed_run_leaves_out_as_it_was(
        self, tmp_path, capsys, monkeypatch, module, name, existing
    ):
        out = tmp_path / "env"
        if existing:
            assert self.run("envelope", "--out", str(out), "--span-days", "3") == 0
        before = self._digests(tmp_path)

        def fail(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(module, name, fail)
        assert self.run("envelope", "--out", str(out), "--span-days", "2") == 3
        assert "injected failure" in capsys.readouterr().err
        assert out.exists() == existing
        assert self._digests(tmp_path) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == (["env"] if existing else [])

    def test_out_naming_a_file_exit_code(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("keep me\n")
        assert self.run("linewidth", "--out", str(out), "--masses", "1") == 3
        err = capsys.readouterr().err
        assert err.startswith("axionkit: linewidth failed: ") and err.count("\n") == 1
        assert out.read_text() == "keep me\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    @pytest.mark.parametrize(
        "subcommand, argv, name",
        [
            ("envelope", ["--dt", "0"], "dt"),
            ("envelope", ["--dt", "nan"], "dt"),
            ("envelope", ["--span-days", "inf"], "span-days"),
            ("psd", ["--span-days", "-5"], "span-days"),
            ("daily-rms", ["--trials", "1"], "trials"),
            ("daily-rms", ["--samples-per-day", "0"], "samples-per-day"),
            ("daily-rms", ["--band-sigma", "0"], "band-sigma"),
            ("triplet", ["--data", "f.csv", "--psi-daily", "nan", "--psi-annual", "0"],
             "psi-daily"),
            ("triplet", ["--psi-annual", "inf"], "psi-annual"),
            ("linewidth", ["--masses", "1,,2"], "masses"),
            ("linewidth", ["--masses", "1,-5"], "masses"),
            ("sensitivity", ["--mass-points", "0"], "mass-points"),
            ("sensitivity", ["--mass-min", "-1"], "mass-min"),
            ("sensitivity", ["--mass-max", "0"], "mass-max"),
            ("sensitivity", ["--preset", "bogus"], "preset"),
            ("sensitivity", ["--gains", "x"], "gains"),
            ("envelope", ["--config", "manifest.json"], "dt"),
            # outside the masses whose halo line is finite and resolvable
            ("linewidth", ["--masses", "1e-300"], "masses"),
            ("linewidth", ["--masses", "1,1e300"], "masses"),
            ("linewidth", ["--masses", "9.9e-151"], "masses"),
            ("linewidth", ["--masses", "1.01e150"], "masses"),
        ],
    )
    def test_out_of_range_argument_exit_code(self, tmp_path, capsys, monkeypatch,
                                              subcommand, argv, name):
        monkeypatch.chdir(tmp_path)
        Path("manifest.json").write_text(
            json.dumps({"schema": "axionkit-manifest/1", "args": {"dt": 0}})
        )
        assert self.run(subcommand, "--out", "out", *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"axionkit: config error: args.{name}") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    @pytest.mark.parametrize(
        "subcommand, argv, names",
        [
            ("sensitivity", ["--mass-min", "5", "--mass-max", "1"],
             "args.mass-min and args.mass-max"),
            ("sensitivity", ["--mass-min", "2", "--mass-max", "2"],
             "args.mass-min and args.mass-max"),
            ("daily-rms", ["--samples-per-day", "9"], "args.samples-per-day"),
            ("daily-rms", ["--samples-per-day", "1000000000"], "args.samples-per-day"),
            ("psd", ["--span-days", "1"], "args.span-days and args.dt"),
            ("triplet", ["--span-days", "1.9"], "args.span-days and args.dt"),
            ("psd", ["--dt", "9000"], "args.span-days and args.dt"),
            ("triplet", ["--span-days", "1e9", "--dt", "0.5"], "args.span-days and args.dt"),
            ("envelope", ["--dt", "1e-300"], "args.span-days and args.dt"),
            # byte-budget caps: 1,666,666 masses, 10,000 line shapes, and
            # 2,585 trials at 48 samples a day
            ("sensitivity", ["--mass-points", "100000000"], "args.mass-points"),
            ("linewidth", ["--masses", ",".join(["1"] * 10_001)], "args.masses"),
            ("daily-rms", ["--trials", "10000000000"], "args.trials"),
            # fewer than one trial per segment at the largest mass
            ("sensitivity", ["--mass-min", "1", "--mass-max", "3000", "--mass-points", "3"],
             "args.mass-max and search.bandwidth_hz"),
            ("sensitivity", ["--mass-min", "3000", "--mass-max", "5000", "--mass-points", "1"],
             "args.mass-min and search.bandwidth_hz"),
        ],
    )
    def test_cross_argument_limit_exit_code(self, tmp_path, capsys, monkeypatch,
                                            subcommand, argv, names):
        monkeypatch.chdir(tmp_path)
        assert self.run(subcommand, "--out", "out", *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"axionkit: config error: {names}: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "span_days, dt, count",
        [(366.0, 0.01, "3.154e\\+09"), (1e9, 1e7, "1e\\+09")],
        ids=["samples", "daily-rows"],
    )
    def test_envelope_sample_cap_before_allocating(self, monkeypatch, span_days, dt, count):
        # 3.2e9 samples, or 1e9 daily rows: 25 GB or 8 GB an array
        arange = np.arange

        def guarded(start, stop=None, step=1.0, **kwargs):
            if stop is None:
                return arange(start, **kwargs)
            assert (stop - start) / step <= 10_000, "arange called before the sample cap"
            return arange(start, stop, step, **kwargs)

        monkeypatch.setattr(np, "arange", guarded)
        with pytest.raises(ConfigError, match=f"args.span-days and args.dt: {count} samples"):
            cli.cmd_envelope(build_config({}), {"span-days": span_days, "dt": dt})

    def test_single_mass_grid_ignores_mass_max(self, tmp_path):
        out = tmp_path / "one"
        assert self.run("sensitivity", "--out", str(out), "--mass-min", "3",
                        "--mass-max", "3", "--mass-points", "1") == 0

    def test_triplet_on_collinear_data_exit_code(self, tmp_path, capsys):
        from axionkit import TimeSeries

        data = tmp_path / "three.csv"
        TimeSeries(0.0, 1.0, np.array([1.0, 1.1, 0.9]), {"origin": "x"}).to_csv(data)
        out = tmp_path / "t"
        assert self.run("triplet", "--out", str(out), "--data", str(data),
                        "--psi-daily", "0.3", "--psi-annual", "1.2") == 3
        err = capsys.readouterr().err
        assert err.startswith("axionkit: triplet failed: ") and "collinear" in err
        assert not out.exists()

    def test_triplet_on_unreadable_header_exit_code(self, tmp_path, capsys):
        data = tmp_path / "garbled.csv"
        data.write_text("# {not json\nt,value\n0.0,1.0\n1.0,2.0\n")
        out = tmp_path / "t"
        assert self.run("triplet", "--out", str(out), "--data", str(data),
                        "--psi-daily", "0", "--psi-annual", "0") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"axionkit: triplet failed: {data}: Expecting property name")
        assert not out.exists()

    def test_triplet_on_nonfinite_data_exit_code(self, tmp_path, capsys):
        from axionkit import TimeSeries

        t = np.arange(0, 120 * 86400.0, 1800.0)
        data = tmp_path / "nan.csv"
        TimeSeries(0.0, 1800.0, np.cos(7.29e-5 * t), {"origin": "x"}).to_csv(data)
        lines = data.read_text().splitlines(keepends=True)
        lines[5] = lines[5].split(",")[0] + ",nan\n"
        data.write_text("".join(lines))
        out = tmp_path / "t"
        out.mkdir()
        (out / "kept.txt").write_text("before")
        assert self.run("triplet", "--out", str(out), "--data", str(data), "--formats", "json",
                        "--psi-daily", "0", "--psi-annual", "0") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"axionkit: triplet failed: {data}: non-finite sample at row 3")
        assert [p.name for p in out.iterdir()] == ["kept.txt"]
        assert (out / "kept.txt").read_text() == "before"

    def test_triplet_on_complex_data_exit_code(self, tmp_path, capsys):
        from axionkit import TimeSeries

        t = np.arange(0, 120 * 86400.0, 1800.0)
        data = tmp_path / "complex.csv"
        TimeSeries(0.0, 1800.0, np.exp(7.29e-5j * t), {"origin": "x"}).to_csv(data)
        out = tmp_path / "t"
        out.mkdir()
        (out / "kept.txt").write_text("before")
        assert self.run("triplet", "--out", str(out), "--data", str(data),
                        "--psi-daily", "0", "--psi-annual", "0") == 3
        err = capsys.readouterr().err
        assert err.startswith("axionkit: triplet failed: ") and "real record" in err
        assert [p.name for p in out.iterdir()] == ["kept.txt"]
        assert (out / "kept.txt").read_text() == "before"

    def test_help_lists_config_keys(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sensitivity", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "halo.v0" in text
        assert "search.alpha" in text
        assert "--preset" in text


def test_one_home_for_budget_and_layouts():
    # the run's byte budget is decided in signals, every artifact layout in
    # cli (timeseries defines write_columns and its own time-series format)
    package = Path(cli.__file__).parent

    def mentions(word):
        return sorted(p.name for p in package.glob("*.py") if word in p.read_text())

    assert mentions("write_columns") == ["cli.py", "timeseries.py"]
    assert mentions("MAX_BYTES") == ["signals.py"]


def test_publish_error_names_the_destination(tmp_path):
    # the staging directory is gone by the time the error is read
    out = tmp_path / "X"
    out.mkdir()
    (out / "kept.txt").write_text("before")
    artifacts = {"linewidth.csv": cli._csv("density_per_hz", (np.array([1.0, np.nan]),))}
    with pytest.raises(RuntimeError) as exc:
        cli._publish(out, artifacts)
    message = str(exc.value)
    assert message == f"{out / 'linewidth.csv'}: column density_per_hz has 1 non-finite values"
    assert ".X." not in message
    assert [p.name for p in tmp_path.iterdir()] == ["X"]
    assert [p.name for p in out.iterdir()] == ["kept.txt"]
    assert (out / "kept.txt").read_text() == "before"


def test_json_artifacts_refuse_nan(tmp_path):
    # NaN and Infinity are not JSON; a record holding one fails the run
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._json({"x": value})(tmp_path / "x.json")
    assert not (tmp_path / "x.json").exists()


class TestSvgPlot:
    def test_deterministic_output(self, tmp_path):
        curves = [{"x": [1, 2, 3], "y": [1.0, 4.0, 9.0], "label": "sq", "markers": True}]
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        svgplot.line_plot(a, curves, xlabel="x", ylabel="y", title="t")
        svgplot.line_plot(b, curves, xlabel="x", ylabel="y", title="t")
        assert a.read_bytes() == b.read_bytes()

    def test_log_axes(self, tmp_path):
        curves = [{"x": np.geomspace(1, 1e4, 30), "y": np.geomspace(1e-12, 1e-6, 30)}]
        path = tmp_path / "log.svg"
        svgplot.line_plot(path, curves, xlog=True, ylog=True)
        assert path.read_text().startswith("<svg")

    def test_log_axis_drops_nonpositive_and_rejects_empty(self, tmp_path):
        path = tmp_path / "partial.svg"
        svgplot.line_plot(path, [{"x": [-1, 1], "y": [1, 2]}], xlog=True)
        assert path.exists()
        with pytest.raises(ValueError, match="nothing to plot"):
            svgplot.line_plot(
                tmp_path / "bad.svg", [{"x": [-1, -2], "y": [1, 2]}], xlog=True
            )

    def test_ulp_wide_axis(self, tmp_path):
        # a tick step below half an ulp of the axis values once looped forever
        path = tmp_path / "flat.svg"
        svgplot.line_plot(path, [{"x": [0, 1], "y": [0.5, 0.5 + 1.2e-16]}])
        assert path.read_text().count('text-anchor="end"') <= 7

    @given(a=st.floats(allow_nan=False, allow_infinity=False),
           b=st.floats(allow_nan=False, allow_infinity=False))
    @example(a=0.5, b=float(np.nextafter(0.5, 1.0)))
    @example(a=1e15, b=1e15 + 1.0)
    @settings(max_examples=300, deadline=None)
    def test_linear_ticks_bounded_and_ordered(self, a, b):
        assume(a != b)
        ticks = svgplot._linear_ticks(min(a, b), max(a, b), 5)
        assert 1 <= len(ticks) <= 7
        assert ticks == sorted(ticks)

    @pytest.mark.parametrize(
        "y",
        [[-1e308, 1e308], [-sys.float_info.max, sys.float_info.max],
         [sys.float_info.max, sys.float_info.max / 2], [1e20, 1e20],
         [-sys.float_info.max, -sys.float_info.max]],
        ids=["wide", "whole-range", "top", "big-point", "lowest-point"],
    )
    def test_axis_anywhere_in_the_float_range(self, tmp_path, y):
        # the padded span of a wide axis once overflowed, and a point past
        # 2**53 padded by 1 gave a zero-width axis
        path = tmp_path / "wide.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            svgplot.line_plot(path, [{"x": [0, 1], "y": y}])
        text = path.read_text()
        assert "nan" not in text and "inf" not in text
        points = re.search(r'points="([^"]*)"', text).group(1)
        pixels = [float(v) for xy in points.split() for v in xy.split(",")]
        assert all(0 <= v <= 720 for v in pixels)

    def test_drops_nonfinite_points(self, tmp_path):
        path = tmp_path / "nan.svg"
        svgplot.line_plot(
            path, [{"x": [0, 1, 2, 3], "y": [1.0, np.nan, np.inf, 2.0]}]
        )
        assert path.exists()

    def test_rejects_unequal_lengths_naming_the_curve(self, tmp_path):
        # refused, not cut to the shorter side
        path = tmp_path / "unequal.svg"
        curves = [{"x": [0, 1], "y": [0, 1], "label": "a"},
                  {"x": np.arange(3.0), "y": [1, 2], "label": "b"}]
        with pytest.raises(ValueError, match="^curve 'b' has 3 x values but 2 y values$"):
            svgplot.line_plot(path, curves)
        assert not path.exists()

    # curve sets whose SVG bytes are pinned; every value is exact in binary
    # so that only the plot's own arithmetic reaches the digest
    _BIG = sys.float_info.max
    _STEPS = np.arange(40) / 8.0
    _PINNED = {
        "linear": (
            [{"x": [1, 2, 3], "y": [1.0, 4.0, 9.0], "label": "sq", "markers": True},
             {"x": _STEPS, "y": (_STEPS - 1.5) ** 3, "label": "cube"},
             {"x": (-0.0, 0.0, 0.5), "y": np.array([0.25, -0.0, 0.0])}],
            {"xlabel": "x", "ylabel": "y", "title": "t"},
        ),
        "log": (
            [{"x": 2.0 ** np.arange(-10, 14), "y": 4.0 ** np.arange(-10, 14), "label": "p"},
             {"x": [np.nan, 1.0, 2.0, np.inf, 8.0, -np.inf, 0.0, -4.0, 64.0, 128.0],
              "y": [1.0, np.nan, 0.5, 2.0, -np.inf, 4.0, 8.0, 16.0, 0.0, 1e-300],
              "markers": True}],
            {"xlog": True, "ylog": True},
        ),
        "semilog-nonfinite": (
            [{"x": np.array([0.0, 1.0, np.nan, 3.0, np.inf, 5.0]),
              "y": np.array([1.0, -np.inf, 2.0, 0.0, 3.0, -2.0]), "markers": True}],
            {"ylog": True},
        ),
        "one-point": ([{"x": [2.5], "y": [-1.0], "label": "p", "markers": True}], {}),
        "one-point-log": ([{"x": np.array([1e3]), "y": np.array([2.0])}],
                          {"xlog": True, "ylog": True}),
        "float-range": (
            [{"x": [-_BIG, 0.0, _BIG], "y": [_BIG, -_BIG, _BIG / 2], "markers": True},
             {"x": [0.0, 1.0], "y": [5e-324, -5e-324]}],
            {},
        ),
        "float-range-log": (
            [{"x": [5e-324, 1.0, _BIG], "y": [_BIG, 1e-300, 5e-324]}],
            {"xlog": True, "ylog": True},
        ),
    }
    _PINNED_SHA256 = {
        "float-range": "8e5c2a6b220f44b0f3f665b06066d50aed7c41ede8a3fca8ffeae80d493039b9",
        "float-range-log": "66eaeef4065756cfdb354065bf908cbcedd30eb82fc19120a6e0e207f369f2d4",
        "linear": "f7cea4a5a6535057ea41faecd868cd731e109db8e25922a5cde66e0eed88b64b",
        "log": "a50c3a9c6287a44d26b63e695a2964805ab5243bc49fe1b32781e699b9b4282e",
        "one-point": "dfaad82f261be0665508b4f4d100b60faf1cd8be5f6585457cef058dc325927a",
        "one-point-log": "46c65a6f1991d93e0f661d7048f626cae5e60c1a6f236451c3deb04b5d92d5e5",
        "semilog-nonfinite": "2cff58fb9960627231f00d59f365f7c54f85c72e6614be9aa651ea1664dad810",
    }

    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_pinned_bytes(self, tmp_path, name):
        curves, kwargs = self._PINNED[name]
        path = tmp_path / f"{name}.svg"
        svgplot.line_plot(path, curves, **kwargs)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self._PINNED_SHA256[name]
