import ast
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from axionkit import cli, geometry, sensitivity, svgplot
from axionkit.config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    build_config,
    config_to_dict,
    list_config_keys,
    load_config,
)

# the retired keys, at their former defaults, as manifests of the earlier
# format carry them
PARENT_FORMAT_KEYS = {
    "geometry": {"longitude_deg": 116.4074},
    "ephemeris": {"omega_annual": 1.991021277657232e-07, "omega_sidereal": 7.292115857915991e-05},
    "qubit": {
        "b0_t": 0.5, "omega0_rad_s": None, "q_resonator": 10000.0, "t1_s": 0.001, "t2_s": 0.0001,
    },
}


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
        sample = Path(__file__).resolve().parent.parent / "scripts" / "sample_config.json"
        cfg, run_args = load_config(sample)
        assert cfg.halo == build_config({}).halo
        assert run_args == {}

    def test_key_listing_covers_all_sections(self):
        keys = list_config_keys()
        joined = "\n".join(keys)
        for expected in (
            "geometry.latitude_deg",
            "halo.v0",
            "axion.mass_uev",
            "qubit.eta_b_t_rthz",
            "noise.seed",
            "search.alpha",
            "output.directory",
        ):
            assert expected in joined
        for section, keys in PARENT_FORMAT_KEYS.items():
            for key in keys:
                assert f"{section}.{key} " not in joined

    def test_every_setting_is_read(self):
        # a field that only its own __post_init__ reads (asdict echoes it
        # into manifests) is a setting that no computation honours
        reads = []  # (attribute, class whose __post_init__ reads it, or None)
        for source in Path(cli.__file__).parent.glob("*.py"):
            tree = ast.parse(source.read_text())
            owner = {
                node: cls.name
                for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                for fn in cls.body
                if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                for node in ast.walk(fn)
            }
            reads += [
                (node.attr, owner.get(node)) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            ]
        unread = [
            f"{section.name}.{f.name}"
            for section in dataclasses.fields(RunConfig)
            for f in dataclasses.fields(section.default_factory)
            if not any(
                attr == f.name and where != section.default_factory.__name__
                for attr, where in reads
            )
        ]
        assert unread == []


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
        assert config["stacking"] == "stack" and config["mass_dependent"] is True
        assert config["qubit"] == dataclasses.asdict(sensitivity.PRESETS["current"])

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
            (lambda path: path.mkdir(), []),
            (lambda path: path.write_text('{"schema": "axionkit-manifest/1", "args": [1]}'), []),
        ],
        ids=["missing-file", "invalid-json", "list-root", "section-not-object",
             "directory", "manifest-args-not-object"],
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
            (["linewidth", "--set", "halo.rho_dm=Infinity"],
             "halo.rho_dm: expected a finite number"),
            (["envelope", "--set", "geometry.latitude_deg=NaN"],
             "geometry.latitude_deg: expected a finite number"),
            # settings that pass validation and fail in the computation
            (["sensitivity", "--gains", "none", "--set", "geometry.latitude_deg=0"],
             "geometry.latitude_deg = 0"),
            (["sensitivity", "--set", "geometry.wind_dec_deg=0"], "geometry.wind_dec_deg = 0"),
            (["psd", "--set", "noise.white_psd=1e300"], "noise.pink_amplitude"),
        ],
        ids=["formats-typo", "negative-seed", "negative-noise-seed", "retired-sidereal-rate",
             "retired-t1", "infinite-rho-dm", "nan-latitude", "equatorial-site",
             "equatorial-wind", "pink-amplitude-from-white"],
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
                record["config"][section].update(keys)
            manifest = tmp_path / "parent_manifest.json"
            manifest.write_text(json.dumps(record))
        assert self.run(subcommand, "--config", str(manifest), "--out", str(out2)) == 0
        outputs = json.loads((out1 / "manifest.json").read_text())["outputs"]
        assert sorted(path.name for path in out1.iterdir()) == sorted([*outputs, "manifest.json"])
        for name in [*outputs, "manifest.json"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

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
        assert manifest["versions"] == {
            "axionkit": cli.__version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "scipy": scipy.__version__,
        }
        # a manifest written before python and scipy were recorded
        del manifest["versions"]["python"], manifest["versions"]["scipy"]
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
            # byte-budget caps: 2,000,000 masses, 8,333 line shapes, and
            # 2,844 trials at 48 samples a day
            ("sensitivity", ["--mass-points", "100000000"], "args.mass-points"),
            ("linewidth", ["--masses", ",".join(["1"] * 10_000)], "args.masses"),
            ("daily-rms", ["--trials", "10000000000"], "args.trials"),
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

    def test_drops_nonfinite_points(self, tmp_path):
        path = tmp_path / "nan.svg"
        svgplot.line_plot(
            path, [{"x": [0, 1, 2, 3], "y": [1.0, np.nan, np.inf, 2.0]}]
        )
        assert path.exists()
