"""Experiment-runner tests: schema, bundles, reproducibility, exit codes."""

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import levylab
from levylab.cli import apply_checks, build_problem, load_config, main, run, validate_config
from levylab.errors import SchemaError
from levylab.integrator import CHUNK_SIZE


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "experiment": "invariant",
        "problem": {"sigma": "2^0.5", "b": "-x"},
        "numerics": {
            "dt": 0.01,
            "n_samples": 5000,
            "burn_in": 3.0,
            "thinning": 10,
            "n_chains": 25,
        },
        "seed": 12345,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path), cfg


class TestSchema:
    def test_unknown_fields_rejected(self, tmp_path):
        path, _ = write_config(tmp_path, extra_field=1)
        with pytest.raises(SchemaError, match="extra_field"):
            load_config(path)

    def test_unknown_numerics_listed(self):
        with pytest.raises(SchemaError, match="zzz"):
            validate_config(
                {
                    "experiment": "invariant",
                    "problem": "ou_singular",
                    "numerics": {"zzz": 1},
                    "seed": 1,
                    "output_dir": "/tmp/x",
                }
            )

    def test_missing_required_numerics_listed(self):
        with pytest.raises(SchemaError, match="n_samples"):
            validate_config(
                {
                    "experiment": "invariant",
                    "problem": "ou_singular",
                    "numerics": {},
                    "seed": 1,
                    "output_dir": "/tmp/x",
                }
            )

    def test_unknown_experiment(self):
        with pytest.raises(SchemaError, match="unknown experiment"):
            validate_config(
                {"experiment": "nope", "problem": "ou_singular", "seed": 1, "output_dir": "/tmp/x"}
            )

    def test_missing_preset_lists_known(self, tmp_path):
        path, _ = write_config(tmp_path, problem="not_a_preset")
        rc = main(["run", path])
        assert rc == 1  # execution error with the known-preset list

    def test_seed_domain(self):
        with pytest.raises(SchemaError, match="seed"):
            validate_config(
                {"experiment": "audit", "problem": "ou_singular", "seed": -3, "output_dir": "/tmp/x"}
            )


class TestProblemBuilding:
    def test_inline_coefficients(self):
        cfg = {
            "problem": {"sigma": "1", "b1": "sign(x)*abs(x)^(-0.5)*indicator(-1,1)", "b2": "-x"},
            "levy": None,
        }
        p = build_problem(cfg)
        xs = np.array([0.25, 4.0])
        assert np.allclose(p.b1(0.0, xs), [2.0, 0.0])
        assert np.allclose(p.b2(0.0, xs), [-0.25, -4.0])

    def test_multiplicative_jump_detection(self):
        cfg = {
            "problem": {"g": "(2+sin(x))/3*z"},
            "levy": {"alpha": 1.5, "dim": 1, "R": 1.0},
        }
        p = build_problem(cfg)
        assert p.sigma_bar is not None
        xs = np.array([0.0, 1.0])
        assert np.allclose(p.sigma_bar(0.0, xs), (2 + np.sin(xs)) / 3)

    def test_preset_by_name(self):
        p = build_problem({"problem": "mixing_jump"})
        assert p.levy is not None and p.levy.alpha == 1.5


class TestRun:
    def test_bundle_and_exit_zero(self, tmp_path):
        path, cfg = write_config(tmp_path)
        rc = main(["run", path])
        assert rc == 0
        out = cfg["output_dir"]
        results = json.loads(Path(os.path.join(out, "results.json")).read_text())
        manifest = json.loads(Path(os.path.join(out, "manifest.json")).read_text())
        assert results["verdict"] == "pass"
        assert 0.8 < results["variance"] < 1.2
        assert manifest["seed"] == 12345
        assert "wall_time_s" in manifest and "wall_time_s" not in results
        assert os.path.exists(os.path.join(out, "histogram.csv"))

    def test_byte_reproducible_across_threads(self, tmp_path):
        # zvonkin_crossval forwards --threads; its ensembles span two chunks
        numerics = {"dt": 0.01, "horizon": 0.5, "grid": {"lo": -4.0, "hi": 4.0, "n": 201}, "n_paths": CHUNK_SIZE + 100}
        path, cfg = write_config(tmp_path, experiment="zvonkin_crossval", problem="ou_singular", numerics=numerics)
        assert main(["run", path, "--threads", "1"]) == 0
        first = Path(os.path.join(cfg["output_dir"], "results.json")).read_bytes()
        assert main(["run", path, "--threads", "4"]) == 0
        second = Path(os.path.join(cfg["output_dir"], "results.json")).read_bytes()
        # the digest of the terminal states in path order makes the bytes see
        # chunks joined out of order, which W1 (sorted samples) cannot
        assert len(json.loads(first)["terminal_sha256"]) == 64
        assert first == second

    def test_manifest_config_round_trip(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["run", path]) == 0
        out = cfg["output_dir"]
        manifest = json.loads(Path(os.path.join(out, "manifest.json")).read_text())
        first = Path(os.path.join(out, "results.json")).read_bytes()
        echo_path = tmp_path / "echo.json"
        echo_path.write_text(json.dumps(manifest["config"]))
        assert main(["run", str(echo_path)]) == 0
        second = Path(os.path.join(out, "results.json")).read_bytes()
        assert first == second

    def test_failed_check_exits_two(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            numerics={
                "dt": 0.01,
                "n_samples": 5000,
                "burn_in": 3.0,
                "thinning": 10,
                "n_chains": 25,
                "checks": {"variance": {"target": 5.0, "rtol": 0.01}},
            },
        )
        assert main(["run", path]) == 2

    def test_seed_override(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["run", path, "--seed-override", "99"]) == 0
        results = json.loads(Path(os.path.join(cfg["output_dir"], "results.json")).read_text())
        assert results["seed"] == 99

    def test_output_env_override(self, tmp_path, monkeypatch):
        path, cfg = write_config(tmp_path)
        alt = tmp_path / "alt"
        monkeypatch.setenv("LEVYLAB_OUTPUT", str(alt))
        assert main(["run", path]) == 0
        assert os.path.exists(alt / "results.json")

    def test_audit_subcommand(self, tmp_path):
        path, cfg = write_config(
            tmp_path,
            problem="ou_singular",
            numerics={"dt": 0.01, "n_samples": 100, "burn_in": 0.1, "thinning": 1},
        )
        rc = main(["audit", path])
        assert rc == 0
        results = json.loads(Path(os.path.join(cfg["output_dir"], "results.json")).read_text())
        assert results["experiment"] == "audit"
        assert results["dissipativity"]["passed"]

    def test_gronwall_constants_case(self, tmp_path):
        cfg = {
            "experiment": "verify_gronwall",
            "problem": {"b": "-x"},
            "numerics": {"p": 2.0 / 3.0, "q": 1.0 / 3.0, "n_paths": 500},
            "seed": 3,
            "output_dir": str(tmp_path / "g"),
        }
        path = tmp_path / "g.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 0
        results = json.loads((tmp_path / "g" / "results.json").read_text())
        assert results["lhs"] == 1 and results["cap"] == 8 and results["verdict"] == "pass"

    def test_gronwall_scenarios_do_not_replay_the_scenario_stream(self, tmp_path, monkeypatch):
        from levylab import inequality_lab

        seeds = []

        def record(scenario, p, q, horizon, n_paths, seed):
            seeds.append(seed)
            return {"passed": True, "slack": 1.0}

        monkeypatch.setattr(inequality_lab, "stochastic_gronwall_check", record)
        cfg = {
            "experiment": "verify_gronwall",
            "problem": {"b": "-x"},
            "numerics": {"p": 2.0 / 3.0, "q": 1.0 / 3.0, "n_paths": 10, "n_scenarios": 3},
            "seed": 3,
            "output_dir": str(tmp_path / "g"),
        }
        path = tmp_path / "g.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 0
        first_words = lambda seed: np.random.default_rng(seed).integers(0, 2**63, 4).tolist()
        path_streams = [first_words(seed) for seed in seeds]
        assert len(seeds) == 3 and first_words(3) not in path_streams
        assert len({tuple(words) for words in path_streams}) == 3

    def test_simulate_writes_paths(self, tmp_path):
        cfg = {
            "experiment": "simulate",
            "problem": "ou_singular",
            "numerics": {"dt": 0.05, "horizon": 1.0, "n_paths": 2, "x0": 0.5},
            "seed": 5,
            "output_dir": str(tmp_path / "s"),
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 0
        assert os.path.exists(tmp_path / "s" / "path_0.csv")
        header = (tmp_path / "s" / "path_0.csv").read_text().splitlines()[0].strip()
        assert header == "path_id,t,x_1,is_jump"


class TestHeatkernel:
    def config(self, tmp_path, **numerics):
        cfg = {
            "experiment": "heatkernel",
            "problem": {"g": "z"},
            "levy": {"alpha": 1.5, "dim": 1, "R": 1.0},
            "numerics": {"t_values": [0.1, 0.4, 1.0], "x_max": 5.0, **numerics},
            "seed": 3,
            "output_dir": str(tmp_path / "hk"),
        }
        path = tmp_path / "hk.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_alpha_one_and_a_half_passes_by_default(self, tmp_path):
        # every correct alpha = 1.5 kernel has c2/c1 = 4.717 on this window
        # (DECISIONS.md, acceptance 6a); the default cap is that ratio plus 5%
        assert main(["run", self.config(tmp_path, n_paths=20000, dt=0.01)]) == 0
        results = json.loads((tmp_path / "hk" / "results.json").read_text())
        assert results["ratio"] == pytest.approx(4.71676, rel=1e-5)
        assert results["ratio_tol"] == pytest.approx(1.05 * 4.71676, rel=1e-5)
        assert results["mc_membership"]["violations"] == 0

    def test_explicit_cap_below_the_exact_ratio_fails(self, tmp_path):
        assert main(["run", self.config(tmp_path, ratio_tol=4.5)]) == 2
        results = json.loads((tmp_path / "hk" / "results.json").read_text())
        assert results["ratio_tol"] == 4.5 and results["envelope"]["violations"] == 1


def test_apply_checks_paths():
    results = {"a": {"b": 2.0}, "c": 3.0}
    outcomes, ok = apply_checks(results, {"a.b": {"target": 2.0, "atol": 0.1}, "c": {"target": 3.1, "rtol": 0.05}})
    assert ok and outcomes["a.b"]["passed"]
    _, bad = apply_checks(results, {"c": {"target": 5.0, "rtol": 0.01}})
    assert not bad


def test_only_the_cli_writes_result_formats():
    # the bundle's format belongs to the CLI: no library layer prints 17
    # significant digits or writes CSV
    src = Path(levylab.__file__).parent
    hits = [
        f"{path.name}:{i}"
        for path in sorted(src.glob("*.py"))
        if path.name != "cli.py"
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if ".17g" in line or re.match(r"\s*(import|from) csv\b", line)
    ]
    assert hits == []
