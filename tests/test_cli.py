import dataclasses
import json
import struct
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from qsdesign import cli, runner
from qsdesign.cli import main
from qsdesign.config import SimConfig, load_sim_config, sim_config_from_dict
from qsdesign.errors import ValidationError
from qsdesign.prior import load_prior_field
from qsdesign.runner import CSV_COLUMNS, metrics_csv_text, run_simulation, write_outputs

TINY_SIM = {
    "seed": 7,
    "degree": 4,
    "train_subjects": 20,
    "test_subjects": 6,
    "dense_design_size": 30,
    "noise_sigma": 0.01,
    "budgets": [3, 5],
    "candidate_count": 60,
    "peak_grid_size": 512,
}

TINY_BUILD = {
    "seed": 3,
    "degree": 4,
    "train_subjects": 8,
    "dense_design_size": 20,
    "noise_sigma": 0.01,
    "grid_shape": [2, 1, 1],
}


@pytest.fixture(scope="module")
def tiny_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    cfg = sim_config_from_dict({**TINY_SIM, "out_dir": str(out)})
    result = run_simulation(cfg)
    write_outputs(result, cfg.out_dir)
    return cfg, result, out


class TestConfig:
    def test_defaults_match_protocol(self):
        cfg = SimConfig()
        assert cfg.train_subjects == 200
        assert cfg.test_subjects == 100
        assert cfg.dense_design_size == 90
        assert cfg.noise_sigma == 0.01
        assert cfg.generative.lobe_concentration == 10.0
        assert cfg.generative.direction_concentration == 20.0
        assert cfg.generative.weights == (0.5, 0.5)

    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(TINY_SIM))
        cfg = load_sim_config(path)
        assert cfg.budgets == (3, 5)
        assert cfg.degree == 4

    def test_unsorted_budgets_rejected(self):
        with pytest.raises(ValidationError):
            sim_config_from_dict({**TINY_SIM, "budgets": [5, 3]})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            sim_config_from_dict({**TINY_SIM, "typo_key": 1})

    def test_budget_above_candidates_rejected(self):
        with pytest.raises(ValidationError):
            sim_config_from_dict({**TINY_SIM, "budgets": [100]})

    @pytest.mark.parametrize("size", [9, 12])
    def test_peak_grid_bound_is_the_detectors(self, size):
        # any grid with a point beyond each point's 8 neighbours is valid;
        # the "peak grid of 8 points" row of MALFORMED_INPUTS exits 2
        assert sim_config_from_dict({**TINY_SIM, "peak_grid_size": size}).peak_grid_size == size

    def test_shipped_protocol_config_is_the_default(self):
        path = Path(__file__).resolve().parents[1] / "configs" / "protocol.yaml"
        assert load_sim_config(path) == SimConfig()


class TestRunner:
    def test_csv_schema_golden(self, tiny_results):
        _, result, out = tiny_results
        text = (out / "metrics.csv").read_text()
        header = text.splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert header == "budget,method,mise,pfp,peak_match_rate,ea,n_test,seed"
        assert len(text.splitlines()) == 1 + 2 * len(result.config["budgets"])

    def test_one_row_per_budget_method(self, tiny_results):
        _, result, _ = tiny_results
        keys = {(r["budget"], r["method"]) for r in result.rows}
        assert len(keys) == len(result.rows)
        assert {m for _, m in keys} == {"cond-greedy", "shls-esr"}

    def test_byte_identical_reruns(self, tiny_results):
        cfg, result, _ = tiny_results
        again = run_simulation(cfg)
        assert metrics_csv_text(result.rows) == metrics_csv_text(again.rows)

    def test_design_files_written(self, tiny_results):
        cfg, result, out = tiny_results
        for (budget, method) in result.designs:
            path = out / "designs" / f"{method}_{budget:03d}.txt"
            assert path.exists()
            rows = np.loadtxt(path)
            assert rows.reshape(-1, 3).shape == (budget, 3)

    def test_report_has_objective_histories(self, tiny_results):
        # one greedy history, the largest budget's, and the stage laps
        _, result, out = tiny_results
        report = json.loads((out / "report.json").read_text())
        hist = report["greedy_objective_history"]
        assert "greedy_objective_histories" not in report
        assert hist == result.objective_history
        assert len(hist) == result.config["budgets"][-1]
        assert np.all(np.diff(hist) >= -1e-12)
        assert report["stage_seconds"] == result.stage_seconds
        assert report["elapsed_seconds"] == result.elapsed_seconds

    def test_every_stage_timed(self, tiny_results):
        _, result, _ = tiny_results
        stages = ["cohort", "dense_esr", "prior_fit", "peaks", "greedy", "baseline_esr", "observe", "fit"]
        for kind in ("cpu", "wall"):
            assert list(result.stage_seconds[kind]) == stages
            assert all(seconds >= 0.0 for seconds in result.stage_seconds[kind].values())

    def test_laps_cover_the_run(self, tiny_results):
        # the wall laps sum to elapsed_seconds, and the CPU laps leave out
        # next to nothing of the call's own CPU time (a wall bound from
        # below would depend on the host's scheduling)
        cfg, _, _ = tiny_results
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = run_simulation(cfg)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        assert result.elapsed_seconds == sum(result.stage_seconds["wall"].values())
        assert 0.0 < result.elapsed_seconds <= wall
        assert 0.95 * cpu <= sum(result.stage_seconds["cpu"].values()) <= cpu

    def test_one_greedy_run_sliced_per_budget(self, tmp_path, monkeypatch):
        # each budget's selection and history equal a greedy run of its own,
        # and its history is a prefix of the one the result keeps
        from qsdesign.design import default_candidates, greedy_design

        calls = []

        def recording_greedy(candidates, prior, basis, budget):
            calls.append((prior, basis, budget))
            return greedy_design(candidates, prior, basis, budget)

        monkeypatch.setattr(runner, "greedy_design", recording_greedy)
        cfg = sim_config_from_dict({**TINY_SIM, "budgets": [2, 3, 5, 9, 14], "out_dir": str(tmp_path)})
        result = run_simulation(cfg)
        assert [budget for _, _, budget in calls] == [14]
        prior, basis, _ = calls[0]
        pool = default_candidates(cfg.candidate_count)
        for budget in cfg.budgets:
            alone = greedy_design(pool, prior, basis, budget)
            assert result.designs[(budget, "cond-greedy")].tobytes() == pool.points[alone.selected].tobytes()
            assert np.array(result.objective_history[:budget]).tobytes() == alone.objective_history.tobytes()
        assert len(result.objective_history) == cfg.budgets[-1]


class TestCliCommands:
    def test_simulate_exit_codes(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump({**TINY_SIM, "test_subjects": 3, "train_subjects": 10}))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "metrics.csv").exists()

    def test_simulate_bad_config_exit_2(self, tmp_path):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text("budgets: [9, 3]\n")
        assert main(["simulate", "--config", str(cfg_path)]) == 2

    def test_simulate_missing_config_exit_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_esr_writes_table(self, tmp_path, capsys):
        assert main(["esr", "--count", "6", "--seed", "2", "--out", str(tmp_path)]) == 0
        table = np.loadtxt(tmp_path / "esr_006.txt")
        assert table.shape == (6, 3)
        assert "final energy" in capsys.readouterr().out

    def test_esr_too_small_exit_2(self, tmp_path):
        assert main(["esr", "--count", "1", "--out", str(tmp_path)]) == 2

    def test_prior_build_and_design_and_interp(self, tmp_path, capsys):
        cfg_path = tmp_path / "build.yaml"
        cfg_path.write_text(yaml.safe_dump(TINY_BUILD))
        out = tmp_path / "field"
        assert main(["prior-build", "--config", str(cfg_path), "--out", str(out)]) == 0
        field_path = out / "prior_field.qpf"
        field = load_prior_field(field_path)
        assert len(field) == 2

        design_out = tmp_path / "design"
        assert (
            main(
                [
                    "design",
                    "--prior",
                    str(field_path),
                    "--budget",
                    "4",
                    "--candidates",
                    "50",
                    "--out",
                    str(design_out),
                ]
            )
            == 0
        )
        table = np.loadtxt(design_out / "design_single_004.txt")
        assert table.shape == (4, 3)
        report = json.loads((design_out / "design_single_004.json").read_text())
        assert len(report["objective_per_step"]) == 4
        assert np.all(np.diff(report["objective_per_step"]) >= -1e-12)
        assert 0 < report["bound_certificate"]["factor"] < 1

        region_out = tmp_path / "region"
        assert (
            main(
                [
                    "design",
                    "--prior",
                    str(field_path),
                    "--budget",
                    "4",
                    "--candidates",
                    "50",
                    "--mode",
                    "region",
                    "--out",
                    str(region_out),
                ]
            )
            == 0
        )
        assert (region_out / "design_region_004.txt").exists()

        interp_out = tmp_path / "interp"
        assert (
            main(
                [
                    "prior-interp",
                    "--prior",
                    str(field_path),
                    "--query",
                    "0.5,0,0",
                    "--out",
                    str(interp_out),
                ]
            )
            == 0
        )
        blended = load_prior_field(interp_out / "prior_interp.qpf")
        assert len(blended) == 1

    def test_region_single_voxel_matches_single_mode(self, tmp_path):
        # single mode runs as the one-voxel region: its table and report
        # equal greedy_design's and greedy_bound's at that voxel, bit for bit
        from qsdesign.design import default_candidates, gradient_table, greedy_bound, greedy_design
        from qsdesign.prior import PriorField, save_prior_field
        from qsdesign.sphere import ShBasis

        cfg_path = tmp_path / "build.yaml"
        cfg_path.write_text(yaml.safe_dump(TINY_BUILD))  # a 2x1x1 field
        out = tmp_path / "field"
        assert main(["prior-build", "--config", str(cfg_path), "--out", str(out)]) == 0
        field = load_prior_field(out / "prior_field.qpf")
        one_voxel = tmp_path / "one.qpf"
        save_prior_field(PriorField((1, 1, 1), {(0, 0, 0): field.priors[(0, 0, 0)]}, 4, field.rank_rule), one_voxel)
        basis, pool = ShBasis(field.max_degree), default_candidates(40)
        runs = [
            ((0, 0, 0), out / "prior_field.qpf", "single", []),
            ((1, 0, 0), out / "prior_field.qpf", "single", ["--voxel", "1,0,0"]),
            ((0, 0, 0), one_voxel, "region", []),
        ]
        for n, (index, path, mode, extra) in enumerate(runs):
            argv = ["design", "--prior", str(path), "--budget", "5", "--candidates", "40", "--mode", mode]
            assert main([*argv, *extra, "--out", str(tmp_path / str(n))]) == 0
            want = greedy_design(pool, field.priors[index], basis, 5)
            table = (tmp_path / str(n) / f"design_{mode}_005.txt").read_text()
            assert table == gradient_table(pool.points[want.selected])
            report = json.loads((tmp_path / str(n) / f"design_{mode}_005.json").read_text())
            assert report["selected_indices"] == want.selected
            assert report["objective_per_step"] == want.objective_history.tolist()
            want_bound = greedy_bound(field.priors[index], pool, basis, 5, 5)
            assert report["bound_certificate"] == dataclasses.asdict(want_bound)

    def test_region_certificate_is_min_over_voxels(self, tmp_path):
        from qsdesign.design import default_candidates, greedy_bound
        from qsdesign.prior import PriorField, RankRule, save_prior_field
        from qsdesign.sphere import ShBasis

        from conftest import random_prior

        basis, rng = ShBasis(4), np.random.default_rng(11)
        field = PriorField((2, 2, 1), {}, 4, RankRule("fraction", 0.9))
        for index in np.ndindex(2, 2, 1):
            field.add(index, random_prior(basis, rng, noise_variance=rng.uniform(0.005, 0.05)))
        path = tmp_path / "field.qpf"
        save_prior_field(field, path)
        argv = ["design", "--prior", str(path), "--budget", "6", "--candidates", "40", "--mode", "region"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "design_region_006.json").read_text())

        loaded, pool = load_prior_field(path), default_candidates(40)
        want = min(
            (greedy_bound(loaded.priors[k], pool, basis, 6, 6) for k in sorted(loaded.priors)),
            key=lambda cert: cert.factor,
        )
        assert report["bound_certificate"] == dataclasses.asdict(want)

    def test_design_missing_prior_exit_2(self, tmp_path):
        assert main(["design", "--prior", str(tmp_path / "no.qpf"), "--budget", "3"]) == 2

    def test_design_budget_one_matches_argmax(self, tmp_path):
        from qsdesign.design import default_candidates, greedy_design
        from qsdesign.sphere import ShBasis

        cfg_path = tmp_path / "build.yaml"
        cfg_path.write_text(yaml.safe_dump({**TINY_BUILD, "grid_shape": [1, 1, 1]}))
        out = tmp_path / "field"
        assert main(["prior-build", "--config", str(cfg_path), "--out", str(out)]) == 0
        field = load_prior_field(out / "prior_field.qpf")
        assert (
            main(
                [
                    "design",
                    "--prior",
                    str(out / "prior_field.qpf"),
                    "--budget",
                    "1",
                    "--candidates",
                    "40",
                    "--out",
                    str(tmp_path / "d1"),
                ]
            )
            == 0
        )
        line = np.loadtxt(tmp_path / "d1" / "design_single_001.txt")
        basis = ShBasis(field.max_degree)
        pool = default_candidates(40)
        expected = greedy_design(pool, field.priors[(0, 0, 0)], basis, 1)
        assert np.allclose(line, pool.points[expected.selected[0]], atol=1e-8)

    def test_degenerate_prior_build_exit_3(self, tmp_path):
        # identical cohort rows give a zero covariance: rank selection fails
        csv_path = tmp_path / "flat.csv"
        header = ",".join(f"c{i}" for i in range(15))
        row = ",".join(["0.1"] * 15)
        csv_path.write_text(header + "\n" + "\n".join([row] * 5) + "\n")
        cfg_path = tmp_path / "build.yaml"
        cfg_path.write_text(yaml.safe_dump({"degree": 4, "cohort_csv": str(csv_path)}))
        assert main(["prior-build", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3

    def test_prior_build_from_cohort_csv(self, tmp_path):
        from qsdesign.sim import GenerativeConfig, cohort_to_csv, generate_cohort
        from qsdesign.sphere import ShBasis

        basis = ShBasis(4)
        cohort = generate_cohort(basis, GenerativeConfig(), 12, seed=5)
        csv_path = tmp_path / "cohort.csv"
        cohort_to_csv(cohort, csv_path)
        cfg_path = tmp_path / "build.yaml"
        cfg_path.write_text(
            yaml.safe_dump(
                {
                    "degree": 4,
                    "cohort_csv": str(csv_path),
                    "noise_variance": 1e-4,
                    "rank_rule": {"kind": "fraction", "value": 0.9},
                }
            )
        )
        out = tmp_path / "field"
        assert main(["prior-build", "--config", str(cfg_path), "--out", str(out)]) == 0
        field = load_prior_field(out / "prior_field.qpf")
        assert len(field) == 1
        prior = field.priors[(0, 0, 0)]
        assert prior.dimension == basis.dimension
        assert prior.noise_variance == pytest.approx(1e-4)


class TestDenseRegimeParity:
    def test_budget_90_within_2x(self):
        # dense-data sanity: at 90 samples the two pipelines land within a
        # factor of two of each other in MISE
        cfg = SimConfig(seed=101, budgets=(90,))
        rows = {r["method"]: r["mise"] for r in run_simulation(cfg).rows}
        ratio = max(rows.values()) / min(rows.values())
        assert ratio < 2.0


class TestThreading:
    def test_threaded_run_matches_serial(self):
        base = dict(TINY_SIM)
        cfg1 = sim_config_from_dict({**base, "threads": 1})
        cfg2 = sim_config_from_dict({**base, "threads": 4})
        assert metrics_csv_text(run_simulation(cfg1).rows) == metrics_csv_text(
            run_simulation(cfg2).rows
        )


def _raw_config(tmp_path, command, text):
    """`command` on a configuration written as raw text (or bytes), which
    can hold what `yaml.safe_dump` cannot write, such as a repeated key."""
    path = tmp_path / "bad.yaml"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return [command, "--config", str(path), "--out", str(tmp_path / "o")]


def _write_config(tmp_path, **changes):
    return _raw_config(tmp_path, "simulate", yaml.safe_dump({**TINY_SIM, **changes}))


def _field_file(tmp_path):
    """A valid one-voxel degree-2 field at tmp_path / "field.qpf". Byte layout:
    magic 0-8, header 8-44 (J at 8, degree at 12, rank kind code at 16), then
    the voxel: index 44-56, noise variance 56-64, mean 64-112, covariance
    lower triangle 112-280."""
    from qsdesign.prior import PriorField, RankRule, save_prior_field
    from qsdesign.sphere import ShBasis

    from conftest import random_prior

    field = PriorField((1, 1, 1), {}, 2, RankRule("fraction", 0.9))
    field.add((0, 0, 0), random_prior(ShBasis(2), np.random.default_rng(0)))
    path = tmp_path / "field.qpf"
    save_prior_field(field, path)
    assert len(path.read_bytes()) == 8 + 36 + 12 + 8 + 8 * 6 + 8 * 21
    return path


def _empty_field(tmp_path, j):
    """design on a degree-2 field of no voxels whose header says dimension `j`."""
    from qsdesign.prior import PriorField, save_prior_field

    path = tmp_path / "field.qpf"
    save_prior_field(PriorField((1, 1, 1), {}, 2), path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 8, j)
    path.write_bytes(bytes(data))
    return ["design", "--prior", str(path), "--budget", "2", "--out", str(tmp_path / "o")]


def _interp(path, query="0,0,0"):
    return ["prior-interp", "--prior", str(path), "--query", query, "--out", str(path.parent / "o")]


def _truncated_field(tmp_path, size):
    path = _field_file(tmp_path)
    path.write_bytes(path.read_bytes()[:size])
    return _interp(path)


def _patched_field(tmp_path, offset, fmt, value):
    """prior-interp on the one-voxel field with `value` packed at `offset`."""
    path = _field_file(tmp_path)
    data = bytearray(path.read_bytes())
    struct.pack_into(fmt, data, offset, value)
    path.write_bytes(bytes(data))
    return _interp(path)


def _design(tmp_path, *extra, budget="2"):
    path = _field_file(tmp_path)
    return ["design", "--prior", str(path), "--budget", budget, "--candidates", "40",
            *extra, "--out", str(tmp_path / "o")]


def _design_voxel(tmp_path, voxel):
    return _design(tmp_path, "--voxel", voxel)


def _prior_build_config(tmp_path, **changes):
    """prior-build on a degree-4 build configuration with `changes`."""
    cfg_path = tmp_path / "build.yaml"
    cfg_path.write_text(yaml.safe_dump({"degree": 4, **changes}))
    return ["prior-build", "--config", str(cfg_path), "--out", str(tmp_path / "o")]


def _bad_cohort_csv(tmp_path, line, **changes):
    """prior-build on a degree-4 cohort CSV (15 columns) whose second row is
    `line`; with `line` None the CSV is not written at all."""
    csv_path = tmp_path / "cohort.csv"
    header = ",".join(f"c{i}" for i in range(15))
    good = ",".join(["0.5"] * 15)
    if line is not None:
        csv_path.write_text(f"{header}\n{good}\n{line}\n{good}\n")
    return _prior_build_config(tmp_path, cohort_csv=str(csv_path), **changes)


def _out_is_file(tmp_path, argv):
    """`argv`, whose --out path tmp_path / "o" is taken by a file."""
    (tmp_path / "o").write_text("")
    return argv


def _taken(path, argv, kind):
    """`argv`, with `path` taken by an empty file or directory (`kind`)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.mkdir() if kind == "directory" else path.write_text("")
    return argv


def _simulate_into(tmp_path, out):
    """simulate on the tiny configuration, writing to `out`."""
    return [*_write_config(tmp_path)[:-1], str(out)]


# (case, argv builder, first line of stderr; {path} is the .qpf path, {csv}
# the cohort CSV path, {cfg} the raw configuration path, {out} the --out path)
MALFORMED_INPUTS = [
    ("scalar budgets", lambda t: _write_config(t, budgets=5),
     "error: budgets must be a list of positive integers, got 5"),
    ("nan noise_sigma", lambda t: _write_config(t, noise_sigma=float("nan")),
     "error: noise sigma must be finite, got nan"),
    ("nan direction", lambda t: _write_config(
        t, generative={"mean_directions": [[float("nan"), 0.0, 1.0], [1.0, 0.0, 0.0]]}),
     "error: mean direction must be finite unit vectors (worst squared-norm deviation nan)"),
    ("qpf cut in header", lambda t: _truncated_field(t, 10),
     "error: {path} is truncated: needs 36 more bytes at offset 8, has 2"),
    ("qpf cut at 40 bytes", lambda t: _truncated_field(t, 40),
     "error: {path} is truncated: needs 36 more bytes at offset 8, has 32"),
    ("qpf cut in body", lambda t: _truncated_field(t, 8 + 36 + 12 + 8 + 8 * 6 + 100),
     "error: {path} is truncated: needs 168 more bytes at offset 112, has 100"),
    ("rank_rule value not a number", lambda t: _write_config(t, rank_rule={"kind": "fixed", "value": "abc"}),
     "error: rank_rule value must be a number, got 'abc'"),
    ("budget not an integer", lambda t: _write_config(t, budgets=["a", 5]),
     "error: budgets must be a list of positive integers, got ['a', 5]"),
    ("ragged cohort csv", lambda t: _bad_cohort_csv(t, ",".join(["0.5"] * 14)),
     "error: {csv} line 3: 14 cells, header has 15"),
    ("nan in cohort csv", lambda t: _bad_cohort_csv(t, ",".join(["0.5"] * 14 + ["nan"])),
     "error: {csv} line 3: non-finite value"),
    ("text in cohort csv", lambda t: _bad_cohort_csv(t, ",".join(["0.5"] * 14 + ["x"])),
     "error: {csv} line 3: could not convert string to float: 'x'"),
    ("missing cohort csv", lambda t: _bad_cohort_csv(t, None),
     "error: cannot read cohort CSV {csv}: [Errno 2] No such file or directory: '{csv}'"),
    ("infinite noise_variance", lambda t: _bad_cohort_csv(t, ",".join(["0.25"] * 15), noise_variance=float("inf")),
     "error: noise variance must be finite and positive, got inf"),
    ("text grid_shape", lambda t: _prior_build_config(t, grid_shape="abc"),
     "error: grid_shape must be a list of numbers, got 'abc'"),
    ("scalar grid_shape", lambda t: _prior_build_config(t, grid_shape=5),
     "error: grid_shape must be a list of numbers, got 5"),
    ("text rotation_per_voxel_degrees", lambda t: _prior_build_config(t, rotation_per_voxel_degrees="abc"),
     "error: rotation_per_voxel_degrees must be a number, got 'abc'"),
    ("text noise_variance", lambda t: _prior_build_config(t, noise_variance="abc"),
     "error: noise_variance must be a number, got 'abc'"),
    ("text weights", lambda t: _write_config(t, generative={"weights": ["a", "b"]}),
     "error: weights must be a list of numbers, got ['a', 'b']"),
    ("scalar weights", lambda t: _write_config(t, generative={"weights": 0.5}),
     "error: weights must be a list of numbers, got 0.5"),
    ("scalar mean_directions", lambda t: _write_config(t, generative={"mean_directions": 5}),
     "error: mean_directions must be a list of number lists, got 5"),
    ("text lobe_concentration", lambda t: _write_config(t, generative={"lobe_concentration": "abc"}),
     "error: lobe_concentration must be a number, got 'abc'"),
    ("fractional train_subjects", lambda t: _write_config(t, train_subjects=6.5),
     "error: train_subjects must be an integer, got 6.5"),
    ("fractional test_subjects", lambda t: _write_config(t, test_subjects=3.5),
     "error: test_subjects must be an integer, got 3.5"),
    ("fractional dense_design_size", lambda t: _write_config(t, dense_design_size=20.5),
     "error: dense_design_size must be an integer, got 20.5"),
    ("fractional peak_grid_size", lambda t: _write_config(t, peak_grid_size=256.5),
     "error: peak_grid_size must be an integer, got 256.5"),
    ("fractional seed", lambda t: _write_config(t, seed=3.5),
     "error: seed must be an integer, got 3.5"),
    ("ragged budgets", lambda t: _write_config(t, budgets=[[1], [2, 3]]),
     "error: budgets must be a list of positive integers, got [[1], [2, 3]]"),
    ("fractional candidate_count", lambda t: _write_config(t, candidate_count=41.5),
     "error: candidate_count must be an integer, got 41.5"),
    ("fractional grid_shape", lambda t: _prior_build_config(
        t, grid_shape=[1.7, 1, 1], train_subjects=8, dense_design_size=20),
     "error: grid_shape entry must be an integer, got 1.7"),
    ("text noise_sigma", lambda t: _write_config(t, noise_sigma="abc"),
     "error: noise_sigma must be a number, got 'abc'"),
    ("numeric out_dir", lambda t: _write_config(t, out_dir=5)[:-2],  # no --out, so out_dir is used
     "error: out_dir must be a string, got 5"),
    ("text query", lambda t: _interp(_field_file(t), "a,b,c"),
     "error: expected three comma-separated numbers, got 'a,b,c'"),
    ("nan query", lambda t: _interp(_field_file(t), "nan,0,0"),
     "error: query [nan, 0.0, 0.0] is not finite"),
    ("text voxel", lambda t: _design_voxel(t, "a,b,c"),
     "error: expected three comma-separated integers, got 'a,b,c'"),
    ("fractional voxel", lambda t: _design_voxel(t, "0.5,0,0"),
     "error: expected three comma-separated integers, got '0.5,0,0'"),
    ("voxel in region mode", lambda t: _design(t, "--mode", "region", "--voxel", "5,5,5"),
     "error: --voxel applies to --mode single only, not --mode region"),
    ("zero budget", lambda t: _design(t, budget="0"),
     "error: --budget must be >= 1, got 0"),
    ("negative budget", lambda t: _design(t, budget="-1"),
     "error: --budget must be >= 1, got -1"),
    ("zero candidates", lambda t: _design(t, "--candidates", "0"),
     "error: --candidates must be >= 1, got 0"),
    ("negative candidates", lambda t: _design(t, "--candidates", "-3"),
     "error: --candidates must be >= 1, got -3"),
    ("qpf nan mean", lambda t: _patched_field(t, 64, "<d", float("nan")),
     "error: prior mean, covariance and eigenpairs must be finite"),
    ("qpf inf mean", lambda t: _patched_field(t, 72, "<d", float("inf")),
     "error: prior mean, covariance and eigenpairs must be finite"),
    ("qpf nan covariance", lambda t: _patched_field(t, 120, "<d", float("nan")),
     "error: covariance must be finite"),
    ("qpf dimension not the degree's", lambda t: _patched_field(t, 12, "<I", 4),
     "error: {path} header is inconsistent: dimension 6, basis degree 4"),
    ("qpf unknown rank kind", lambda t: _patched_field(t, 16, "<I", 2),
     "error: {path} has unknown rank-rule kind code 2"),
    ("qpf empty field", lambda t: _empty_field(t, 0),  # loads: J = 0 is right for no voxels
     "error: {path} contains no voxel priors"),
    ("qpf empty field with dimension 6", lambda t: _empty_field(t, 6),
     "error: {path} header is inconsistent: dimension 6, basis degree 2"),
    ("qpf empty field with dimension 5", lambda t: _empty_field(t, 5),
     "error: {path} header is inconsistent: dimension 5, basis degree 2"),
    ("repeated simulate key", lambda t: _raw_config(
        t, "simulate", "seed: 7\nseed: 8\n" + yaml.safe_dump({k: v for k, v in TINY_SIM.items() if k != "seed"})),
     "error: configuration {cfg} line 2: repeated key 'seed'"),
    ("repeated prior-build key", lambda t: _raw_config(
        t, "prior-build", "degree: 4\ntrain_subjects: 8\ndense_design_size: 20\ndegree: 2\n"),
     "error: configuration {cfg} line 4: repeated key 'degree'"),
    ("repeated nested key", lambda t: _raw_config(
        t, "simulate", "generative:\n  weights: [0.5, 0.5]\n  weights: [0.2, 0.8]\n" + yaml.safe_dump(TINY_SIM)),
     "error: configuration {cfg} line 3: repeated key 'weights'"),
    ("non-scalar key", lambda t: _raw_config(t, "simulate", "? [1, 2]\n: 3\n"),
     "error: configuration {cfg} is not valid YAML: while constructing a mapping"),
    ("undecodable configuration", lambda t: _raw_config(t, "simulate", b"seed: 7\n\xff\n"),
     "error: configuration {cfg} is not valid YAML: unacceptable character #x00ff: invalid start byte"),
    ("list configuration", lambda t: _raw_config(t, "prior-build", "[]\n"),
     "error: configuration {cfg} must be a mapping, got list"),
    ("negative esr seed", lambda t: ["esr", "--count", "6", "--seed", "-1", "--out", str(t / "o")],
     "error: seed must be non-negative, got -1"),
    ("list cohort_csv", lambda t: _prior_build_config(t, cohort_csv=["a.csv"]),
     "error: cohort_csv must be a string, got ['a.csv']"),
    ("float cohort_csv", lambda t: _prior_build_config(t, cohort_csv=7.5),
     "error: cohort_csv must be a string, got 7.5"),
    ("infinite rotation_per_voxel_degrees", lambda t: _prior_build_config(
        t, rotation_per_voxel_degrees=float("inf"), train_subjects=8, dense_design_size=20),
     "error: rotation_per_voxel_degrees must be finite, got inf"),
    ("esr --out naming a file", lambda t: _out_is_file(t, ["esr", "--count", "6", "--out", str(t / "o")]),
     "error: cannot use output directory {out}: File exists"),
    ("simulate --out naming a file", lambda t: _out_is_file(t, _write_config(t)),
     "error: cannot use output directory {out}: File exists"),
    ("simulate designs/ taken by a file", lambda t: _taken(t / "o" / "designs", _write_config(t), "file"),
     "error: cannot use output directory {out}/designs: File exists"),
    # --out is a subdirectory of o, so o/metrics.csv stays absent
    ("simulate metrics.csv taken by a directory", lambda t: _taken(
        t / "o" / "sim" / "metrics.csv", _simulate_into(t, t / "o" / "sim"), "directory"),
     "error: cannot write {out}/sim/metrics.csv: Is a directory"),
    ("esr table taken by a directory", lambda t: _taken(
        t / "o" / "esr_010.txt", ["esr", "--count", "10", "--out", str(t / "o")], "directory"),
     "error: cannot write {out}/esr_010.txt: Is a directory"),
    ("simulate report.json taken by a directory", lambda t: _taken(
        t / "o" / "report.json", _write_config(t), "directory"),
     "error: cannot write {out}/report.json: Is a directory"),
    ("simulate design table taken by a directory", lambda t: _taken(
        t / "o" / "designs" / "shls-esr_005.txt", _write_config(t), "directory"),
     "error: cannot write {out}/designs/shls-esr_005.txt: Is a directory"),
    ("prior-build sidecar taken by a directory", lambda t: _taken(
        t / "o" / "prior_field.qpf.json", _prior_build_config(t, train_subjects=8, dense_design_size=20), "directory"),
     "error: cannot write {out}/prior_field.qpf.json: Is a directory"),
    ("prior-interp sidecar taken by a directory", lambda t: _taken(
        t / "o" / "prior_interp.qpf.json", _interp(_field_file(t)), "directory"),
     "error: cannot write {out}/prior_interp.qpf.json: Is a directory"),
    ("design report taken by a directory", lambda t: _taken(
        t / "o" / "design_single_002.json", _design(t), "directory"),
     "error: cannot write {out}/design_single_002.json: Is a directory"),
    ("gcv_grid in simulate config", lambda t: _write_config(t, gcv_grid={"min": 1e-7, "max": 0.1, "count": 20}),
     "error: unknown configuration keys: ['gcv_grid']"),
    ("peak_threshold in simulate config", lambda t: _write_config(t, peak_threshold=0.3),
     "error: unknown configuration keys: ['peak_threshold']"),
    ("gcv_grid in prior-build config", lambda t: _prior_build_config(
        t, gcv_grid={"min": 1e-7, "max": 0.1, "count": 20}, train_subjects=8, dense_design_size=20),
     "error: unknown configuration keys: ['gcv_grid']"),
    ("peak grid of 8 points", lambda t: _write_config(t, peak_grid_size=8),
     "error: detection grid needs at least 9 points, got 8"),
    ("peak_merge_degrees in generative", lambda t: _write_config(t, generative={"peak_merge_degrees": 15.0}),
     "error: unknown generative keys: ['peak_merge_degrees']"),
    ("out_dir in prior-build config", lambda t: _prior_build_config(
        t, out_dir="elsewhere", train_subjects=8, dense_design_size=20),
     "error: prior-build does not use configuration keys ['out_dir']"),
    ("noise_variance without cohort_csv", lambda t: _prior_build_config(
        t, noise_variance=0.5, train_subjects=8, dense_design_size=20),
     "error: prior-build without cohort_csv does not use configuration keys ['noise_variance']"),
    ("non-string simulate key", lambda t: _raw_config(t, "simulate", "1: 2\nfoo: 3\n"),
     "error: unknown configuration keys: [1, 'foo']"),
    ("non-string prior-build key", lambda t: _raw_config(t, "prior-build", "1: 2\nfoo: 3\n"),
     "error: unknown configuration keys: [1, 'foo']"),
    ("non-string generative key", lambda t: _write_config(t, generative={1: 2, "x": 3}),
     "error: unknown generative keys: [1, 'x']"),
    ("misspelt rank_rule key", lambda t: _write_config(t, rank_rule={"kind": "fraction", "value": 0.9, "valeu": 0.99}),
     "error: unknown rank_rule keys: ['valeu']"),
    ("synthetic keys with cohort_csv", lambda t: _bad_cohort_csv(
        t, ",".join(["0.25"] * 15), grid_shape=[2, 2, 2], train_subjects=3, noise_sigma=0.01),
     "error: prior-build with cohort_csv does not use configuration keys "
     "['grid_shape', 'noise_sigma', 'train_subjects']"),
]


def _files_under(root):
    return sorted(p for p in root.rglob("*") if p.is_file()) if root.is_dir() else []


@pytest.mark.parametrize("case,argv_for,first_line", MALFORMED_INPUTS, ids=[c[0] for c in MALFORMED_INPUTS])
def test_malformed_input_exits_2(case, argv_for, first_line, tmp_path, capsys):
    argv = argv_for(tmp_path)
    files_before = _files_under(tmp_path / "o")
    assert main(argv) == 2
    err = capsys.readouterr().err
    expected = first_line.format(
        path=tmp_path / "field.qpf", csv=tmp_path / "cohort.csv", cfg=tmp_path / "bad.yaml", out=tmp_path / "o"
    )
    assert err.splitlines()[0] == expected
    assert not (tmp_path / "o" / "metrics.csv").exists()
    assert _files_under(tmp_path / "o") == files_before  # nothing written


# (command, argv builder with one output taken by a directory, the first
# step of the command's work, as cli calls it)
TAKEN_OUTPUTS = [
    ("simulate", lambda t: _taken(t / "o" / "report.json", _write_config(t), "directory"), "run_simulation"),
    ("esr", lambda t: _taken(t / "o" / "esr_010.txt", ["esr", "--count", "10", "--out", str(t / "o")], "directory"),
     "esr_design"),
    ("design", lambda t: _taken(t / "o" / "design_single_002.json", _design(t), "directory"),
     "greedy_design_region"),
    ("prior-build", lambda t: _taken(
        t / "o" / "prior_field.qpf.json", _prior_build_config(t, train_subjects=8, dense_design_size=20), "directory"),
     "esr_design"),
    ("prior-interp", lambda t: _taken(t / "o" / "prior_interp.qpf.json", _interp(_field_file(t)), "directory"),
     "interpolate_prior"),
]


@pytest.mark.parametrize("command,argv_for,work", TAKEN_OUTPUTS, ids=[c[0] for c in TAKEN_OUTPUTS])
def test_taken_output_fails_before_any_work(command, argv_for, work, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} ran {work} before checking its outputs")

    argv = argv_for(tmp_path)
    monkeypatch.setattr(cli, work, refuse)
    assert main(argv) == 2


@pytest.mark.parametrize("argv_for", [
    lambda t: _write_config(t, rank_rule={"kind": "fixed", "value": 100}),
    lambda t: _prior_build_config(t, rank_rule={"kind": "fixed", "value": 100}, train_subjects=8, dense_design_size=20),
], ids=["simulate", "prior-build"])
def test_fixed_rank_above_dimension_fails_before_any_work(argv_for, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("esr_design ran before the rank rule was checked")

    monkeypatch.setattr(runner, "esr_design", refuse)
    monkeypatch.setattr(cli, "esr_design", refuse)
    assert main(argv_for(tmp_path)) == 2
    assert capsys.readouterr().err.splitlines()[0] == "error: fixed rank 100 exceeds the basis dimension 15 at degree 4"


@pytest.mark.parametrize("argv_for", [lambda t: _design_voxel(t, "0,0,0"), lambda t: _interp(_field_file(t))],
                         ids=["design", "prior-interp"])
def test_seed_flag_rejected(argv_for, tmp_path):
    # both subcommands are deterministic, so they take no --seed
    with pytest.raises(SystemExit) as exc:
        main([*argv_for(tmp_path), "--seed", "3"])
    assert exc.value.code == 2
