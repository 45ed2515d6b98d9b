import ctypes
import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from qsdesign import cli, estimator, runner
from qsdesign.cli import main
from qsdesign.config import SimConfig, load_sim_config, sim_config_from_dict
from qsdesign.design import coulomb_energy, default_candidates, esr_design, greedy_bound
from qsdesign.errors import ValidationError
from qsdesign.prior import load_prior_field
from qsdesign.runner import CSV_COLUMNS, metrics_csv_text, run_simulation, write_outputs
from qsdesign.sim import generate_cohort
from qsdesign.sphere import ShBasis

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

    def test_readme_quickstart_runs(self):
        # keeps every library call the README documents in the package
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        code = text.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(code, "README.md quickstart", "exec"), {})


class TestRunner:
    def test_csv_schema_golden(self, tiny_results):
        _, result, out = tiny_results
        text = (out / "metrics.csv").read_text()
        header = text.splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert header == "budget,method,mise,pfp,peak_match_rate,ea,n_test,seed"
        assert len(text.splitlines()) == 1 + 2 * len(result.report["config"]["budgets"])

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
        assert len(hist) == report["config"]["budgets"][-1]
        assert np.all(np.diff(hist) >= -1e-12)

    def test_report_has_prior_rank_and_explained_variance(self, tiny_results):
        cfg, _, out = tiny_results
        report = json.loads((out / "report.json").read_text())
        assert report["prior_rank"] >= 1
        assert cfg.rank_rule.value - 1e-12 <= report["prior_explained_variance"] <= 1.0

    def test_report_has_esr_telemetry(self, tiny_results):
        cfg, result, out = tiny_results
        report = json.loads((out / "report.json").read_text())
        requests = [(cfg.dense_design_size, cfg.seed), *((b, cfg.seed + 1 + b) for b in cfg.budgets)]
        assert [(e["count"], e["seed"]) for e in report["esr_designs"]] == requests
        for entry in report["esr_designs"]:
            assert 1 <= entry["accepted"] <= entry["steps"] <= 2000
            assert entry["stop"] in ("step floor", "step cap")
        for budget, entry in zip(cfg.budgets, report["esr_designs"][1:]):
            assert entry["energy"] == coulomb_energy(result.designs[(budget, "shls-esr")])

    def test_report_has_gcv_lambda_counts(self, tiny_results):
        # the prior fit over the training cohort, then each shls-esr budget's over the test cohort
        cfg, _, out = tiny_results
        report = json.loads((out / "report.json").read_text())
        assert report["gcv"]["grid"] == estimator.DEFAULT_GCV_GRID.tolist()
        fits = report["gcv"]["fits"]
        assert [{key: fit[key] for key in fit if key not in ("counts", "edge_hits")} for fit in fits] == [
            {"fit": "prior"}, *({"fit": "shls-esr", "budget": b} for b in cfg.budgets)]
        subjects = [cfg.train_subjects, *[cfg.test_subjects] * len(cfg.budgets)]
        for fit, count in zip(fits, subjects):
            assert len(fit["counts"]) == len(estimator.DEFAULT_GCV_GRID) and sum(fit["counts"]) == count
            assert fit["edge_hits"] == fit["counts"][0] + fit["counts"][-1]

    def test_report_has_a_bound_certificate_per_budget(self, tiny_results):
        cfg, _, out = tiny_results
        report = json.loads((out / "report.json").read_text())
        # the run's prior, rebuilt as run_simulation builds it
        basis = ShBasis(cfg.degree)
        train = generate_cohort(basis, cfg.generative, cfg.train_subjects, np.random.SeedSequence((cfg.seed, 1)))
        prior, _ = runner.build_prior_from_cohort(train, esr_design(cfg.dense_design_size, cfg.seed), cfg, "train-noise")
        assert prior.rank == report["prior_rank"]
        pool = default_candidates(cfg.candidate_count)
        assert report["bound_certificates"] == [
            dataclasses.asdict(greedy_bound(prior, pool, basis, b, b)) for b in cfg.budgets]
        for budget, certificate in zip(cfg.budgets, report["bound_certificates"]):
            assert certificate["steps"] == certificate["budget"] == budget
            assert 0.0 < certificate["factor"] <= 1.0

    def test_report_has_the_host_class(self, tiny_results):
        _, _, out = tiny_results
        host = json.loads((out / "report.json").read_text())["host"]
        assert host == estimator.host_class()
        assert set(host) == {"simd_found", "openblas_core", "cholesky"}
        simd = host["simd_found"]
        assert simd is None or all(isinstance(name, str) for name in simd)
        core = host["openblas_core"]
        assert (core is None) == (estimator._numpy_function("scipy_openblas_get_corename64_", ctypes.c_char_p) is None)
        assert core is None or (isinstance(core, str) and core)
        assert host["cholesky"] == (
            "numpy lapack" if estimator._numpy_lapack() is not None else "scipy.linalg fallback")

    def test_host_class_is_null_where_numpy_does_not_say(self, monkeypatch):
        def no_dicts_mode(mode="stdout"):
            raise TypeError("show_config() got an unexpected keyword argument 'mode'")

        monkeypatch.setattr(estimator, "_numpy_function", lambda name, *types: None)
        monkeypatch.setattr(estimator, "_numpy_lapack", lambda: None)
        monkeypatch.setattr(np, "show_config", no_dicts_mode)
        assert estimator.host_class() == {"simd_found": None, "openblas_core": None, "cholesky": "scipy.linalg fallback"}

    def test_report_has_stage_faults_and_peak_rss(self, tiny_results):
        _, _, out = tiny_results
        report = json.loads((out / "report.json").read_text())
        faults = report["stage_minor_faults"]
        assert list(faults) == list(report["stage_seconds"]["cpu"])
        assert all(isinstance(count, int) and count >= 0 for count in faults.values())
        assert report["peak_rss_mb"] > 0

    def test_faults_and_peak_rss_are_null_without_resource(self, tiny_results, monkeypatch):
        cfg, pinned, _ = tiny_results
        monkeypatch.setattr(runner, "resource", None)
        result = run_simulation(cfg)
        assert result.report["stage_minor_faults"] is None and result.report["peak_rss_mb"] is None
        assert metrics_csv_text(result.rows) == metrics_csv_text(pinned.rows)

    def test_every_stage_timed(self, tiny_results):
        _, result, _ = tiny_results
        stages = ["cohort", "esr", "prior_fit", "greedy", "observe", "fit", "peaks"]
        for kind in ("cpu", "wall"):
            assert list(result.report["stage_seconds"][kind]) == stages
            assert all(seconds >= 0.0 for seconds in result.report["stage_seconds"][kind].values())

    def test_laps_cover_the_run(self, tiny_results):
        # the wall laps sum to elapsed_seconds, and the CPU laps leave out
        # next to nothing of the call's own CPU time (a wall bound from
        # below would depend on the host's scheduling)
        cfg, _, _ = tiny_results
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = run_simulation(cfg)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        stage_seconds = result.report["stage_seconds"]
        assert result.report["elapsed_seconds"] == sum(stage_seconds["wall"].values())
        assert 0.0 < result.report["elapsed_seconds"] <= wall
        assert 0.95 * cpu <= sum(stage_seconds["cpu"].values()) <= cpu

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
        history = result.report["greedy_objective_history"]
        for budget in cfg.budgets:
            alone = greedy_design(pool, prior, basis, budget)
            assert result.designs[(budget, "cond-greedy")].tobytes() == pool.points[alone.selected].tobytes()
            assert np.array(history[:budget]).tobytes() == alone.objective_history.tobytes()
        assert len(history) == cfg.budgets[-1]


    def test_greedy_stage_evaluates_the_candidate_basis_twice(self, tmp_path, monkeypatch):
        # once for the greedy design and once for every budget's certificate
        from qsdesign import _kernels

        calls, per_stage = [0], {}
        sh_matrix, lap = _kernels.sh_matrix, runner._LapClock.lap

        def counted(*args, **kwargs):
            calls[0] += 1
            return sh_matrix(*args, **kwargs)

        def counting_lap(clock, stage):
            per_stage[stage] = per_stage.get(stage, 0) + calls[0]
            calls[0] = 0
            lap(clock, stage)

        monkeypatch.setattr(_kernels, "sh_matrix", counted)
        monkeypatch.setattr(runner._LapClock, "lap", counting_lap)
        cfg = sim_config_from_dict({**TINY_SIM, "budgets": [2, 3, 5, 9, 14], "out_dir": str(tmp_path)})
        run_simulation(cfg)
        assert per_stage["greedy"] == 2


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

    def test_prior_interp_prints_the_rank_it_saves(self, tmp_path, capsys):
        # prior-interp prints the eigen form of the blended log; design reads
        # the one `load_prior_field` truncates from the saved covariance
        from qsdesign.prior import PriorField, RankRule, VoxelPrior, save_prior_field

        rng, rule = np.random.default_rng(5), RankRule("fraction", 0.9)
        field = PriorField((2, 2, 2), {}, 2, rule)
        for index in np.ndindex(2, 2, 2):
            q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            cov = (q * np.exp(-rng.uniform(0.3, 2.0) * np.arange(6))) @ q.T
            field.add(index, VoxelPrior.from_moments(rng.standard_normal(6), cov, 0.01, rule))
        path = tmp_path / "field.qpf"
        save_prior_field(field, path)
        ranks = set()
        for n, query in enumerate(rng.uniform(0.0, 1.0, size=(12, 3))):
            out = tmp_path / f"o{n}"
            assert main(["prior-interp", "--prior", str(path), "--query", ",".join(map(str, query)),
                         "--out", str(out)]) == 0
            loaded = load_prior_field(out / "prior_interp.qpf").priors[(0, 0, 0)]
            printed = capsys.readouterr().out
            assert f"(rank {loaded.rank}," in printed
            assert f"top eigenvalue {loaded.eigenvalues[0]:.6g})" in printed
            ranks.add(loaded.rank)
        assert len(ranks) > 1

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


def _without_times(report_bytes):
    """A report.json without its timings, its fault counts and peak RSS,
    and its output directory."""
    report = json.loads(report_bytes)
    del report["stage_seconds"], report["elapsed_seconds"], report["config"]["out_dir"]
    del report["stage_minor_faults"], report["peak_rss_mb"]
    return report


def _thread_control():
    """The thread-count getter and setter of numpy's OpenBLAS, each None
    where numpy does not export it."""
    return (estimator._numpy_function("scipy_openblas_get_num_threads64_", ctypes.c_int),
            estimator._numpy_function("scipy_openblas_set_num_threads64_", None, ctypes.c_int))


class TestThreading:
    def test_blas_thread_count_does_not_change_outputs(self, tmp_path):
        # `simulate` holds numpy's OpenBLAS to one thread, so a process
        # started at two threads writes the bytes of one started at one; at
        # degree 8, unpinned, the two write different metrics.csv files
        config = {**TINY_SIM, "degree": 8}
        cfg = tmp_path / "sim.yaml"
        cfg.write_text(yaml.safe_dump(config))
        src = Path(__file__).resolve().parents[1] / "src"
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-m", "qsdesign", "simulate", "--config", str(cfg), "--out", str(out)],
                           env=env, capture_output=True, check=True)
            runs.append({str(p.relative_to(out)): p.read_bytes() for p in _files_under(out)})
        assert sorted(runs[0]) == sorted(runner.output_names(config["budgets"]))
        reports = [_without_times(run.pop("report.json")) for run in runs]
        assert runs[0] == runs[1]
        assert reports[0] == reports[1]

    def test_pin_holds_one_thread_and_restores_the_count(self):
        get, put = _thread_control()
        if get is None or put is None:  # numpy exports no thread control: the pin changes nothing
            with estimator.one_blas_thread() as threads:
                assert threads is None
            return
        start = get()
        put(2)
        try:
            with estimator.one_blas_thread() as threads:
                assert threads == get() == 1
            assert get() == 2
        finally:
            put(start)

    def test_report_records_the_pinned_count(self, tiny_results):
        _, _, out = tiny_results
        report = json.loads((out / "report.json").read_text())
        assert report["blas_threads"] == (1 if all(_thread_control()) else None)

    def test_run_without_thread_control_records_null(self, tiny_results, monkeypatch):
        cfg, pinned, _ = tiny_results
        resolve = estimator._numpy_function
        monkeypatch.setattr(estimator, "_numpy_function",
                            lambda name, *types: None if "num_threads" in name else resolve(name, *types))
        result = run_simulation(cfg)
        assert result.report["blas_threads"] is None
        assert metrics_csv_text(result.rows) == metrics_csv_text(pinned.rows)


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


def _sparse_field_interp(tmp_path, query):
    """prior-interp at `query` on a 2x1x1 field that holds voxel (0, 0, 0) only."""
    from qsdesign.prior import PriorField, load_prior_field, save_prior_field

    path = _field_file(tmp_path)
    prior = load_prior_field(path).priors[(0, 0, 0)]
    save_prior_field(PriorField((2, 1, 1), {(0, 0, 0): prior}, 2), path)
    return _interp(path, query)


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
    ("noise_sigma whose square overflows", lambda t: _write_config(t, noise_sigma=1e200),
     "error: noise_sigma 1e+200 is too large: its square, the prior noise variance, overflows"),
    ("noise_sigma whose square underflows", lambda t: _write_config(t, noise_sigma=1e-200),
     "error: noise_sigma 1e-200 is too small: its square, the prior noise variance, underflows to 0"),
    ("lobe_concentration whose vMF normaliser is 0", lambda t: _write_config(
        t, generative={"lobe_concentration": 1e-300}),
     "error: lobe_concentration 1e-300 is too small: the vMF normaliser 1 - exp(-2 lobe_concentration) rounds to 0"),
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
    ("boolean seed", lambda t: _raw_config(
        t, "simulate", "seed: yes\n" + yaml.safe_dump({k: v for k, v in TINY_SIM.items() if k != "seed"})),
     "error: seed must be an integer, got True"),
    ("boolean noise_sigma", lambda t: _write_config(t, noise_sigma=True),
     "error: noise_sigma must be a number, got True"),
    ("boolean budget", lambda t: _write_config(t, budgets=[True, 5]),
     "error: budgets must be a list of positive integers, got [True, 5]"),
    ("numeric out_dir", lambda t: _write_config(t, out_dir=5)[:-2],  # no --out, so out_dir is used
     "error: out_dir must be a string, got 5"),
    ("text query", lambda t: _interp(_field_file(t), "a,b,c"),
     "error: expected three comma-separated numbers, got 'a,b,c'"),
    ("nan query", lambda t: _interp(_field_file(t), "nan,0,0"),
     "error: query [nan, 0.0, 0.0] is not finite"),
    ("query outside the field", lambda t: _interp(_field_file(t), "9,9,9"),
     "error: query [9.0, 9.0, 9.0] outside field bounding box (0, 0, 0)"),
    ("query beside a missing voxel", lambda t: _sparse_field_interp(t, "0.5,0,0"),
     "error: incomplete neighborhood: missing voxel priors at [(1, 0, 0)]"),
    ("voxel outside the field", lambda t: _design_voxel(t, "9,9,9"),
     "error: voxel (9, 9, 9) not present in the field"),
    ("esr count of one", lambda t: ["esr", "--count", "1", "--out", str(t / "o")],
     "error: need at least two directions"),
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
    ("seed with cohort_csv", lambda t: _bad_cohort_csv(t, ",".join(["0.25"] * 15), seed=5),
     "error: prior-build with cohort_csv does not use configuration keys ['seed']"),
    ("--seed with cohort_csv", lambda t: [*_bad_cohort_csv(t, ",".join(["0.25"] * 15)), "--seed", "9"],
     "error: prior-build with cohort_csv does not use --seed"),
]


def _files_under(root):
    return sorted(p for p in root.rglob("*") if p.is_file()) if root.is_dir() else []


@pytest.mark.parametrize("case,argv_for,first_line", MALFORMED_INPUTS, ids=[c[0] for c in MALFORMED_INPUTS])
def test_malformed_input_exits_2(case, argv_for, first_line, tmp_path, capsys):
    argv = argv_for(tmp_path)
    out_existed = (tmp_path / "o").exists()
    files_before = _files_under(tmp_path / "o")
    assert main(argv) == 2
    err = capsys.readouterr().err
    expected = first_line.format(
        path=tmp_path / "field.qpf", csv=tmp_path / "cohort.csv", cfg=tmp_path / "bad.yaml", out=tmp_path / "o"
    )
    assert err.splitlines()[0] == expected
    assert not (tmp_path / "o" / "metrics.csv").exists()
    assert _files_under(tmp_path / "o") == files_before  # nothing written
    assert out_existed or not (tmp_path / "o").exists()  # no directory made either


# (command, argv builder with one output taken by a directory, the first
# step of the command's work, as cli calls it)
TAKEN_OUTPUTS = [
    ("simulate", lambda t: _taken(t / "o" / "report.json", _write_config(t), "directory"), "run_simulation"),
    ("esr", lambda t: _taken(t / "o" / "esr_010.txt", ["esr", "--count", "10", "--out", str(t / "o")], "directory"),
     "esr_designs"),
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


# (argv builder for a value, the largest value its check accepts, the first
# line of the refusal, the first step of the command's work as cli calls
# it). The ESR pair array holds 6 n^2 float64 entries a configuration; a
# design over the J = 6 field holds the (N, J) basis. The configuration keys
# are bounded by the float64 arrays they size at TINY_SIM's or TINY_BUILD's
# other values (J = 15 at degree 4).
ENTRIES = cli.SIZE_CEILING_BYTES // 8
SIZE_LIMITS = [
    (lambda t, n: ["esr", "--count", str(n), "--out", str(t / "o")],
     math.isqrt(cli.SIZE_CEILING_BYTES // (6 * 8)), "error: count must be at most {limit}, got {value}",
     "esr_designs"),
    (lambda t, n: ["design", "--prior", str(_field_file(t)), "--budget", "2", "--candidates", str(n),
                   "--out", str(t / "o")],
     cli.SIZE_CEILING_BYTES // (8 * 6), "error: --candidates must be at most {limit} for this field, got {value}",
     "load_eigen_stack"),
    # a subject's fODF, signal and coefficients (3 J) and its 30 dense observations
    (lambda t, n: _write_config(t, train_subjects=n), ENTRIES // (3 * 15 + 30),
     "error: train_subjects must be at most {limit} at degree 4 and dense_design_size 30, got {value}",
     "run_simulation"),
    (lambda t, n: _raw_config(t, "prior-build", yaml.safe_dump({**TINY_BUILD, "train_subjects": n})),
     ENTRIES // (3 * 15 + 20),
     "error: train_subjects must be at most {limit} at degree 4 and dense_design_size 20, got {value}",
     "esr_design"),
    # ... and its observations at the largest budget, 5
    (lambda t, n: _write_config(t, test_subjects=n), ENTRIES // (3 * 15 + 5),
     "error: test_subjects must be at most {limit} at degree 4 and largest budget 5, got {value}",
     "run_simulation"),
    (lambda t, n: _write_config(t, dense_design_size=n), math.isqrt(ENTRIES // 6),
     "error: dense_design_size must be at most {limit}, got {value}", "run_simulation"),
    # the (N, J) candidate basis and the N gains
    (lambda t, n: _write_config(t, candidate_count=n), ENTRIES // (15 + 1),
     "error: candidate_count must be at most {limit} at degree 4, got {value}", "run_simulation"),
    # the (G, J) detection basis and the (G, 8) neighbour table
    (lambda t, n: _write_config(t, peak_grid_size=n), ENTRIES // (15 + 8),
     "error: peak_grid_size must be at most {limit} at degree 4, got {value}", "run_simulation"),
    # each voxel's (J, J) covariance and mean
    (lambda t, n: _raw_config(t, "prior-build", yaml.safe_dump({**TINY_BUILD, "grid_shape": [n, 1, 1]})),
     ENTRIES // (15 * 16), "error: the voxel count of grid_shape must be at most {limit} at degree 4, got {value}",
     "esr_design"),
]


@pytest.mark.parametrize("argv_for,limit,message,work", SIZE_LIMITS, ids=[
    "esr --count", "design --candidates", "simulate train_subjects", "prior-build train_subjects",
    "test_subjects", "dense_design_size", "candidate_count", "peak_grid_size", "grid_shape"])
def test_size_above_its_limit_fails_before_any_work(argv_for, limit, message, work, tmp_path, monkeypatch, capsys):
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, work, reached)  # so no test allocates what the limit guards
    for value in (limit + 1, 10**8, 10**20):
        assert main(argv_for(tmp_path, value)) == 2
        assert capsys.readouterr().err.splitlines()[0] == message.format(limit=limit, value=value)
        assert not (tmp_path / "o").exists()
    with pytest.raises(Reached):  # the limit itself passes the check
        main(argv_for(tmp_path, limit))


def test_degree_above_its_limit_fails_before_any_work(tmp_path, monkeypatch, capsys):
    # the (128^2, J) projection basis: J = 8128 at degree 126, 8385 at 128
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, "run_simulation", reached)
    for degree in (128, 10**6, 10**20):
        assert main(_write_config(tmp_path, degree=degree)) == 2
        assert capsys.readouterr().err.splitlines()[0] == f"error: degree must be at most 126, got {degree}"
        assert not (tmp_path / "o").exists()
    with pytest.raises(Reached):
        main(_write_config(tmp_path, degree=126))


def test_degree_without_peaks_fails_before_any_work(tmp_path, monkeypatch, capsys):
    # a degree-0 expansion is constant, so no subject has a peak to score
    def refuse(*args, **kwargs):
        raise AssertionError("simulate ran before its degree was checked")

    monkeypatch.setattr(cli, "run_simulation", refuse)
    monkeypatch.setattr(runner, "generate_cohort", refuse)
    assert main(_write_config(tmp_path, degree=0)) == 2
    assert capsys.readouterr().err.splitlines()[0] == "error: degree must be even and at least 2, got 0"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv_for", [
    lambda t: _write_config(t, rank_rule={"kind": "fixed", "value": 100}),
    lambda t: _prior_build_config(t, rank_rule={"kind": "fixed", "value": 100}, train_subjects=8, dense_design_size=20),
], ids=["simulate", "prior-build"])
def test_fixed_rank_above_dimension_fails_before_any_work(argv_for, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("ESR ran before the rank rule was checked")

    monkeypatch.setattr(runner, "esr_designs", refuse)
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


# Runs `python -m qsdesign` once per argument list of its JSON argument, in
# one process, and prints the exit codes and which of scipy and PyYAML loaded.
STARTUP_CHILD = """
import json, runpy, sys
import qsdesign
codes = []
for argv in json.loads(sys.argv[1]):
    sys.argv = ["qsdesign", *argv]
    try:
        runpy.run_module("qsdesign", run_name="__main__")
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps([codes, sorted({name.split(".")[0] for name in sys.modules} & {"scipy", "yaml"})]))
"""


def run_startup_child(runs):
    """Exit codes of `python -m qsdesign` over `runs`, in one fresh process,
    and which of scipy and PyYAML it loaded."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", STARTUP_CHILD, json.dumps(runs)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_without_fits_or_configs_load_neither_scipy_nor_yaml(tmp_path):
    # PyYAML is imported by the first configuration read, so these commands
    # start without it; no command imports scipy (see the test below)
    from qsdesign.prior import PriorField, save_prior_field
    from qsdesign.sphere import ShBasis

    from conftest import random_prior

    rng = np.random.default_rng(0)
    field = PriorField((2, 1, 1), {}, 2)
    for index in ((0, 0, 0), (1, 0, 0)):
        field.add(index, random_prior(ShBasis(2), rng))
    path = tmp_path / "field.qpf"
    save_prior_field(field, path)
    runs = [
        ["--help"],
        ["esr", "--count", "6", "--out", str(tmp_path / "esr")],
        ["design", "--prior", str(path), "--mode", "region", "--budget", "3", "--candidates", "40",
         "--out", str(tmp_path / "design")],
        ["prior-interp", "--prior", str(path), "--query", "0.5,0,0", "--out", str(tmp_path / "interp")],
        ["design", "--prior", str(tmp_path / "missing.qpf"), "--budget", "3"],
    ]
    codes, loaded = run_startup_child(runs)
    assert codes == [0, 0, 0, 0, 2]
    assert loaded == []


def test_fitting_commands_do_not_load_scipy(tmp_path):
    # the fits factor with the LAPACK numpy loads, so `simulate` and
    # `prior-build` load PyYAML for their configuration and, unless numpy's
    # LAPACK exports no `dpotrf`/`dpotrs` to use, never scipy
    from qsdesign import estimator

    sim_cfg, build_cfg = tmp_path / "sim.yaml", tmp_path / "build.yaml"
    sim_cfg.write_text(yaml.safe_dump(TINY_SIM))
    build_cfg.write_text(yaml.safe_dump(TINY_BUILD))
    runs = [
        ["simulate", "--config", str(sim_cfg), "--out", str(tmp_path / "sim")],
        ["prior-build", "--config", str(build_cfg), "--out", str(tmp_path / "field")],
    ]
    codes, loaded = run_startup_child(runs)
    assert codes == [0, 0]
    assert loaded == (["yaml"] if estimator._numpy_lapack() else ["scipy", "yaml"])
