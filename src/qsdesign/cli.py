"""Command-line interface.

Subcommands:
  simulate     run the full comparison experiment from a config file
  design       select sampling directions for a stored prior field
  esr          electrostatic-repulsion design of a given size
  prior-build  build a synthetic prior field (or one voxel from a cohort CSV)
  prior-interp interpolate a prior field at a continuous coordinate

Every subcommand takes --out (output directory); simulate, esr and
prior-build also take --seed (for simulate and prior-build it overrides the
config seed).
Exit codes: 0 success, 2 validation error, 3 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .config import (
    _require_finite,
    integer_from,
    load_sim_config,
    numbers_from,
    read_config_mapping,
    sim_config_from_dict,
)
from .design import (
    DEFAULT_CANDIDATE_COUNT,
    coulomb_energy,
    default_candidates,
    esr_design,
    gradient_table,
    greedy_design_region,
    region_bound,
)
from .errors import DegeneracyError, ValidationError
from .prior import (
    PriorField,
    VoxelPrior,
    empirical_moments,
    interpolate_prior,
    load_prior_field,
    save_prior_field,
)
from .runner import build_prior_from_cohort, output_names, run_simulation, write_outputs
from .sim import cohort_from_csv, generate_cohort
from .sphere import ShBasis


def _add_out(parser):
    parser.add_argument("--out", default="results", help="output directory (default results)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsdesign",
        description="Optimal sampling-direction design and sparse spherical reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the comparison experiment")
    p.add_argument("--config", required=True, help="YAML experiment configuration")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="output directory (default: the config's out_dir)")

    p = sub.add_parser("design", help="greedy design for a stored prior field")
    p.add_argument("--prior", required=True, help="prior field file (.qpf)")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--mode", choices=("single", "region"), default="single")
    p.add_argument("--voxel", default=None, help="voxel index i,j,k (single mode)")
    p.add_argument("--candidates", type=int, default=DEFAULT_CANDIDATE_COUNT, help="candidate pool size")
    _add_out(p)

    p = sub.add_parser("esr", help="electrostatic-repulsion design")
    p.add_argument("--count", type=int, required=True, help="number of directions")
    p.add_argument("--seed", type=int, default=0, help="seed of the jittered starts")
    _add_out(p)

    p = sub.add_parser("prior-build", help="build a prior field")
    p.add_argument("--config", required=True, help="YAML build configuration")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    _add_out(p)

    p = sub.add_parser("prior-interp", help="interpolate a prior field")
    p.add_argument("--prior", required=True, help="prior field file (.qpf)")
    p.add_argument("--query", required=True, help="continuous coordinate x,y,z")
    _add_out(p)
    return parser


def _parse_triplet(text, kind=float):
    parts = text.replace(",", " ").split()
    if len(parts) != 3:
        raise ValidationError(f"expected three comma-separated values, got {text!r}")
    try:
        return tuple(kind(p) for p in parts)
    except ValueError as exc:
        what = "integers" if kind is int else "numbers"
        raise ValidationError(f"expected three comma-separated {what}, got {text!r}") from exc


def _outputs(out_dir, *names) -> list:
    """The paths of the outputs `names` (relative to `out_dir`), once none
    of them exists as anything but a regular file and their directories are
    made. Each command calls this before its work, so an output it cannot
    write fails before any work is done."""
    out = Path(out_dir)
    paths = [out / name for name in names]
    for path in paths:
        if path.exists() and not path.is_file():
            what = "Is a directory" if path.is_dir() else "not a regular file"
            raise ValidationError(f"cannot write {path}: {what}")
    for directory in sorted({out, *(path.parent for path in paths)}):
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"cannot use output directory {directory}: {exc.strerror}") from exc
    return paths


@contextlib.contextmanager
def _writing(path):
    """An OSError of the writes inside as a ValidationError naming the file (or `path`)."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"cannot write {exc.filename or path}: {exc.strerror}") from exc


def _cmd_simulate(args) -> int:
    cfg = load_sim_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    _outputs(cfg.out_dir, *output_names(cfg.budgets))
    out = Path(cfg.out_dir)
    result = run_simulation(cfg)
    with _writing(out):
        write_outputs(result, out)
    print(f"wrote {out / 'metrics.csv'} ({len(result.rows)} rows, {result.elapsed_seconds:.1f}s)")
    return 0


def _cmd_design(args) -> int:
    if args.budget < 1:
        raise ValidationError(f"--budget must be >= 1, got {args.budget}")
    if args.candidates < 1:
        raise ValidationError(f"--candidates must be >= 1, got {args.candidates}")
    if args.voxel is not None and args.mode != "single":
        raise ValidationError(f"--voxel applies to --mode single only, not --mode {args.mode}")
    field = load_prior_field(args.prior)
    if not field.priors:
        raise ValidationError(f"{args.prior} contains no voxel priors")
    stem = f"design_{args.mode}_{args.budget:03d}"
    table_path, report_path = _outputs(args.out, f"{stem}.txt", f"{stem}.json")
    basis = ShBasis(field.max_degree)
    candidates = default_candidates(args.candidates)
    # single mode is the one-voxel region: the first voxel, or --voxel
    indices = sorted(field.priors) if args.mode == "region" else [min(field.priors)]
    if args.voxel is not None:
        indices = [_parse_triplet(args.voxel, int)]
        if indices[0] not in field.priors:
            raise ValidationError(f"voxel {indices[0]} not present in the field")
    priors = [field.priors[k] for k in indices]
    result = greedy_design_region(candidates, priors, basis, args.budget)
    bound = region_bound(priors, candidates, basis, args.budget, args.budget)
    report = {
        "mode": args.mode,
        "budget": args.budget,
        "selected_indices": [int(i) for i in result.selected],
        "objective_per_step": [float(v) for v in result.objective_history],
        "bound_certificate": dataclasses.asdict(bound),
    }
    with _writing(table_path.parent):
        table_path.write_text(gradient_table(candidates.points[result.selected]))
        report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {table_path} and {report_path} (objective {result.objective:.6g})")
    return 0


def _cmd_esr(args) -> int:
    (path,) = _outputs(args.out, f"esr_{args.count:03d}.txt")
    points = esr_design(args.count, seed=args.seed)
    with _writing(path):
        path.write_text(gradient_table(points))
    print(f"wrote {path} (final energy {coulomb_energy(points):.6f})")
    return 0


# SimConfig keys that only `simulate` reads
_UNUSED_BY_PRIOR_BUILD = frozenset(
    ("out_dir", "test_subjects", "budgets", "candidate_count", "peak_grid_size", "threads")
)
# keys that only one mode of prior-build reads: with cohort_csv, or without
_COHORT_ONLY = frozenset(("noise_variance",))
_SYNTHETIC_ONLY = frozenset(
    (
        "grid_shape",
        "rotation_per_voxel_degrees",
        "train_subjects",
        "dense_design_size",
        "noise_sigma",
        "noise_kind",
        "generative",
    )
)


def _cmd_prior_build(args) -> int:
    raw = read_config_mapping(args.config)
    keys = set(raw)
    grid_shape = numbers_from("grid_shape", raw.pop("grid_shape", (1, 1, 1)), 1)
    grid_shape = tuple(integer_from("grid_shape entry", s) for s in grid_shape)
    rotation_step = numbers_from("rotation_per_voxel_degrees", raw.pop("rotation_per_voxel_degrees", 10.0))
    _require_finite("rotation_per_voxel_degrees", rotation_step)
    cohort_csv = raw.pop("cohort_csv", None)
    if cohort_csv is not None and not isinstance(cohort_csv, str):
        raise ValidationError(f"cohort_csv must be a string, got {cohort_csv!r}")
    noise_variance = numbers_from("noise_variance", raw.pop("noise_variance", 1e-4))
    unused = sorted(_UNUSED_BY_PRIOR_BUILD.intersection(raw))
    if unused:
        raise ValidationError(f"prior-build does not use configuration keys {unused}")
    mode, other_mode_keys = ("with", _SYNTHETIC_ONLY) if cohort_csv is not None else ("without", _COHORT_ONLY)
    unused = sorted(other_mode_keys & keys)
    if unused:
        raise ValidationError(f"prior-build {mode} cohort_csv does not use configuration keys {unused}")
    cfg = sim_config_from_dict(raw)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    path, _ = _outputs(args.out, "prior_field.qpf", "prior_field.qpf.json")
    basis = ShBasis(cfg.degree)
    field = PriorField(grid_shape, {}, cfg.degree, cfg.rank_rule)

    if cohort_csv is not None:
        rows = cohort_from_csv(cohort_csv)
        if rows.shape[1] != basis.dimension:
            raise ValidationError(
                f"cohort CSV has {rows.shape[1]} columns, expected {basis.dimension}"
            )
        mean, cov = empirical_moments(rows)
        field.add((0, 0, 0), VoxelPrior.from_moments(mean, cov, noise_variance, cfg.rank_rule))
    else:
        dense_points = esr_design(cfg.dense_design_size, seed=cfg.seed)
        for index in np.ndindex(grid_shape):
            # smooth synthetic variation across the grid: rotate the
            # generative mean directions about z proportionally to the index
            angle = np.radians(rotation_step) * sum(index)
            rot = np.array(
                [
                    [np.cos(angle), -np.sin(angle), 0.0],
                    [np.sin(angle), np.cos(angle), 0.0],
                    [0.0, 0.0, 1.0],
                ]
            )
            gen = dataclasses.replace(
                cfg.generative,
                mean_directions=tuple(
                    tuple(rot @ np.asarray(m)) for m in cfg.generative.mean_directions
                ),
            )
            voxel_seed = int(np.random.SeedSequence((cfg.seed, 3, *index)).generate_state(1)[0])
            truths = generate_cohort(basis, gen, cfg.train_subjects, voxel_seed)
            voxel_cfg = dataclasses.replace(cfg, seed=voxel_seed)
            field.add(index, build_prior_from_cohort(truths, dense_points, voxel_cfg, "prior-build"))

    with _writing(path):
        save_prior_field(field, path)
    print(f"wrote {path} ({len(field)} voxels, J={basis.dimension})")
    return 0


def _cmd_prior_interp(args) -> int:
    field = load_prior_field(args.prior)
    query = _parse_triplet(args.query, float)
    path, _ = _outputs(args.out, "prior_interp.qpf", "prior_interp.qpf.json")
    prior = interpolate_prior(field, np.asarray(query))
    result = PriorField((1, 1, 1), {(0, 0, 0): prior}, field.max_degree, field.rank_rule)
    with _writing(path):
        save_prior_field(result, path)
    print(
        f"wrote {path} (rank {prior.rank}, noise variance {prior.noise_variance:.3e}, "
        f"top eigenvalue {prior.eigenvalues[0]:.6g})"
    )
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "design": _cmd_design,
    "esr": _cmd_esr,
    "prior-build": _cmd_prior_build,
    "prior-interp": _cmd_prior_interp,
}


def run(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


def main(argv=None) -> int:
    try:
        return run(argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegeneracyError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
