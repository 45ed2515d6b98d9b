"""Declarative experiment configuration: YAML (or its JSON subset) in,
validated dataclass out. Every violation is reported before any work runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np
import yaml

from .errors import ValidationError
from .prior import DEFAULT_RANK_RULE, RankRule
from .sim import GenerativeConfig

DEFAULT_BUDGETS = (5, 10, 15, 20, 30, 45, 60, 90)


def _require_finite(name: str, value) -> None:
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")


@dataclass
class SimConfig:
    """Full description of one simulation experiment."""

    seed: int = 20240601
    degree: int = 8
    train_subjects: int = 200
    test_subjects: int = 100
    dense_design_size: int = 90
    noise_sigma: float = 0.01
    noise_kind: str = "gaussian"
    budgets: tuple = DEFAULT_BUDGETS
    rank_rule: RankRule = DEFAULT_RANK_RULE
    generative: GenerativeConfig = field(default_factory=GenerativeConfig)
    gcv_grid: tuple = (1e-7, 1e-1, 20)  # (min, max, count), log-spaced
    candidate_count: int = 321
    peak_threshold: float = 0.3
    peak_grid_size: int = 4096
    threads: int = 1  # accepted and validated; no effect (the pipeline runs on one thread)
    out_dir: str = "results"

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if self.degree < 0 or self.degree % 2:
            raise ValidationError("degree must be even and non-negative")
        if self.train_subjects < 2:
            raise ValidationError("need at least two training subjects")
        if self.test_subjects < 1:
            raise ValidationError("need at least one test subject")
        if self.dense_design_size < 2:
            raise ValidationError("dense design size must be >= 2")
        _require_finite("noise sigma", self.noise_sigma)
        if self.noise_sigma < 0:
            raise ValidationError("noise sigma must be non-negative")
        if self.noise_kind not in ("gaussian", "chi"):
            raise ValidationError("noise kind must be 'gaussian' or 'chi'")
        if np.ndim(self.budgets) != 1:
            raise ValidationError(f"budgets must be a list of positive integers, got {self.budgets!r}")
        try:
            budgets = tuple(int(b) for b in self.budgets)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"budgets must be a list of positive integers, got {self.budgets!r}") from exc
        if not budgets or any(b < 1 for b in budgets):
            raise ValidationError("budgets must be positive integers")
        if list(budgets) != sorted(budgets):
            raise ValidationError("budgets must be sorted ascending")
        if len(set(budgets)) != len(budgets):
            raise ValidationError("budgets must be distinct")
        self.budgets = budgets
        if budgets[-1] > self.candidate_count:
            raise ValidationError("largest budget exceeds the candidate count")
        if np.ndim(self.gcv_grid) != 1 or len(self.gcv_grid) != 3:
            raise ValidationError(f"gcv_grid must be (min, max, count), got {self.gcv_grid!r}")
        lo, hi, count = self.gcv_grid
        _require_finite("gcv_grid min", lo)
        _require_finite("gcv_grid max", hi)
        _require_finite("gcv_grid count", count)
        if not (0 < lo < hi and int(count) >= 1):
            raise ValidationError("gcv_grid must be (min, max, count) with 0 < min < max")
        self.gcv_grid = (float(lo), float(hi), int(count))
        _require_finite("peak threshold", self.peak_threshold)
        if not 0.0 <= self.peak_threshold <= 1.0:
            raise ValidationError("peak threshold must lie in [0, 1]")
        if self.peak_grid_size < 16:
            raise ValidationError("peak grid size is too small")
        if self.threads < 1:
            raise ValidationError("threads must be >= 1")

    @property
    def gcv_lambdas(self) -> np.ndarray:
        lo, hi, count = self.gcv_grid
        return np.logspace(np.log10(lo), np.log10(hi), count)


def _rank_rule_from(obj) -> RankRule:
    if isinstance(obj, RankRule):
        return obj
    if isinstance(obj, dict):
        try:
            kind, value = str(obj["kind"]), obj["value"]
        except KeyError as exc:
            raise ValidationError(f"rank_rule needs 'kind' and 'value' keys, missing {exc}") from exc
        try:
            value = float(value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"rank_rule value must be a number, got {value!r}") from exc
        return RankRule(kind, value)
    raise ValidationError("rank_rule must be a mapping with 'kind' and 'value'")


def _generative_from(obj) -> GenerativeConfig:
    if isinstance(obj, GenerativeConfig):
        return obj
    if not isinstance(obj, dict):
        raise ValidationError("generative section must be a mapping")
    known = {
        "lobe_concentration",
        "direction_concentration",
        "weights",
        "mean_directions",
        "peak_merge_degrees",
    }
    unknown = set(obj) - known
    if unknown:
        raise ValidationError(f"unknown generative keys: {sorted(unknown)}")
    kwargs = dict(obj)
    if "weights" in kwargs:
        kwargs["weights"] = tuple(float(w) for w in kwargs["weights"])
    if "mean_directions" in kwargs:
        kwargs["mean_directions"] = tuple(
            tuple(float(x) for x in d) for d in kwargs["mean_directions"]
        )
    return GenerativeConfig(**kwargs)


def sim_config_from_dict(data: dict) -> SimConfig:
    if not isinstance(data, dict):
        raise ValidationError("configuration root must be a mapping")
    data = dict(data)
    kwargs = {}
    if "rank_rule" in data:
        kwargs["rank_rule"] = _rank_rule_from(data.pop("rank_rule"))
    if "generative" in data:
        kwargs["generative"] = _generative_from(data.pop("generative"))
    if "budgets" in data:
        kwargs["budgets"] = data.pop("budgets")
    if "gcv_grid" in data:
        g = data.pop("gcv_grid")
        if isinstance(g, dict):
            try:
                kwargs["gcv_grid"] = (g["min"], g["max"], g["count"])
            except KeyError as exc:
                raise ValidationError(f"gcv_grid needs min/max/count, missing {exc}") from exc
        else:
            kwargs["gcv_grid"] = g
    simple = {
        "seed",
        "degree",
        "train_subjects",
        "test_subjects",
        "dense_design_size",
        "noise_sigma",
        "noise_kind",
        "candidate_count",
        "peak_threshold",
        "peak_grid_size",
        "threads",
        "out_dir",
    }
    unknown = set(data) - simple
    if unknown:
        raise ValidationError(f"unknown configuration keys: {sorted(unknown)}")
    kwargs.update(data)
    try:
        return SimConfig(**kwargs)
    except TypeError as exc:
        raise ValidationError(f"bad configuration value types: {exc}") from exc


def load_sim_config(path) -> SimConfig:
    """Parse and validate a YAML/JSON experiment configuration file."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read configuration {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ValidationError(f"configuration {path} is not valid YAML: {exc}") from exc
    return sim_config_from_dict(data or {})


def sim_config_to_dict(cfg: SimConfig) -> dict:
    """Plain-dict echo of a configuration (for reports)."""
    out = asdict(cfg)
    out["rank_rule"] = {"kind": cfg.rank_rule.kind, "value": cfg.rank_rule.value}
    out["generative"] = {
        "lobe_concentration": cfg.generative.lobe_concentration,
        "direction_concentration": cfg.generative.direction_concentration,
        "weights": list(cfg.generative.weights),
        "mean_directions": [list(d) for d in cfg.generative.mean_directions],
        "peak_merge_degrees": cfg.generative.peak_merge_degrees,
    }
    out["budgets"] = list(cfg.budgets)
    out["gcv_grid"] = list(cfg.gcv_grid)
    return out
