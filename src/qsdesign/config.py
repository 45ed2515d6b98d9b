"""Declarative experiment configuration: YAML (or its JSON subset) in,
validated dataclass out. Every violation is reported before any work runs.

PyYAML is imported by the first `read_config_mapping` call, so a process
that reads no configuration file does not load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from ._kernels import SIZE_CEILING_BYTES, basis_dimension
from .design import DEFAULT_CANDIDATE_COUNT, ESR_COUNT_LIMIT
from .errors import ValidationError
from .metrics import DEFAULT_PEAK_GRID_SIZE, NEIGHBOR_COUNT, check_peak_grid_size
from .prior import DEFAULT_RANK_RULE, RankRule
from .sim import PROJECTION_GRID_SIZE, GenerativeConfig

DEFAULT_BUDGETS = (5, 10, 15, 20, 30, 45, 60, 90)

_CEILING_ENTRIES = SIZE_CEILING_BYTES // 8  # float64 entries


def _at_most(name: str, value: int, limit: int, context: str = "") -> None:
    if value > limit:
        raise ValidationError(f"{name} must be at most {limit}{context}, got {value}")


def check_field_size(grid_shape, degree: int) -> None:
    """ValidationError unless a field over `grid_shape` at `degree` fits
    SIZE_CEILING_BYTES, counting every voxel's mean and a full (J, J)
    covariance: an upper bound, since a prior keeps the packed triangle."""
    j = basis_dimension(degree)
    limit = _CEILING_ENTRIES // (j * (j + 1))
    _at_most("the voxel count of grid_shape", math.prod(grid_shape), limit, f" at degree {degree}")


def _require_finite(name: str, value) -> None:
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")


def integer_from(name: str, value) -> int:
    """`value` as an int if it is a whole number (not a string or a boolean,
    which YAML reads from `yes` and `true`), else a ValidationError naming
    `name`; nothing is truncated."""
    try:
        whole = not isinstance(value, (str, bool, np.bool_)) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _reject_unknown(section: str, mapping: dict, known) -> None:
    """A ValidationError naming every key of `mapping` not in `known`; keys
    are sorted by their text, since YAML keys need not be strings."""
    unknown = set(mapping) - set(known)
    if unknown:
        raise ValidationError(f"unknown {section} keys: {sorted(unknown, key=str)}")


def numbers_from(name: str, value, depth: int = 0):
    """`value` as a float (depth 0), a tuple of floats (1) or a tuple of
    float tuples (2); anything else is a ValidationError naming `name`."""

    def convert(v, d):
        if d == 0:
            if isinstance(v, (bool, np.bool_)):
                raise TypeError("a boolean is not a number")
            return float(v)
        if isinstance(v, str):
            raise TypeError("a string is not a list")
        return tuple(convert(x, d - 1) for x in v)

    try:
        return convert(value, depth)
    except (TypeError, ValueError) as exc:
        what = ("a number", "a list of numbers", "a list of number lists")[depth]
        raise ValidationError(f"{name} must be {what}, got {value!r}") from exc


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
    candidate_count: int = DEFAULT_CANDIDATE_COUNT
    peak_grid_size: int = DEFAULT_PEAK_GRID_SIZE
    threads: int = 1  # accepted and validated; no effect (the pipeline runs on one thread)
    out_dir: str = "results"

    def __post_init__(self):
        for f in fields(self):  # annotations are strings under `from __future__ import annotations`
            value = getattr(self, f.name)
            if f.type == "int":
                setattr(self, f.name, integer_from(f.name, value))
            elif f.type == "float":
                setattr(self, f.name, numbers_from(f.name, value))
            elif f.type == "str" and not isinstance(value, str):
                raise ValidationError(f"{f.name} must be a string, got {value!r}")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if self.degree < 2 or self.degree % 2:
            # a degree-0 expansion is constant: it has no peaks to score
            raise ValidationError(f"degree must be even and at least 2, got {self.degree}")
        if self.train_subjects < 2:
            raise ValidationError("need at least two training subjects")
        if self.test_subjects < 1:
            raise ValidationError("need at least one test subject")
        if self.dense_design_size < 2:
            raise ValidationError("dense design size must be >= 2")
        _require_finite("noise sigma", self.noise_sigma)
        if self.noise_sigma < 0:
            raise ValidationError("noise sigma must be non-negative")
        try:
            noise_variance = self.noise_sigma**2  # the prior noise variance
        except OverflowError:
            raise ValidationError(
                f"noise_sigma {self.noise_sigma!r} is too large: its square, the prior noise variance, overflows"
            ) from None
        if self.noise_sigma > 0 and noise_variance == 0:
            raise ValidationError(
                f"noise_sigma {self.noise_sigma!r} is too small: its square, the prior noise variance, underflows to 0"
            )
        if self.noise_kind not in ("gaussian", "chi"):
            raise ValidationError("noise kind must be 'gaussian' or 'chi'")
        try:
            budgets = tuple(integer_from("budget", b) for b in self.budgets)
        except (TypeError, ValidationError) as exc:
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
        check_peak_grid_size(self.peak_grid_size)
        dimension = basis_dimension(self.degree)
        if self.rank_rule.kind == "fixed" and self.rank_rule.value > dimension:
            raise ValidationError(
                f"fixed rank {self.rank_rule.value} exceeds the basis dimension {dimension} at degree {self.degree}"
            )
        if self.threads < 1:
            raise ValidationError("threads must be >= 1")
        self._check_sizes(dimension)

    def _check_sizes(self, dimension: int) -> None:
        """ValidationError naming the first size key whose float64 arrays
        exceed SIZE_CEILING_BYTES, at the values of the keys checked before it."""
        # the (PROJECTION_GRID_SIZE^2, J) basis that projects every density:
        # the largest even degree L whose J = (L + 1)(L + 2) / 2 fits
        j_limit = _CEILING_ENTRIES // PROJECTION_GRID_SIZE**2
        _at_most("degree", self.degree, (math.isqrt(8 * j_limit + 1) - 3) // 4 * 2)
        _at_most("dense_design_size", self.dense_design_size, ESR_COUNT_LIMIT)
        budget = self.budgets[-1]  # the baseline's largest ESR design
        _at_most("the largest budget", budget, ESR_COUNT_LIMIT)
        at = f" at degree {self.degree}"
        # the (N, J) candidate basis and the N gains
        _at_most("candidate_count", self.candidate_count, _CEILING_ENTRIES // (dimension + 1), at)
        # the (G, J) detection basis and the (G, NEIGHBOR_COUNT) neighbour table
        _at_most("peak_grid_size", self.peak_grid_size, _CEILING_ENTRIES // (dimension + NEIGHBOR_COUNT), at)
        # a subject's fODF, signal and fitted coefficients, and its observations
        limit = _CEILING_ENTRIES // (3 * dimension + self.dense_design_size)
        _at_most("train_subjects", self.train_subjects, limit, f"{at} and dense_design_size {self.dense_design_size}")
        limit = _CEILING_ENTRIES // (3 * dimension + budget)
        _at_most("test_subjects", self.test_subjects, limit, f"{at} and largest budget {budget}")


def _rank_rule_from(obj) -> RankRule:
    if isinstance(obj, RankRule):
        return obj
    if isinstance(obj, dict):
        _reject_unknown("rank_rule", obj, ("kind", "value"))
        try:
            kind, value = str(obj["kind"]), obj["value"]
        except KeyError as exc:
            raise ValidationError(f"rank_rule needs 'kind' and 'value' keys, missing {exc}") from exc
        return RankRule(kind, numbers_from("rank_rule value", value))
    raise ValidationError("rank_rule must be a mapping with 'kind' and 'value'")


def _generative_from(obj) -> GenerativeConfig:
    if isinstance(obj, GenerativeConfig):
        return obj
    if not isinstance(obj, dict):
        raise ValidationError("generative section must be a mapping")
    _reject_unknown("generative", obj, (f.name for f in fields(GenerativeConfig)))
    depths = {"weights": 1, "mean_directions": 2}
    kwargs = {key: numbers_from(key, value, depths.get(key, 0)) for key, value in obj.items()}
    return GenerativeConfig(**kwargs)


def sim_config_from_dict(data: dict) -> SimConfig:
    if not isinstance(data, dict):
        raise ValidationError("configuration root must be a mapping")
    _reject_unknown("configuration", data, (f.name for f in fields(SimConfig)))
    kwargs = dict(data)
    if "rank_rule" in kwargs:
        kwargs["rank_rule"] = _rank_rule_from(kwargs["rank_rule"])
    if "generative" in kwargs:
        kwargs["generative"] = _generative_from(kwargs["generative"])
    try:
        return SimConfig(**kwargs)
    except TypeError as exc:
        raise ValidationError(f"bad configuration value types: {exc}") from exc


@functools.lru_cache(maxsize=None)
def _unique_key_loader():
    """A yaml.SafeLoader subclass that rejects a key repeated within one
    mapping, which plain YAML loading resolves silently in favour of the
    last value. Built on first use, so that `import yaml` happens then."""
    import yaml

    class UniqueKeyLoader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            seen = set()
            for key_node, _ in node.value:
                # only scalar keys are hashable: SafeLoader itself rejects the
                # others, and "<<" merge keys may legitimately repeat
                if not isinstance(key_node, yaml.ScalarNode) or key_node.tag == "tag:yaml.org,2002:merge":
                    continue
                key = self.construct_object(key_node)
                if key in seen:
                    mark = key_node.start_mark
                    raise ValidationError(f"configuration {mark.name} line {mark.line + 1}: repeated key {key!r}")
                seen.add(key)
            return super().construct_mapping(node, deep=deep)

    return UniqueKeyLoader


def read_config_mapping(path) -> dict:
    """The top-level mapping of a YAML/JSON configuration file; an empty
    file reads as an empty mapping."""
    import yaml

    try:
        with open(path, "rb") as fh:  # bytes, so undecodable text is a YAMLError
            data = yaml.load(fh, Loader=_unique_key_loader())
    except OSError as exc:
        raise ValidationError(f"cannot read configuration {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ValidationError(f"configuration {path} is not valid YAML: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ValidationError(f"configuration {path} must be a mapping, got {type(data).__name__}")
    return data


def load_sim_config(path) -> SimConfig:
    """Parse and validate a YAML/JSON experiment configuration file."""
    return sim_config_from_dict(read_config_mapping(path))
