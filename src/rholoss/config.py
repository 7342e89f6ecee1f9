"""Experiment configuration: a single YAML document, strictly validated.

The section dataclasses below are the schema. Each field declares its key,
type, default and allowed values once; `_field` records the allowed interval
(bounds such as "[0, 1)", applied to each element of a list) and choices in
the field's metadata. `_section` walks the fields to build a section from its
mapping: it rejects unknown keys, fills in defaults, converts and checks every
value, and starts every error with the dotted key. Checks that span keys are
written out in parse_config, and the sweep grid is parsed by hand.

The config hash identifies an experiment for provenance headers; it covers
every section except run.seeds (seeds vary within one experiment) and
output_dir.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import re
import types
import typing
from dataclasses import dataclass, field

import yaml

from .optim import OPTIMIZER_KINDS
from .selection import SelectionPolicy


class ConfigError(ValueError):
    pass


def _field(default=dataclasses.MISSING, *, bounds: str | None = None, choices: tuple = (), nonempty: bool = False):
    """A config key with its default. bounds is an interval such as "[0, 1)"
    or "(0, inf)"; on a list it bounds each element, and nonempty forbids an
    empty list."""
    return field(default=default, metadata={"bounds": bounds, "choices": choices, "nonempty": nonempty})


@dataclass(frozen=True)
class OptimizerSettings:
    kind: str = _field("adamw", choices=OPTIMIZER_KINDS)
    learning_rate: float = _field(1e-3, bounds="[0, inf)")
    weight_decay: float = _field(0.01, bounds="[0, inf)")


@dataclass(frozen=True)
class SyntheticSpec:
    classes: int = _field(10, bounds="[2, inf)")
    per_class: int = _field(100, bounds="[1, inf)")
    dim: int = _field(32, bounds="[1, inf)")
    spread: float = _field(1.0, bounds="(0, inf)")
    radius: float = 3.0
    seed: int = _field(0, bounds="[0, inf)")


@dataclass(frozen=True)
class IdxSpec:
    images: str
    labels: str
    test_images: str | None = None
    test_labels: str | None = None

    def __post_init__(self):
        if (self.test_images is None) != (self.test_labels is None):
            raise ValueError("test_images and test_labels must be given together")


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = _field("none", choices=("none", "uniform", "structured"))
    p: float = _field(0.1, bounds="[0, 1]")
    pairs: int = _field(4, bounds="[1, inf)")
    flip_prob: float = _field(0.5, bounds="[0, 1]")
    seed: int = _field(0, bounds="[0, inf)")


@dataclass(frozen=True)
class RelevanceSpec:
    high_frac: float = _field(0.2, bounds="(0, 1]")
    keep_frac: float = _field(0.06, bounds="(0, 1]")
    seed: int = _field(0, bounds="[0, inf)")


@dataclass(frozen=True)
class SplitSettings:
    test_fraction: float = _field(0.2, bounds="(0, 1)")
    holdout_fraction: float = _field(0.25, bounds="(0, 1)")
    seed: int = _field(0, bounds="[0, inf)")


@dataclass(frozen=True)
class DatasetSection:
    kind: str = _field(choices=("synthetic", "idx", "csv"))
    synthetic: SyntheticSpec = SyntheticSpec()  # read when kind is synthetic
    idx: IdxSpec | None = None  # required when kind is idx
    csv_path: str | None = None  # required when kind is csv
    split: SplitSettings = SplitSettings()
    noise: NoiseSpec = NoiseSpec()
    relevance: RelevanceSpec | None = None
    duplicate_factor: int = _field(1, bounds="[1, inf)")


@dataclass(frozen=True)
class IlSection:
    hidden: tuple[int, ...] = _field((128, 128), bounds="[1, inf)", nonempty=True)
    dropout: float = _field(0.0, bounds="[0, 1)")
    epochs: int = _field(20, bounds="[1, inf)")
    batch_size: int = _field(64, bounds="[1, inf)")
    scheme: str = _field("holdout", choices=("holdout", "two-halves"))
    optimizer: OptimizerSettings = OptimizerSettings()
    seed: int = _field(0, bounds="[0, inf)")


@dataclass(frozen=True)
class ModelSpec:
    hidden: tuple[int, ...] = _field((128, 128), bounds="[1, inf)", nonempty=True)
    dropout: float = _field(0.0, bounds="[0, 1)")
    batchnorm: bool = False
    seed: int = _field(0, bounds="[0, inf)")


@dataclass(frozen=True)
class RunSection:
    policy: SelectionPolicy
    n_b: int = _field(32, bounds="[1, inf)")
    n_B: int = _field(320, bounds="[1, inf)")
    epochs: int = _field(10, bounds="[1, inf)")
    eval_every: int | None = _field(None, bounds="[1, inf)")
    il_update_mode: str = _field("frozen", choices=("frozen", "original"))
    lr_scale: float = _field(0.01, bounds="[0, inf)")
    model: ModelSpec = ModelSpec()
    optimizer: OptimizerSettings = OptimizerSettings()
    seeds: tuple[int, ...] = _field((0,), bounds="[0, inf)", nonempty=True)
    targets: tuple[float, ...] = ()
    dump_scores: bool = False


@dataclass(frozen=True)
class LadderConfig:
    """The ladder section: the settings of ladder.run_ladder."""

    n_b: int = _field(6, bounds="[1, inf)")
    n_B: int = _field(60, bounds="[1, inf)")
    ensemble_size: int = _field(5, bounds="[1, inf)")
    convergence_epochs: int = _field(5, bounds="[0, inf)")  # per-acquisition training budget
    convergence_tol: float = _field(1e-3, bounds="[0, inf)")
    il_pretrain_epochs: int = _field(30, bounds="[0, inf)")  # budget for the initial holdout fit
    hidden: tuple[int, ...] = _field((64, 64), bounds="[1, inf)", nonempty=True)
    small_hidden: tuple[int, ...] = _field((32, 32), bounds="[1, inf)", nonempty=True)
    batch_size: int = _field(32, bounds="[1, inf)")
    optimizer: OptimizerSettings = OptimizerSettings()
    seed: int = _field(0, bounds="[0, inf)")

    def __post_init__(self):
        if not 0 < self.n_b <= self.n_B:
            raise ValueError(f"n_b must lie in [1, n_B], got n_b={self.n_b}, n_B={self.n_B}")
        if self.ensemble_size < 1:
            raise ValueError(f"ensemble_size must be >= 1, got {self.ensemble_size}")


# Reported hyperparameter grid used as the default sweep template.
DEFAULT_SWEEP_GRID: dict[str, tuple] = {
    "batch_size": (160, 320, 960),
    "learning_rate": (0.0001, 0.001, 0.01),
    "weight_decay": (0.001, 0.01, 0.1),
}

# The keys a sweep grid may vary, with their types, in cell-numbering order.
_SWEEP_KEYS = {"batch_size": int, "n_b": int, "n_B": int, "learning_rate": float, "weight_decay": float}


@dataclass(frozen=True)
class SweepSection:
    grid: dict[str, tuple]


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSection
    il: IlSection | None
    run: RunSection | None
    ladder: LadderConfig | None
    sweep: SweepSection | None
    output_dir: str | None
    raw: dict


_SECTIONS = {"dataset": DatasetSection, "il": IlSection, "run": RunSection, "ladder": LadderConfig}

# Exponent spellings such as 1e-3 or 2.5E4 are floats in YAML 1.2 but plain
# strings to PyYAML's YAML 1.1 resolver, which wants a dot and a signed exponent.
_EXPONENT_FLOAT = re.compile(r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+")


# Resolving the annotation strings costs more than the rest of a parse.
_type_hints = functools.cache(typing.get_type_hints)


def _check_keys(d: dict, allowed, path: str) -> None:
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}")


def _within(value, bounds: str) -> bool:
    """Whether value lies in an interval written like "[0, 1)" or "(0, inf)"."""
    lo, hi = (float(v) for v in bounds[1:-1].split(","))
    above = lo < value if bounds[0] == "(" else lo <= value
    below = value < hi if bounds[-1] == ")" else value <= hi
    return above and below


def _value(typ, value, key: str, meta):
    """value (not None) converted to typ and checked against a field's
    metadata: a dataclass is parsed as a section, a tuple from a list."""
    if isinstance(typ, types.UnionType):  # X | None
        typ = typing.get_args(typ)[0]
    if dataclasses.is_dataclass(typ):
        return _section(typ, value, key)
    if typing.get_origin(typ) is tuple:
        if not isinstance(value, (list, tuple)) or (meta.get("nonempty") and not value):
            raise ConfigError(f"{key}: expected a {'nonempty ' if meta.get('nonempty') else ''}list, got {value!r}")
        return tuple(_value(typing.get_args(typ)[0], v, f"{key}[{i}]", meta) for i, v in enumerate(value))
    if typ is float and not isinstance(value, bool) and (
        isinstance(value, int) or isinstance(value, str) and _EXPONENT_FLOAT.fullmatch(value)
    ):
        value = float(value)
    if not isinstance(value, typ) or (isinstance(value, bool) and typ is not bool):
        raise ConfigError(f"{key}: expected {typ.__name__}, got {type(value).__name__}")
    if meta.get("choices") and value not in meta["choices"]:
        raise ConfigError(f"{key}: expected {'|'.join(meta['choices'])}, got {value!r}")
    if meta.get("bounds") and not _within(value, meta["bounds"]):
        raise ConfigError(f"{key}: expected a value in {meta['bounds']}, got {value!r}")
    return value


def _section(cls, d, path: str):
    """Build the dataclass cls from the mapping d at the dotted path. A key
    that is absent or null takes the field's default."""
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(d).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    _check_keys(d, fields, path)
    hints = _type_hints(cls)
    kwargs = {}
    for name, f in fields.items():
        if d.get(name) is not None:
            kwargs[name] = _value(hints[name], d[name], f"{path}.{name}", f.metadata)
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"{path}: missing required key {name!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        # The library's own checks start their message with the field they reject.
        first = str(exc).split(" ", 1)[0]
        raise ConfigError(f"{path}.{exc}" if first in fields else f"{path}: {exc}") from exc


def _sweep_section(d) -> SweepSection:
    if not isinstance(d, dict):
        raise ConfigError(f"sweep: expected a mapping, got {type(d).__name__}")
    _check_keys(d, ("grid",), "sweep")
    grid_d = d.get("grid") or {}
    if not isinstance(grid_d, dict):
        raise ConfigError(f"sweep.grid: expected a mapping, got {type(grid_d).__name__}")
    _check_keys(grid_d, _SWEEP_KEYS, "sweep.grid")
    grid = {
        key: _value(tuple[typ, ...], grid_d[key], f"sweep.grid.{key}", {"nonempty": True})
        for key, typ in _SWEEP_KEYS.items()
        if key in grid_d
    }
    return SweepSection(grid=grid or dict(DEFAULT_SWEEP_GRID))


def _parse(raw) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    _check_keys(raw, (*_SECTIONS, "sweep", "output_dir"), "config")
    if raw.get("dataset") is None:
        raise ConfigError("config: missing required section 'dataset'")
    sections = {name: _section(cls, raw[name], name) for name, cls in _SECTIONS.items() if raw.get(name) is not None}
    dataset, il, run = sections["dataset"], sections.get("il"), sections.get("run")
    for kind, key in (("idx", "idx"), ("csv", "csv_path")):
        if dataset.kind == kind and getattr(dataset, key) is None:
            raise ConfigError(f"dataset: missing required key {key!r} (dataset.kind is {kind})")
    if run is not None:
        if run.n_b > run.n_B:
            raise ConfigError(f"run.n_b: need 1 <= n_b <= n_B, got n_b={run.n_b}, n_B={run.n_B}")
        if run.policy.kind == "bald" and run.model.dropout == 0:
            raise ConfigError("run.policy.kind: bald needs run.model.dropout > 0; without dropout every "
                              "Monte-Carlo sample is the same and the scores are rounding noise")
        if run.il_update_mode == "original" and il is not None and il.scheme == "two-halves":
            raise ConfigError("run.il_update_mode=original needs a single live model; two-halves tables cannot be updated")
    return ExperimentConfig(
        dataset=dataset, il=il, run=run, ladder=sections.get("ladder"),
        sweep=_sweep_section(raw["sweep"]) if raw.get("sweep") is not None else None,
        output_dir=_value(str, raw["output_dir"], "output_dir", {}) if raw.get("output_dir") is not None else None,
        raw=raw,
    )


def sweep_configs(cfg: ExperimentConfig) -> list[ExperimentConfig]:
    """The config of each cell of the sweep grid (the default grid when the
    config has no sweep section), in cell order. A cell sets its values in
    run; a batch_size cell sets n_b and keeps the ratio n_b/n_B. An invalid
    cell raises a ConfigError naming it."""
    grid = cfg.sweep.grid if cfg.sweep is not None else DEFAULT_SWEEP_GRID
    cells: list[dict] = [{}]
    for key, values in grid.items():
        cells = [dict(cell, **{key: value}) for cell in cells for value in values]
    ratio = cfg.run.n_b / cfg.run.n_B
    configs = []
    for i, cell in enumerate(cells):
        raw = json.loads(json.dumps(cfg.raw))
        run = raw["run"]
        for key, value in cell.items():
            if key == "batch_size":
                run["n_b"], run["n_B"] = value, max(value, round(value / ratio))
            elif key in ("n_b", "n_B"):
                run[key] = value
            else:
                run["optimizer"] = {**(run.get("optimizer") or {}), key: value}
        try:
            configs.append(_parse(raw))
        except ConfigError as exc:
            raise ConfigError(f"sweep.grid cell {i:03d} {cell}: {exc}") from exc
    return configs


def parse_config(raw: dict) -> ExperimentConfig:
    cfg = _parse(raw)
    if cfg.sweep is not None and cfg.run is not None:
        sweep_configs(cfg)  # every cell is checked before any stage writes output
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        raw = yaml.safe_load(f)
    return parse_config(raw if raw is not None else {})


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable hash of the experiment, excluding seeds-of-record and output dir."""
    raw = json.loads(json.dumps(cfg.raw))  # deep copy via round-trip
    raw.pop("output_dir", None)
    if isinstance(raw.get("run"), dict):
        raw["run"].pop("seeds", None)
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def dataset_config_hash(cfg: ExperimentConfig) -> str:
    """Hash of everything the prepared dataset artifacts depend on: the
    dataset pipeline plus the holdout scheme (which decides whether a holdout
    split is carved at all)."""
    subset = {
        "dataset": cfg.raw.get("dataset"),
        "scheme": cfg.il.scheme if cfg.il is not None else "holdout",
    }
    canonical = json.dumps(subset, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
