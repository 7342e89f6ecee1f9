"""Experiment configuration: a single YAML document, strictly validated.

The dataclasses below are the schema, from the root ExperimentConfig down.
Each field declares its key, type, default and allowed values once; `_field`
records the allowed interval (bounds such as "[0, 1)", applied to each
element of a list) and choices in the field's metadata. `_section` walks the
fields to build a dataclass from its mapping: it rejects unknown keys, fills
in defaults, converts and checks every value, and starts every error with the
dotted key. A check that spans keys lives in the __post_init__ of the
narrowest dataclass that holds them.

The parsed config is the only form kept; `as_dict` writes it out as plain
data. built_from hashes the slice of that form an artifact is built from, so
it reflects what a config means, not how it is written.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
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

    def __post_init__(self):
        # Decoupled decay scales every parameter by 1 - learning_rate * weight_decay
        # each step; at >= 1 that zeroes or flips the parameters and training diverges.
        if self.kind == "adamw" and self.learning_rate * self.weight_decay >= 1:
            raise ValueError(f"adamw needs learning_rate * weight_decay < 1, got learning_rate="
                             f"{self.learning_rate} and weight_decay={self.weight_decay}")


@dataclass(frozen=True)
class SyntheticSpec:
    classes: int = _field(10, bounds="[2, inf)")
    per_class: int = _field(100, bounds="[1, inf)")
    dim: int = _field(32, bounds="[1, inf)")
    spread: float = _field(1.0, bounds="(0, inf)")
    radius: float = _field(3.0, bounds="[0, inf)")
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

    def __post_init__(self):
        for kind, key in (("idx", "idx"), ("csv", "csv_path")):
            if self.kind == kind and getattr(self, key) is None:
                raise ValueError(f"missing required key {key!r} (dataset.kind is {kind})")
        # data.make_relevance_skew keeps round(keep_frac * count) of each class
        # outside the high_frac share, and an emptied class is an error.
        syn, rel = self.synthetic, self.relevance
        if self.kind == "synthetic" and rel is not None and math.ceil(rel.high_frac * syn.classes) < syn.classes:
            if int(round(rel.keep_frac * syn.per_class)) < 1:
                raise ValueError(f"relevance.keep_frac: keep_frac={rel.keep_frac} keeps none of the "
                                 f"synthetic.per_class={syn.per_class} examples of a subsampled class")


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

    def __post_init__(self):
        if self.n_b > self.n_B:
            raise ValueError(f"n_b: need 1 <= n_b <= n_B, got n_b={self.n_b}, n_B={self.n_B}")
        if self.policy.kind == "bald" and self.model.dropout == 0:
            raise ValueError("policy.kind: bald needs run.model.dropout > 0; without dropout every "
                             "Monte-Carlo sample is the same and the scores are rounding noise")
        if self.model.batchnorm and self.n_b < 2:
            raise ValueError("model.batchnorm: batch normalization needs run.n_b >= 2, got run.n_b=1; "
                             "a training step on one row has no batch statistics")
        repeated = [s for i, s in enumerate(self.seeds) if s in self.seeds[:i]]
        if repeated:
            raise ValueError(f"seeds: seed {repeated[0]} is listed more than once in {list(self.seeds)}; "
                             "each seed is one run and one record")


@dataclass(frozen=True)
class LadderConfig:
    """The ladder section: the settings of ladder.run_ladder."""

    n_b: int = _field(6, bounds="[1, inf)")
    n_B: int = _field(60, bounds="[2, inf)")  # Spearman needs two candidates a step
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


@dataclass(frozen=True)
class SweepGrid:
    """The values each swept key takes, in cell-numbering order. A grid that
    sets none of them means DEFAULT_SWEEP_GRID."""

    batch_size: tuple[int, ...] | None = _field(None, nonempty=True)
    n_b: tuple[int, ...] | None = _field(None, nonempty=True)
    n_B: tuple[int, ...] | None = _field(None, nonempty=True)
    learning_rate: tuple[float, ...] | None = _field(None, nonempty=True)
    weight_decay: tuple[float, ...] | None = _field(None, nonempty=True)


@dataclass(frozen=True)
class SweepSection:
    grid: SweepGrid = SweepGrid()


@dataclass(frozen=True)
class ExperimentConfig:
    """The root of the schema: one field per section."""

    dataset: DatasetSection
    il: IlSection | None = None
    run: RunSection | None = None
    ladder: LadderConfig | None = None
    sweep: SweepSection | None = None
    output_dir: str | None = None

    def __post_init__(self):
        two_halves = self.il is not None and self.il.scheme == "two-halves"
        if two_halves and self.run is not None and self.run.il_update_mode == "original":
            raise ValueError("run.il_update_mode=original needs a single live model; "
                             "two-halves tables cannot be updated")
        if self.il is None and self.run is not None and self.run.policy.kind == "svp-entropy":
            raise ValueError("run.policy.kind: svp-entropy needs the il section, which defines its proxy model")
        if self.il is None and self.dataset.noise.kind == "structured":
            raise ValueError("dataset.noise.kind: structured noise needs the il section for its reference model")


# Exponent spellings such as 1e-3 or 2.5E4 are floats in YAML 1.2 but plain
# strings to PyYAML's YAML 1.1 resolver, which wants a dot and a signed exponent.
_EXPONENT_FLOAT = re.compile(r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+")


# Resolving the annotation strings costs more than the rest of a parse.
_type_hints = functools.cache(typing.get_type_hints)


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
    """Build the dataclass cls from the mapping d at the dotted path ("" for
    the root). A key that is absent or null takes the field's default."""
    where, prefix = (path, f"{path}.") if path else ("config", "")
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(d).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(d) - set(fields)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}; allowed: {sorted(fields)}")
    hints = _type_hints(cls)
    kwargs = {}
    for name, f in fields.items():
        if d.get(name) is not None:
            kwargs[name] = _value(hints[name], d[name], prefix + name, f.metadata)
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"{where}: missing required key {name!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        # A check names the field it rejects first, or the key path below it.
        first = re.match(r"\w*", str(exc)).group()
        raise ConfigError(f"{prefix}{exc}" if first in fields else f"{where}: {exc}") from exc


def as_dict(cfg: ExperimentConfig) -> dict:
    """The parsed config as plain data: every key written out, lists in place
    of tuples. parse_config reads it back to an equal config."""
    return json.loads(json.dumps(dataclasses.asdict(cfg)))


def sweep_configs(cfg: ExperimentConfig) -> list[ExperimentConfig]:
    """The config of each cell of the sweep grid (the default grid when the
    config has no sweep section or its grid sets no key), in cell order. A
    cell sets its values in run; a batch_size cell sets n_b and keeps the
    ratio n_b/n_B. An invalid cell raises a ConfigError naming it."""
    grid = vars(cfg.sweep.grid) if cfg.sweep is not None else {}
    grid = {key: values for key, values in grid.items() if values is not None} or DEFAULT_SWEEP_GRID
    cells: list[dict] = [{}]
    for key, values in grid.items():
        cells = [dict(cell, **{key: value}) for cell in cells for value in values]
    ratio = cfg.run.n_b / cfg.run.n_B
    configs = []
    for i, cell in enumerate(cells):
        d = as_dict(cfg)
        run = d["run"]
        for key, value in cell.items():
            if key == "batch_size":
                run["n_b"], run["n_B"] = value, max(value, round(value / ratio))
            elif key in ("n_b", "n_B"):
                run[key] = value
            else:
                run["optimizer"][key] = value
        try:
            configs.append(_section(ExperimentConfig, d, ""))
        except ConfigError as exc:
            raise ConfigError(f"sweep.grid cell {i:03d} {cell}: {exc}") from exc
    return configs


def parse_config(d: dict) -> ExperimentConfig:
    cfg = _section(ExperimentConfig, d, "")
    if cfg.sweep is not None and cfg.run is not None:
        sweep_configs(cfg)  # every cell is checked before any stage writes output
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        d = yaml.safe_load(f)
    return parse_config(d if d is not None else {})


def _hash(d: dict) -> str:
    canonical = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def built_from(cfg: ExperimentConfig, artifact: str) -> str:
    """The hash of the config slice that artifacts of one kind are built
    from: dataset (the dataset section and il.scheme, and under structured
    noise the il keys its reference model is trained from), il (that and
    il), run (that and run without seeds, targets and dump_scores, and il
    when the policy reads IL values or trains svp-entropy's proxy) or ladder
    (that and ladder). An edit outside the slice keeps the artifact valid."""
    d = as_dict(cfg)
    sliced = {"dataset": d["dataset"], "scheme": cfg.il.scheme if cfg.il is not None else "holdout"}
    if cfg.dataset.noise.kind == "structured":  # prepare fits its reference model from these
        sliced["reference"] = {key: d["il"][key] for key in ("hidden", "epochs", "batch_size", "optimizer", "seed")}
    dataset = _hash(sliced)
    if artifact == "dataset":
        return dataset
    part = {"dataset": dataset, artifact: d[artifact]}
    if artifact == "run" and cfg.run is not None:
        for key in ("seeds", "targets", "dump_scores"):
            del part["run"][key]
        if cfg.run.policy.needs_il or cfg.run.policy.kind == "svp-entropy":
            part["il"] = d["il"]
    return _hash(part)
