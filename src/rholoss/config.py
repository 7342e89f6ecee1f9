"""Experiment configuration: a single YAML document, strictly validated.

Unknown keys are rejected everywhere so typos fail loudly. The config hash
identifies an experiment for provenance headers; it covers every section
except run.seeds (seeds vary within one experiment) and output_dir.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
import yaml

from .optim import OPTIMIZER_KINDS
from .selection import ALL_KINDS, SelectionPolicy


class ConfigError(ValueError):
    pass


def _check_keys(d: dict, allowed, path: str) -> None:
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}")


_REQUIRED = object()

# Exponent spellings such as 1e-3 or 2.5E4 are floats in YAML 1.2 but plain
# strings to PyYAML's YAML 1.1 resolver, which wants a dot and a signed exponent.
_EXPONENT_FLOAT = re.compile(r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+")


def _get(d: dict, key: str, typ, path: str, default=_REQUIRED):
    if key not in d or d[key] is None:
        if default is _REQUIRED:
            raise ConfigError(f"{path}: missing required key {key!r}")
        return default
    value = d[key]
    if typ is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if typ is float and isinstance(value, str) and _EXPONENT_FLOAT.fullmatch(value):
        value = float(value)
    if typ is not None and not isinstance(value, typ):
        raise ConfigError(f"{path}.{key}: expected {getattr(typ, '__name__', typ)}, got {type(value).__name__}")
    return value


def _hidden(d: dict, key: str, path: str, default=(128, 128)) -> tuple[int, ...]:
    raw = _get(d, key, list, path, default=list(default))
    if not raw or not all(isinstance(v, int) and v > 0 for v in raw):
        raise ConfigError(f"{path}.{key}: expected a list of positive ints")
    return tuple(raw)


def _batch_sizes(d: dict, path: str, default: tuple[int, int]) -> tuple[int, int]:
    """(n_b, n_B): the trained batch is picked from the candidate batch, so it cannot be larger."""
    n_b = _get(d, "n_b", int, path, default=default[0])
    n_B = _get(d, "n_B", int, path, default=default[1])
    if not 1 <= n_b <= n_B:
        raise ConfigError(f"{path}.n_b: need 1 <= n_b <= n_B, got n_b={n_b}, n_B={n_B}")
    return n_b, n_B


@dataclass(frozen=True)
class OptimizerSettings:
    kind: str = "adamw"
    learning_rate: float = 1e-3
    weight_decay: float = 0.01


def _optimizer(d: dict | None, path: str) -> OptimizerSettings:
    if d is None:
        return OptimizerSettings()
    _check_keys(d, ("kind", "learning_rate", "weight_decay"), path)
    kind = _get(d, "kind", str, path, default="adamw")
    if kind not in OPTIMIZER_KINDS:
        raise ConfigError(f"{path}.kind: expected {'|'.join(OPTIMIZER_KINDS)}, got {kind!r}")
    return OptimizerSettings(
        kind=kind,
        learning_rate=_get(d, "learning_rate", float, path, default=1e-3),
        weight_decay=_get(d, "weight_decay", float, path, default=0.01),
    )


@dataclass(frozen=True)
class SyntheticSpec:
    classes: int = 10
    per_class: int = 100
    dim: int = 32
    spread: float = 1.0
    radius: float = 3.0
    seed: int = 0


@dataclass(frozen=True)
class IdxSpec:
    images: str
    labels: str
    test_images: str | None = None
    test_labels: str | None = None


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = "none"  # none | uniform | structured
    p: float = 0.1
    pairs: int = 4
    flip_prob: float = 0.5
    seed: int = 0


@dataclass(frozen=True)
class RelevanceSpec:
    high_frac: float = 0.2
    keep_frac: float = 0.06
    seed: int = 0


@dataclass(frozen=True)
class SplitSettings:
    test_fraction: float = 0.2
    holdout_fraction: float = 0.25
    seed: int = 0


@dataclass(frozen=True)
class DatasetSection:
    kind: str  # synthetic | idx | csv
    synthetic: SyntheticSpec | None
    idx: IdxSpec | None
    csv_path: str | None
    split: SplitSettings
    noise: NoiseSpec
    relevance: RelevanceSpec | None
    duplicate_factor: int = 1


@dataclass(frozen=True)
class IlSection:
    hidden: tuple[int, ...] = (128, 128)
    dropout: float = 0.0
    epochs: int = 20
    batch_size: int = 64
    scheme: str = "holdout"  # holdout | two-halves
    optimizer: OptimizerSettings = OptimizerSettings()
    seed: int = 0


@dataclass(frozen=True)
class ModelSpec:
    hidden: tuple[int, ...] = (128, 128)
    dropout: float = 0.0
    batchnorm: bool = False
    seed: int = 0


@dataclass(frozen=True)
class RunSection:
    policy: SelectionPolicy
    n_b: int = 32
    n_B: int = 320
    epochs: int = 10
    eval_every: int | None = None
    il_update_mode: str = "frozen"
    lr_scale: float = 0.01
    model: ModelSpec = ModelSpec()
    optimizer: OptimizerSettings = OptimizerSettings()
    seeds: tuple[int, ...] = (0,)
    targets: tuple[float, ...] = ()
    dump_scores: bool = False


@dataclass(frozen=True)
class LadderSettings:
    n_b: int = 6
    n_B: int = 60
    ensemble_size: int = 5
    convergence_epochs: int = 5
    convergence_tol: float = 1e-3
    il_pretrain_epochs: int = 30
    hidden: tuple[int, ...] = (64, 64)
    small_hidden: tuple[int, ...] = (32, 32)
    batch_size: int = 32
    optimizer: OptimizerSettings = OptimizerSettings()
    seed: int = 0


# Reported hyperparameter grid used as the default sweep template.
DEFAULT_SWEEP_GRID: dict[str, tuple] = {
    "batch_size": (160, 320, 960),
    "learning_rate": (0.0001, 0.001, 0.01),
    "weight_decay": (0.001, 0.01, 0.1),
}

_SWEEP_KEYS = ("batch_size", "n_b", "n_B", "learning_rate", "weight_decay")


@dataclass(frozen=True)
class SweepSection:
    grid: dict[str, tuple]


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSection
    il: IlSection | None
    run: RunSection | None
    ladder: LadderSettings | None
    sweep: SweepSection | None
    output_dir: str | None
    raw: dict


def _dataset_section(d: dict) -> DatasetSection:
    path = "dataset"
    _check_keys(d, ("kind", "synthetic", "idx", "csv_path", "split", "noise", "relevance", "duplicate_factor"), path)
    kind = _get(d, "kind", str, path)
    if kind not in ("synthetic", "idx", "csv"):
        raise ConfigError(f"{path}.kind: expected synthetic|idx|csv, got {kind!r}")
    synthetic = None
    idx = None
    csv_path = None
    if kind == "synthetic":
        sub = _get(d, "synthetic", dict, path, default={})
        _check_keys(sub, ("classes", "per_class", "dim", "spread", "radius", "seed"), f"{path}.synthetic")
        synthetic = SyntheticSpec(
            classes=_get(sub, "classes", int, f"{path}.synthetic", default=10),
            per_class=_get(sub, "per_class", int, f"{path}.synthetic", default=100),
            dim=_get(sub, "dim", int, f"{path}.synthetic", default=32),
            spread=_get(sub, "spread", float, f"{path}.synthetic", default=1.0),
            radius=_get(sub, "radius", float, f"{path}.synthetic", default=3.0),
            seed=_get(sub, "seed", int, f"{path}.synthetic", default=0),
        )
    elif kind == "idx":
        sub = _get(d, "idx", dict, path)
        _check_keys(sub, ("images", "labels", "test_images", "test_labels"), f"{path}.idx")
        idx = IdxSpec(
            images=_get(sub, "images", str, f"{path}.idx"),
            labels=_get(sub, "labels", str, f"{path}.idx"),
            test_images=_get(sub, "test_images", str, f"{path}.idx", default=None),
            test_labels=_get(sub, "test_labels", str, f"{path}.idx", default=None),
        )
    else:
        csv_path = _get(d, "csv_path", str, path)
    split_d = _get(d, "split", dict, path, default={})
    _check_keys(split_d, ("test_fraction", "holdout_fraction", "seed"), f"{path}.split")
    split = SplitSettings(
        test_fraction=_get(split_d, "test_fraction", float, f"{path}.split", default=0.2),
        holdout_fraction=_get(split_d, "holdout_fraction", float, f"{path}.split", default=0.25),
        seed=_get(split_d, "seed", int, f"{path}.split", default=0),
    )
    noise_d = _get(d, "noise", dict, path, default={})
    _check_keys(noise_d, ("kind", "p", "pairs", "flip_prob", "seed"), f"{path}.noise")
    noise = NoiseSpec(
        kind=_get(noise_d, "kind", str, f"{path}.noise", default="none"),
        p=_get(noise_d, "p", float, f"{path}.noise", default=0.1),
        pairs=_get(noise_d, "pairs", int, f"{path}.noise", default=4),
        flip_prob=_get(noise_d, "flip_prob", float, f"{path}.noise", default=0.5),
        seed=_get(noise_d, "seed", int, f"{path}.noise", default=0),
    )
    if noise.kind not in ("none", "uniform", "structured"):
        raise ConfigError(f"{path}.noise.kind: expected none|uniform|structured, got {noise.kind!r}")
    relevance = None
    rel_d = _get(d, "relevance", dict, path, default=None)
    if rel_d is not None:
        _check_keys(rel_d, ("high_frac", "keep_frac", "seed"), f"{path}.relevance")
        relevance = RelevanceSpec(
            high_frac=_get(rel_d, "high_frac", float, f"{path}.relevance", default=0.2),
            keep_frac=_get(rel_d, "keep_frac", float, f"{path}.relevance", default=0.06),
            seed=_get(rel_d, "seed", int, f"{path}.relevance", default=0),
        )
    return DatasetSection(
        kind=kind,
        synthetic=synthetic,
        idx=idx,
        csv_path=csv_path,
        split=split,
        noise=noise,
        relevance=relevance,
        duplicate_factor=_get(d, "duplicate_factor", int, path, default=1),
    )


def _il_section(d: dict) -> IlSection:
    path = "il"
    _check_keys(d, ("hidden", "dropout", "epochs", "batch_size", "scheme", "optimizer", "seed"), path)
    scheme = _get(d, "scheme", str, path, default="holdout")
    if scheme not in ("holdout", "two-halves"):
        raise ConfigError(f"{path}.scheme: expected holdout|two-halves, got {scheme!r}")
    return IlSection(
        hidden=_hidden(d, "hidden", path),
        dropout=_get(d, "dropout", float, path, default=0.0),
        epochs=_get(d, "epochs", int, path, default=20),
        batch_size=_get(d, "batch_size", int, path, default=64),
        scheme=scheme,
        optimizer=_optimizer(d.get("optimizer"), f"{path}.optimizer"),
        seed=_get(d, "seed", int, path, default=0),
    )


def _run_section(d: dict) -> RunSection:
    path = "run"
    _check_keys(
        d,
        ("policy", "n_b", "n_B", "epochs", "eval_every", "il_update_mode", "lr_scale",
         "model", "optimizer", "seeds", "targets", "dump_scores"),
        path,
    )
    pol_d = _get(d, "policy", dict, path)
    _check_keys(pol_d, ("kind", "mc_samples", "temperature", "keep_fraction"), f"{path}.policy")
    kind = _get(pol_d, "kind", str, f"{path}.policy")
    if kind not in ALL_KINDS:
        raise ConfigError(f"{path}.policy.kind: unknown kind {kind!r}; allowed: {sorted(ALL_KINDS)}")
    policy = SelectionPolicy(
        kind=kind,
        mc_samples=_get(pol_d, "mc_samples", int, f"{path}.policy", default=16),
        temperature=_get(pol_d, "temperature", float, f"{path}.policy", default=1.0),
        keep_fraction=_get(pol_d, "keep_fraction", float, f"{path}.policy", default=0.5),
    )
    model_d = _get(d, "model", dict, path, default={})
    _check_keys(model_d, ("hidden", "dropout", "batchnorm", "seed"), f"{path}.model")
    model = ModelSpec(
        hidden=_hidden(model_d, "hidden", f"{path}.model"),
        dropout=_get(model_d, "dropout", float, f"{path}.model", default=0.0),
        batchnorm=_get(model_d, "batchnorm", bool, f"{path}.model", default=False),
        seed=_get(model_d, "seed", int, f"{path}.model", default=0),
    )
    seeds = _get(d, "seeds", list, path, default=[0])
    if not seeds or not all(isinstance(s, int) for s in seeds):
        raise ConfigError(f"{path}.seeds: expected a nonempty list of ints")
    targets = _get(d, "targets", list, path, default=[])
    if not all(isinstance(t, (int, float)) for t in targets):
        raise ConfigError(f"{path}.targets: expected a list of numbers")
    eval_every = _get(d, "eval_every", int, path, default=None)
    mode = _get(d, "il_update_mode", str, path, default="frozen")
    if mode not in ("frozen", "original"):
        raise ConfigError(f"{path}.il_update_mode: expected frozen|original, got {mode!r}")
    n_b, n_B = _batch_sizes(d, path, default=(32, 320))
    return RunSection(
        policy=policy,
        n_b=n_b,
        n_B=n_B,
        epochs=_get(d, "epochs", int, path, default=10),
        eval_every=eval_every,
        il_update_mode=mode,
        lr_scale=_get(d, "lr_scale", float, path, default=0.01),
        model=model,
        optimizer=_optimizer(d.get("optimizer"), f"{path}.optimizer"),
        seeds=tuple(seeds),
        targets=tuple(float(t) for t in targets),
        dump_scores=_get(d, "dump_scores", bool, path, default=False),
    )


def _ladder_section(d: dict) -> LadderSettings:
    path = "ladder"
    _check_keys(
        d,
        ("n_b", "n_B", "ensemble_size", "convergence_epochs", "convergence_tol",
         "il_pretrain_epochs", "hidden", "small_hidden", "batch_size", "optimizer", "seed"),
        path,
    )
    n_b, n_B = _batch_sizes(d, path, default=(6, 60))
    return LadderSettings(
        n_b=n_b,
        n_B=n_B,
        ensemble_size=_get(d, "ensemble_size", int, path, default=5),
        convergence_epochs=_get(d, "convergence_epochs", int, path, default=5),
        convergence_tol=_get(d, "convergence_tol", float, path, default=1e-3),
        il_pretrain_epochs=_get(d, "il_pretrain_epochs", int, path, default=30),
        hidden=_hidden(d, "hidden", path, default=(64, 64)),
        small_hidden=_hidden(d, "small_hidden", path, default=(32, 32)),
        batch_size=_get(d, "batch_size", int, path, default=32),
        optimizer=_optimizer(d.get("optimizer"), f"{path}.optimizer"),
        seed=_get(d, "seed", int, path, default=0),
    )


def _sweep_section(d: dict) -> SweepSection:
    path = "sweep"
    _check_keys(d, ("grid",), path)
    grid_d = _get(d, "grid", dict, path, default={})
    if not grid_d:
        return SweepSection(grid=dict(DEFAULT_SWEEP_GRID))
    _check_keys(grid_d, _SWEEP_KEYS, f"{path}.grid")
    grid = {}
    for key in _SWEEP_KEYS:  # fixed iteration order keeps cell numbering stable
        if key in grid_d:
            vals = grid_d[key]
            if not isinstance(vals, list) or not vals:
                raise ConfigError(f"{path}.grid.{key}: expected a nonempty list")
            grid[key] = tuple(vals)
    return SweepSection(grid=grid)


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    _check_keys(raw, ("dataset", "il", "run", "ladder", "sweep", "output_dir"), "config")
    if "dataset" not in raw:
        raise ConfigError("config: missing required section 'dataset'")
    dataset = _dataset_section(_get(raw, "dataset", dict, "config"))
    il = _il_section(raw["il"]) if raw.get("il") is not None else None
    run = _run_section(raw["run"]) if raw.get("run") is not None else None
    ladder = _ladder_section(raw["ladder"]) if raw.get("ladder") is not None else None
    sweep = _sweep_section(raw["sweep"]) if raw.get("sweep") is not None else None
    output_dir = _get(raw, "output_dir", str, "config", default=None)
    if run is not None and run.il_update_mode == "original" and il is not None and il.scheme == "two-halves":
        raise ConfigError("run.il_update_mode=original needs a single live model; two-halves tables cannot be updated")
    return ExperimentConfig(dataset=dataset, il=il, run=run, ladder=ladder, sweep=sweep,
                            output_dir=output_dir, raw=raw)


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
