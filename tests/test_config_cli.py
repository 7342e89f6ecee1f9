import dataclasses
import json
import math
import os
import re
import shutil
import threading
import types
import typing
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rholoss import cli, data
from rholoss.cli import main
from rholoss.config import (
    DEFAULT_SWEEP_GRID,
    ConfigError,
    DatasetSection,
    IlSection,
    LadderConfig,
    OptimizerSettings,
    RelevanceSpec,
    RunSection,
    SyntheticSpec,
    as_dict,
    built_from,
    load_config,
    parse_config,
    sweep_configs,
)
from rholoss.ilmodel import load_il_table
from rholoss.nn import init_mlp, load_model
from rholoss.optim import make_optimizer
from rholoss.records import load_run_record, read_header
from rholoss.selection import ALL_KINDS, SelectionPolicy
from rholoss.trainer import RunConfig

from test_data import write_idx_pair


BASE_CONFIG = {
    "dataset": {
        "kind": "synthetic",
        "synthetic": {"classes": 4, "per_class": 60, "dim": 8, "spread": 1.0, "radius": 2.5, "seed": 5},
        "split": {"test_fraction": 0.25, "holdout_fraction": 0.3, "seed": 6},
        "noise": {"kind": "uniform", "p": 0.1, "seed": 7},
    },
    "il": {
        "hidden": [16],
        "epochs": 3,
        "batch_size": 32,
        "scheme": "holdout",
        "optimizer": {"kind": "adamw", "learning_rate": 0.001, "weight_decay": 0.01},
        "seed": 8,
    },
    "run": {
        "policy": {"kind": "rho-loss"},
        "n_b": 4,
        "n_B": 20,
        "epochs": 3,
        "model": {"hidden": [16], "seed": 9},
        "optimizer": {"kind": "adamw", "learning_rate": 0.001, "weight_decay": 0.01},
        "seeds": [1, 2],
        "targets": [0.5],
    },
    "ladder": {
        "n_b": 3,
        "n_B": 30,
        "ensemble_size": 2,
        "convergence_epochs": 2,
        "il_pretrain_epochs": 5,
        "hidden": [8],
        "small_hidden": [4],
        "batch_size": 16,
        "seed": 10,
    },
}


def write_config(tmp_path, overrides=None, name="config.yaml"):
    raw = json.loads(json.dumps(BASE_CONFIG))
    if overrides:
        for dotted, value in overrides.items():
            node = raw
            keys = dotted.split(".")
            for k in keys[:-1]:
                node = node.setdefault(k, {})
            if value is None:
                node.pop(keys[-1], None)
            else:
                node[keys[-1]] = value
    path = tmp_path / name
    with open(path, "w") as f:
        yaml.safe_dump(raw, f)
    return path


# ---------------------------------------------------------------- config


def test_config_roundtrip_and_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.dataset.kind == "synthetic"
    assert cfg.run.policy.kind == "rho-loss"
    assert cfg.run.n_b == 4
    assert cfg.il.scheme == "holdout"
    assert cfg.ladder.ensemble_size == 2


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write_config(tmp_path, {"dataset.bogus": 1}))
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write_config(tmp_path, {"run.policy.krnd": "x"}))
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write_config(tmp_path, {"frobnicate": {}}))


def test_config_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"run.policy.kind": "mystery"}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"dataset.kind": "parquet"}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"run.seeds": []}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"il.scheme": "thirds"}))


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"il.optimizer.kind": "adam"}, "il.optimizer.kind"),
        ({"run.optimizer.kind": "adam"}, "run.optimizer.kind"),
        ({"ladder.optimizer.kind": "rmsprop"}, "ladder.optimizer.kind"),
        ({"run.n_b": 21}, "run.n_b"),
        ({"ladder.n_b": 31}, "ladder.n_b"),
        # one value out of its declared range in each bounded section
        ({"dataset.duplicate_factor": 0}, "dataset.duplicate_factor"),
        ({"dataset.synthetic.classes": 1}, "dataset.synthetic.classes"),
        ({"dataset.split.test_fraction": 1.0}, "dataset.split.test_fraction"),
        ({"dataset.noise.p": 1.5}, "dataset.noise.p"),
        ({"dataset.relevance": {"keep_frac": 0}}, "dataset.relevance.keep_frac"),
        ({"il.batch_size": 0}, "il.batch_size"),
        ({"il.optimizer.learning_rate": -0.001}, "il.optimizer.learning_rate"),
        ({"run.epochs": 0}, "run.epochs"),
        ({"run.seeds": [1, -2]}, "run.seeds[1]"),
        # two runs of one seed would write one record twice
        ({"run.seeds": [3, 1, 2, 1]}, "run.seeds: seed 1 is listed more than once"),
        ({"run.model.hidden": [16, 0]}, "run.model.hidden[1]"),
        ({"run.optimizer.weight_decay": -0.01}, "run.optimizer.weight_decay"),
        ({"ladder.convergence_tol": -1.0}, "ladder.convergence_tol"),
        ({"ladder.optimizer.learning_rate": -1.0}, "ladder.optimizer.learning_rate"),
        # a bool is not an int
        ({"run.n_b": True}, "run.n_b"),
        # a check of the section's own constructor
        ({"run.policy": {"kind": "grad-norm-is", "temperature": 0}}, "run.policy.temperature"),
        # checks across keys
        ({"dataset.idx": {"images": "a", "labels": "b", "test_images": "c"}}, "dataset.idx.test_images"),
        ({"run.policy.kind": "bald"}, "run.model.dropout"),
        ({"sweep": {"grid": {"run.optimizer.learning_rate": [0.001, -1.0]}}}, "sweep.grid cell 001"),
        ({"run.model.batchnorm": True, "run.n_b": 1}, "run.model.batchnorm"),
        # the models that the il section defines
        ({"run.policy.kind": "svp-entropy", "il": None}, "run.policy.kind"),
        ({"dataset.noise.kind": "structured", "il": None}, "dataset.noise.kind"),
        # a ladder step on one candidate has no rank correlation
        ({"ladder.n_b": 1, "ladder.n_B": 1}, "ladder.n_B"),
        # AdamW decay that flips the parameters every step
        ({"ladder.optimizer": {"kind": "adamw", "learning_rate": 2.0, "weight_decay": 9.0}}, "ladder.optimizer"),
        # round(0.06 * 4) keeps none of a subsampled class
        ({"dataset.synthetic.per_class": 4, "dataset.relevance": {"keep_frac": 0.06}}, "dataset.relevance.keep_frac"),
        # an infinite radius would scale the class means to non-finite features
        ({"dataset.synthetic.radius": math.inf}, "dataset.synthetic.radius"),
        ({"dataset.synthetic.radius": math.nan}, "dataset.synthetic.radius"),
        ({"dataset.synthetic.radius": -1.0}, "dataset.synthetic.radius"),
    ],
)
def test_config_errors_name_the_key_before_any_output(tmp_path, capsys, overrides, key):
    cfg_path = write_config(tmp_path, overrides)
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_config(cfg_path)
    out = tmp_path / "out"
    for command in ("prepare", "run"):
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
    assert not out.exists()


def test_config_accepts_yaml_exponent_floats(tmp_path):
    path = write_config(tmp_path)
    text = path.read_text()
    assert "learning_rate: 0.001" in text
    path.write_text(text.replace("learning_rate: 0.001", "learning_rate: 1e-3").replace("radius: 2.5", "radius: 25E-1"))
    cfg = load_config(path)
    assert cfg.il.optimizer.learning_rate == cfg.run.optimizer.learning_rate == 0.001
    assert cfg.dataset.synthetic.radius == 2.5
    for bad in ("fast", "1e-3x", "e5", "1e"):
        with pytest.raises(ConfigError, match="run.optimizer"):
            load_config(write_config(tmp_path, {"run.optimizer.learning_rate": bad}))


ARTIFACTS = ("dataset", "il", "run", "ladder")
STRUCTURED = {"kind": "structured", "pairs": 2, "flip_prob": 0.5, "seed": 7}


@pytest.mark.parametrize(
    "base, edit, changed",
    [
        ({}, {"output_dir": "/elsewhere", "run.seeds": [7, 8, 9], "run.targets": [], "run.dump_scores": True}, ()),
        ({}, {"dataset.noise.p": 0.2}, ARTIFACTS),
        ({}, {"il.scheme": "two-halves"}, ARTIFACTS),  # the scheme decides whether a holdout is carved
        ({}, {"il.epochs": 4}, ("il", "run")),  # rho-loss reads IL values
        ({"run.policy.kind": "uniform"}, {"il.epochs": 4}, ("il",)),
        ({"run.policy.kind": "svp-entropy"}, {"il.epochs": 4}, ("il", "run")),  # the proxy is trained as il says
        ({}, {"run.n_b": 5}, ("run",)),
        ({}, {"run.eval_every": 5}, ("run",)),
        ({}, {"ladder.n_B": 40}, ("ladder",)),
        # structured noise's reference model is fitted from il, without its dropout
        ({"dataset.noise": STRUCTURED}, {"il.hidden": [8]}, ARTIFACTS),
        ({"dataset.noise": STRUCTURED}, {"il.seed": 9}, ARTIFACTS),
        ({"dataset.noise": STRUCTURED}, {"il.dropout": 0.2}, ("il", "run")),
        ({"dataset.noise": STRUCTURED, "run.policy.kind": "uniform"}, {"il.epochs": 4}, ARTIFACTS),
    ],
)
def test_built_from_changes_only_with_the_slice_of_its_artifact(tmp_path, base, edit, changed):
    a = load_config(write_config(tmp_path, base, name="a.yaml"))
    b = load_config(write_config(tmp_path, {**base, **edit}, name="b.yaml"))
    assert [kind for kind in ARTIFACTS if built_from(a, kind) != built_from(b, kind)] == list(changed)


@pytest.mark.parametrize(
    "noise, want",
    [
        ({"kind": "uniform", "p": 0.1, "seed": 7},
         ["01939171ad75ed1f", "9e6b90708540994e", "c63e14ce353e401a", "3fe1c76b55412791"]),
        ({"kind": "none"}, ["518262c4b8427203", "70c1cb0e161bfe6c", "9d99c46de2ff8de0", "1fe1fc5ba48a23f9"]),
    ],
)
def test_built_from_without_structured_noise_keeps_the_hashes_prepared_outputs_carry(tmp_path, noise, want):
    # outputs prepared before the dataset slice took structured noise's reference keys stay valid
    cfg = load_config(write_config(tmp_path, {"dataset.noise": noise}))
    assert [built_from(cfg, kind) for kind in ARTIFACTS] == want


def test_train_il_refuses_a_structured_noise_dataset_whose_reference_model_changed(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, {"dataset.noise": STRUCTURED})
    assert main(["prepare", "--config", str(cfg_path), "--out", str(out)]) == 0
    edited = write_config(tmp_path, {"dataset.noise": STRUCTURED, "il.hidden": [8]}, name="edited.yaml")
    capsys.readouterr()
    assert main(["train-il", "--config", str(edited), "--out", str(out)]) == 1
    assert f"{out / 'dataset' / 'manifest.json'} was built from another config" in capsys.readouterr().err
    assert not (out / "il").exists()


def test_a_shortage_of_confused_pairs_names_the_pairs_key_and_writes_no_dataset(tmp_path, capsys):
    few_pairs = {"dataset.noise": {**STRUCTURED, "pairs": 4}, "il.hidden": [2], "il.epochs": 1}
    cfg_path = write_config(tmp_path, few_pairs)
    out = tmp_path / "out"
    assert main(["prepare", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: dataset.noise.pairs: asked for 4 confused pairs")
    assert not (out / "dataset").exists()


def test_original_mode_rejects_two_halves(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"run.il_update_mode": "original", "il.scheme": "two-halves"}))


# Policy settings are checked by SelectionPolicy for the kinds that use them;
# these draws suit every kind.
_POLICIES = st.fixed_dictionaries(
    {"kind": st.sampled_from(ALL_KINDS)},
    optional={
        "mc_samples": st.integers(2, 8),
        "temperature": st.floats(0, 10, exclude_min=True),
        "keep_fraction": st.floats(0, 1, exclude_min=True),
    },
)


def _in_range(typ, meta):
    """Values of a config field inside its declared type, choices and bounds,
    with open-ended ranges cut short to keep datasets and models small."""
    if isinstance(typ, types.UnionType):
        typ = typing.get_args(typ)[0]
    if typ is SelectionPolicy:
        return _POLICIES
    if dataclasses.is_dataclass(typ):
        return _in_range_section(typ)
    if typing.get_origin(typ) is tuple:
        return st.lists(_in_range(typing.get_args(typ)[0], meta), min_size=int(meta.get("nonempty", False)), max_size=3)
    if meta.get("choices"):
        return st.sampled_from(meta["choices"])
    if typ is bool:
        return st.booleans()
    if typ is str:
        return st.text(max_size=8)
    bounds = meta.get("bounds") or "[-10, 10]"
    lo, hi = (float(v) for v in bounds[1:-1].split(","))
    open_lo, open_hi = bounds[0] == "(", bounds[-1] == ")"
    if typ is int:
        return st.integers(int(lo) + open_lo, int(lo) + open_lo + 7)
    if hi == float("inf"):
        hi, open_hi = lo + 10, False
    # A closed end is where a declared range and the library most often disagree.
    ends = [st.just(v) for v, is_open in ((lo, open_lo), (hi, open_hi)) if not is_open]
    return st.one_of(st.floats(lo, hi, exclude_min=open_lo, exclude_max=open_hi), *ends)


def _in_range_section(cls):
    hints = typing.get_type_hints(cls)
    required, optional = {}, {}
    for f in dataclasses.fields(cls):
        values = _in_range(hints[f.name], f.metadata)
        (required if f.default is dataclasses.MISSING else optional)[f.name] = values
    return st.fixed_dictionaries(required, optional=optional)


_SECTIONS_IN_RANGE = dict(
    dataset=_in_range_section(DatasetSection),
    il=_in_range_section(IlSection),
    run=_in_range_section(RunSection),
    ladder=_in_range_section(LadderConfig),
)

# The run keys that vary, or only add output, within one experiment.
_RUN_EXTRAS = st.fixed_dictionaries({
    f.name: _in_range(typing.get_type_hints(RunSection)[f.name], f.metadata)
    for f in dataclasses.fields(RunSection) if f.name in ("seeds", "targets", "dump_scores")
})


def _parse_in_range(dataset, il, run, ladder):
    """Parse drawn sections after making them meet the checks across keys."""
    dataset["kind"] = "synthetic"  # idx and csv read files; their blocks are still drawn and parsed
    for section, cls in ((run, RunSection), (ladder, LadderConfig)):
        section["n_b"] = min(section.get("n_b", cls.n_b), section.get("n_B", cls.n_B))
    assume(not (run["policy"]["kind"] == "bald" and run.get("model", {}).get("dropout", 0.0) == 0))
    assume(not (run.get("model", {}).get("batchnorm", False) and run["n_b"] == 1))
    assume(not (run.get("il_update_mode") == "original" and il.get("scheme") == "two-halves"))
    assume(("test_images" in dataset.get("idx", {})) == ("test_labels" in dataset.get("idx", {})))
    if "seeds" in run:
        run["seeds"] = list(dict.fromkeys(run["seeds"]))  # each seed is one run
    for opt in (section["optimizer"] for section in (il, run, ladder) if "optimizer" in section):
        lr = opt.get("learning_rate", OptimizerSettings.learning_rate)
        if opt.get("kind", OptimizerSettings.kind) == "adamw" and lr * opt.get("weight_decay", OptimizerSettings.weight_decay) >= 1:
            opt["weight_decay"] = 0.5 / lr  # AdamW's decay must not flip the parameters
    if "relevance" in dataset:
        syn, rel = dataset.get("synthetic", {}), dataset["relevance"]
        classes = syn.get("classes", SyntheticSpec.classes)
        subsampled = math.ceil(rel.get("high_frac", RelevanceSpec.high_frac) * classes) < classes
        kept = round(rel.get("keep_frac", RelevanceSpec.keep_frac) * syn.get("per_class", SyntheticSpec.per_class))
        if subsampled and kept < 1:
            rel["keep_frac"] = 1.0  # the relevance skew must keep a row of every class
    return parse_config({"dataset": dataset, "il": il, "run": run, "ladder": ladder})


@settings(max_examples=150, deadline=None)
@given(**_SECTIONS_IN_RANGE)
def test_any_config_inside_the_declared_ranges_parses_and_the_library_accepts_it(dataset, il, run, ladder):
    cfg = _parse_in_range(dataset, il, run, ladder)

    syn, split = cfg.dataset.synthetic, cfg.dataset.split
    base = data.gen_synthetic(syn.classes, syn.per_class, syn.dim, syn.spread, seed=syn.seed, radius=syn.radius)
    if (rel := cfg.dataset.relevance) is not None:
        data.make_relevance_skew(base, high_frac=rel.high_frac, keep_frac=rel.keep_frac, seed=rel.seed)
    data.split(base, split.test_fraction, split.seed)
    data.split(base, split.holdout_fraction, split.seed)
    r = cfg.run
    for seed in r.seeds:
        RunConfig(
            policy=r.policy, n_b=r.n_b, n_B=r.n_B, epochs=r.epochs, optimizer_kind=r.optimizer.kind,
            learning_rate=r.optimizer.learning_rate, weight_decay=r.optimizer.weight_decay,
            il_update_mode=r.il_update_mode, il_lr_scale=r.lr_scale, seed=seed, eval_every=r.eval_every,
        )
    # cfg.ladder is the LadderConfig that run_ladder takes; parsing ran its checks.
    for hidden, dropout, batchnorm in (
        (r.model.hidden, r.model.dropout, r.model.batchnorm),
        (cfg.il.hidden, cfg.il.dropout, False),
        (cfg.ladder.hidden, 0.0, False),
        (cfg.ladder.small_hidden, 0.0, False),
    ):
        init_mlp((syn.dim, *hidden, syn.classes), seed=r.model.seed, dropout_rate=dropout, batchnorm=batchnorm)
    for opt in (r.optimizer, cfg.il.optimizer, cfg.ladder.optimizer):
        make_optimizer(opt.kind, opt.learning_rate, weight_decay=opt.weight_decay)


def _respelled(draw, node):
    """node with each mapping's keys in a drawn order and each float written
    as it is, as an exponent string, or as an int when it is whole."""
    if isinstance(node, dict):
        return {key: _respelled(draw, node[key]) for key in draw(st.permutations(list(node)))}
    if isinstance(node, list):
        return [_respelled(draw, value) for value in node]
    if isinstance(node, float):
        whole = node.is_integer() and repr(node) != "-0.0"  # the int 0 means +0.0
        return draw(st.sampled_from([node, f"{node:.16e}", *([int(node)] if whole else [])]))
    return node


@settings(max_examples=100, deadline=None)
@given(**_SECTIONS_IN_RANGE, data=st.data())
def test_built_from_follows_what_the_config_means_not_how_it_is_written(dataset, il, run, ladder, data):
    cfg = _parse_in_range(dataset, il, run, ladder)
    assert parse_config(as_dict(cfg)) == cfg
    # every default written out, keys shuffled and floats respelled
    other = parse_config(_respelled(data.draw, as_dict(cfg)))
    assert other == cfg
    for kind in ARTIFACTS:
        assert built_from(other, kind) == built_from(cfg, kind)
    # a run's slice leaves out its seeds, targets and score dump, and the ladder
    edited = _parse_in_range(dataset, il, {**run, **data.draw(_RUN_EXTRAS)}, data.draw(_SECTIONS_IN_RANGE["ladder"]))
    for kind in ("dataset", "il", "run"):
        assert built_from(edited, kind) == built_from(cfg, kind)
    # and keeps eval_every, and il under a policy that reads IL values
    d = as_dict(cfg)
    d["run"]["eval_every"] = (cfg.run.eval_every or 0) + 1
    assert built_from(parse_config(d), "run") != built_from(cfg, "run")
    rho = {**run, "policy": {"kind": "rho-loss"}}
    a = _parse_in_range(dataset, il, rho, ladder)
    b = _parse_in_range(dataset, data.draw(_SECTIONS_IN_RANGE["il"]), rho, ladder)
    assert (built_from(a, "run") == built_from(b, "run")) == (a.il == b.il)


def test_default_sweep_grid_is_3x3x3():
    assert sorted(DEFAULT_SWEEP_GRID) == ["batch_size", "run.optimizer.learning_rate", "run.optimizer.weight_decay"]
    assert all(len(v) == 3 for v in DEFAULT_SWEEP_GRID.values())
    assert DEFAULT_SWEEP_GRID["batch_size"] == (160, 320, 960)
    assert DEFAULT_SWEEP_GRID["run.optimizer.learning_rate"] == (0.0001, 0.001, 0.01)
    assert DEFAULT_SWEEP_GRID["run.optimizer.weight_decay"] == (0.001, 0.01, 0.1)


# ---------------------------------------------------------------- CLI pipeline


@pytest.fixture()
def prepared(tmp_path):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["prepare", "--config", str(cfg_path), "--out", str(out)]) == 0
    return cfg_path, out


def test_prepare_writes_dataset_and_manifest(prepared):
    _, out = prepared
    ddir = out / "dataset"
    assert (ddir / "train.csv").exists() and (ddir / "holdout.csv").exists() and (ddir / "test.csv").exists()
    manifest = json.loads((ddir / "manifest.json").read_text())
    assert set(manifest["files"]) == {"train", "holdout", "test"}
    train = data.load_dataset_csv(ddir / "train.csv")
    assert manifest["files"]["train"]["sha256"] == data.dataset_hash(train)
    # corruption rate within the 3-sigma binomial bound for p=0.1
    count = int(train.corrupted.sum())
    assert abs(count - 0.1 * train.n) < 3 * np.sqrt(train.n * 0.1 * 0.9)
    # header carries provenance
    header = open(ddir / "train.csv").readline()
    assert f" built_from={manifest['built_from']} " in header


def test_run_refuses_a_changed_dataset_cache(prepared, capsys):
    cfg_path, out = prepared
    train_csv = out / "dataset" / "train.csv"
    lines = train_csv.read_text().splitlines(keepends=True)
    row = lines[2].rstrip("\n").split(",")
    row[-1] = repr(float(row[-1]) + 0.5)
    lines[2] = ",".join(row) + "\n"
    train_csv.write_text("".join(lines))
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "train" in err and "re-run prepare" in err
    assert not (out / "runs").exists()


@pytest.mark.parametrize(
    "header, row_edit, reason",
    [
        ("# rholoss-dataset v1 classes=3 d=4", None, "header lacks n"),
        ("# rholoss-dataset v1 d=4", None, "header lacks classes and n"),
        ("# rholoss-dataset v1 classes=3 n=abc d=4", None, "n=abc"),
        ("# rholoss-dataset v1 classes=3 n=60 d=4", lambda row: row.rsplit(",", 1)[0] + ",nan", "has a non-finite"),
    ],
)
def test_prepare_refuses_a_malformed_csv_input_before_writing(tmp_path, capsys, header, row_edit, reason):
    source = tmp_path / "input.csv"
    data.save_dataset_csv(data.gen_synthetic(3, 20, 4, 1.0, seed=1), source)
    lines = source.read_bytes().decode().split("\r\n")
    lines[0] = header + "\n" + lines[0].split("\n", 1)[1]
    if row_edit is not None:
        lines[5] = row_edit(lines[5])
    source.write_bytes("\r\n".join(lines).encode())
    cfg_path = write_config(tmp_path, {"dataset.kind": "csv", "dataset.csv_path": str(source)})
    out = tmp_path / "out"
    assert main(["prepare", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {source}: ") and reason in err
    assert not (out / "dataset").exists()


@pytest.mark.parametrize(
    "test_label_values, side, key",
    [
        ([0, 1, 2, 0, 1, 2], 2, None),  # a test split the model can evaluate
        ([0, 1, 2, 3, 4, 5], 2, "dataset.idx.test_labels: "),  # labels the 3-class model cannot score
        ([], 2, "dataset.idx.test_images: "),  # no accuracy to take
        ([0, 1, 2, 0, 1, 2], 3, "dataset.idx.test_images: "),  # 9 pixels for a 4-input model
    ],
)
def test_prepare_refuses_an_idx_test_split_it_cannot_evaluate(tmp_path, capsys, test_label_values, side, key):
    rng = np.random.default_rng(0)
    train, test = tmp_path / "train", tmp_path / "test"
    train.mkdir()
    test.mkdir()
    images, labels = write_idx_pair(train, rng.integers(0, 256, 40 * 4).tolist(), [i % 3 for i in range(40)])
    test_pixels = rng.integers(0, 256, len(test_label_values) * side * side).tolist()
    test_images, test_labels = write_idx_pair(test, test_pixels, test_label_values, rows=side, cols=side)
    idx = {"images": images, "labels": labels, "test_images": test_images, "test_labels": test_labels}
    cfg_path = write_config(tmp_path, {"dataset.kind": "idx", "dataset.idx": {k: str(v) for k, v in idx.items()}})
    out = tmp_path / "out"
    code = main(["prepare", "--config", str(cfg_path), "--out", str(out)])
    if key is None:
        assert code == 0 and (out / "dataset" / "test.csv").exists()
        return
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {key}")
    assert not (out / "dataset").exists()


def test_prepare_is_idempotent(prepared):
    cfg_path, out = prepared
    before = json.loads((out / "dataset" / "manifest.json").read_text())
    assert main(["prepare", "--config", str(cfg_path), "--out", str(out)]) == 0
    after = json.loads((out / "dataset" / "manifest.json").read_text())
    assert before == after


def test_prepares_into_two_directories_write_the_same_manifest(prepared, tmp_path):
    cfg_path, out = prepared
    other = tmp_path / "elsewhere" / "out"
    assert main(["prepare", "--config", str(cfg_path), "--out", str(other)]) == 0
    manifest = (out / "dataset" / "manifest.json").read_bytes()
    assert (other / "dataset" / "manifest.json").read_bytes() == manifest
    assert str(out).encode() not in manifest


def test_train_il_writes_table_and_log(prepared):
    cfg_path, out = prepared
    assert main(["train-il", "--config", str(cfg_path), "--out", str(out)]) == 0
    table = load_il_table(out / "il" / "il_table.csv")
    train = data.load_dataset_csv(out / "dataset" / "train.csv")
    assert set(table.ids) == set(int(i) for i in train.ids)
    log_lines = (out / "il" / "checkpoint_log.csv").read_text().splitlines()
    rows = [line.split(",") for line in log_lines[2:]]
    losses = [float(r[1]) for r in rows]
    selected = [int(r[3]) for r in rows]
    assert selected.index(1) == int(np.argmin(losses))
    # recompute ten table rows from the saved model as an oracle
    from rholoss.nn import cross_entropy, forward, load_model

    il_model = load_model(out / "il" / "il_model.npz")
    pos = {int(i): k for k, i in enumerate(train.ids)}
    for ex_id, value in zip(table.ids[:10].tolist(), table.values[:10].tolist()):
        k = pos[ex_id]
        expected = float(cross_entropy(forward(il_model, train.features[k : k + 1]), [train.labels[k]])[0])
        assert value == pytest.approx(expected, abs=1e-12)


def test_train_il_two_halves_emits_merged_table(tmp_path):
    cfg_path = write_config(tmp_path, {"il.scheme": "two-halves"})
    out = tmp_path / "out"
    assert main(["prepare", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert not (out / "dataset" / "holdout.csv").exists()
    assert main(["train-il", "--config", str(cfg_path), "--out", str(out)]) == 0
    table = load_il_table(out / "il" / "il_table.csv")
    assert table.scheme == "two-halves"
    train = data.load_dataset_csv(out / "dataset" / "train.csv")
    assert set(table.ids) == set(int(i) for i in train.ids)
    assert (out / "il" / "checkpoint_log_a.csv").exists() and (out / "il" / "checkpoint_log_b.csv").exists()


def test_train_il_two_halves_models_carry_the_configured_dropout(tmp_path):
    cfg_path = write_config(tmp_path, {"il.scheme": "two-halves", "il.dropout": 0.5})
    out = tmp_path / "out"
    for command in ("prepare", "train-il"):
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    for half in ("a", "b"):
        assert load_model(out / "il" / f"il_model_{half}.npz").dropout_rate == 0.5


def _train_il_then_edit(tmp_path, mode, edits):
    """prepare and train-il under the base config in il_update_mode mode,
    then the path of a copy of that config with edits applied."""
    cfg_path = write_config(tmp_path, {"run.il_update_mode": mode})
    out = tmp_path / "out"
    for command in ("prepare", "train-il"):
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    return write_config(tmp_path, {"run.il_update_mode": mode, **edits}, name="edited.yaml"), out


@pytest.mark.parametrize("mode", ["frozen", "original"])
def test_run_refuses_il_artifacts_built_from_another_il_config(tmp_path, capsys, mode):
    edited, out = _train_il_then_edit(tmp_path, mode, {"il.epochs": 4, "il.hidden": [8]})
    assert main(["run", "--config", str(edited), "--out", str(out)]) == 1
    assert "rholoss train-il" in capsys.readouterr().err
    assert not (out / "runs").exists()


def test_run_accepts_il_artifacts_after_a_run_edit(tmp_path):
    edited, out = _train_il_then_edit(tmp_path, "frozen", {"run.epochs": 2})
    path = out / "il" / "il_table.csv"
    meta = read_header(path.read_text().splitlines()[0], "il-table", path)
    trained, cfg = load_config(tmp_path / "config.yaml"), load_config(edited)
    assert meta["built_from"] == built_from(trained, "il") == built_from(cfg, "il")
    assert built_from(trained, "run") != built_from(cfg, "run")
    assert main(["run", "--config", str(edited), "--out", str(out)]) == 0
    assert len(load_run_record(out / "runs" / "record_rho-loss_seed1.csv").epoch_accuracies()) == 2


# The artifact kind of config.built_from behind each header tag.
_KIND_OF_TAG = {"dataset": "dataset", "il-table": "il", "checkpoint-log": "il", "run-record": "run",
                "scores": "run", "report": "run", "ladder": "ladder"}


def test_every_artifact_carries_the_built_from_of_its_slice(tmp_path):
    cfg_path = write_config(tmp_path, {"run.dump_scores": True})
    out = tmp_path / "out"
    for command in ("prepare", "train-il", "run", "report", "ladder"):
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    cfg = load_config(cfg_path)
    tags = set()
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.suffix == ".csv"):
        line = path.read_text().splitlines()[0]
        tag = line.split()[1].removeprefix("rholoss-")
        meta = read_header(line, tag, path)
        assert meta["built_from"] == built_from(cfg, _KIND_OF_TAG[tag]), path
        assert not [key for key in meta if "config_hash" in key], path
        tags.add(tag)
    assert tags == set(_KIND_OF_TAG)
    manifest = json.loads((out / "dataset" / "manifest.json").read_text())
    assert sorted(manifest) == ["built_from", "files"]
    assert manifest["built_from"] == built_from(cfg, "dataset")


EXAMPLE_CONFIG = Path(__file__).parent.parent / "configs" / "noisy_synthetic.yaml"


@pytest.fixture(scope="module")
def example_built(tmp_path_factory):
    """The example config with seeds [1], after prepare, train-il and run."""
    root = tmp_path_factory.mktemp("example")
    raw = yaml.safe_load(EXAMPLE_CONFIG.read_text())
    raw["run"]["seeds"] = [1]
    (root / "config.yaml").write_text(yaml.safe_dump(raw))
    for command in ("prepare", "train-il", "run"):
        assert main([command, "--config", str(root / "config.yaml"), "--out", str(root / "out")]) == 0
    return raw, root / "out"


@pytest.fixture()
def example(example_built, tmp_path):
    """A copy of the built example: (a function that writes the example
    config with an edit applied and returns its path, the copied output dir)."""
    raw, built = example_built
    out = tmp_path / "out"
    shutil.copytree(built, out)

    def edited(edit=lambda raw: None):
        copy = json.loads(json.dumps(raw))
        edit(copy)
        path = tmp_path / "edited.yaml"
        path.write_text(yaml.safe_dump(copy))
        return str(path)

    return edited, out


def _raise_every_learning_rate(raw):
    for section in ("il", "run", "ladder"):
        raw[section]["optimizer"]["learning_rate"] = 0.002


def _tree(path):
    return {p.relative_to(path): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def test_run_resume_refuses_a_record_built_from_another_run_config(example, capsys):
    edited, out = example
    runs = _tree(out / "runs")
    capsys.readouterr()
    assert main(["run", "--config", edited(_raise_every_learning_rate), "--out", str(out), "--resume"]) == 1
    err = capsys.readouterr().err
    assert "runs/record_rho-loss_seed1.csv" in err and "`rholoss run`" in err
    assert _tree(out / "runs") == runs


def test_report_refuses_records_built_from_another_run_config(example, capsys):
    edited, out = example
    assert main(["report", "--config", edited(_raise_every_learning_rate), "--out", str(out)]) == 1
    assert "`rholoss run`" in capsys.readouterr().err
    assert not (out / "reports").exists()


def test_a_ladder_edit_keeps_the_run_records_valid(example):
    edited, out = example

    def edit(raw):
        raw["ladder"]["n_B"] = 200
        raw["run"]["seeds"] = [1, 2]

    cfg_path = edited(edit)
    assert main(["run", "--config", cfg_path, "--out", str(out), "--resume"]) == 0
    assert main(["report", "--config", cfg_path, "--out", str(out)]) == 0
    assert " seeds=1;2 " in (out / "reports" / "accuracy.csv").read_text().splitlines()[0]
    first, second = (load_run_record(out / "runs" / f"record_rho-loss_seed{seed}.csv") for seed in (1, 2))
    assert second.built_from == first.built_from == built_from(load_config(cfg_path), "run")


def _without_built_from(path):
    """Rewrite the artifact at path as a writer that predates built_from did,
    with the config hashes it used in its place."""
    if path.suffix == ".json":
        manifest = json.loads(path.read_text())
        if "built_from" in manifest:
            h = manifest.pop("built_from")
            path.write_text(json.dumps({"config_hash": h, "dataset_config_hash": h, **manifest}))
        return
    old = r" config_hash=\1 il_config_hash=\1" if path.name == "il_table.csv" else r" config_hash=\1"
    path.write_bytes(re.sub(rb" built_from=(\w+)", old.encode(), path.read_bytes(), count=1))


@pytest.mark.parametrize(
    "artifact, command, stage",
    [
        ("runs/record_rho-loss_seed1.csv", ["run", "--resume"], "run"),
        ("runs/record_uniform_seed1.csv", ["report"], "run"),
        ("dataset/manifest.json", ["train-il"], "prepare"),
        ("il/il_table.csv", ["run", "--seed-override", "2"], "train-il"),
    ],
)
def test_an_artifact_without_built_from_is_refused_naming_the_stage_to_re_run(example, capsys, artifact, command, stage):
    edited, out = example
    _without_built_from(out / artifact)
    capsys.readouterr()
    assert main([command[0], "--config", edited(), "--out", str(out), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert f"{out / artifact} carries no built_from" in err and f"`rholoss {stage}`" in err


def test_run_emits_record_per_policy_and_seed(prepared):
    cfg_path, out = prepared
    assert main(["train-il", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    files = sorted(p.name for p in (out / "runs").glob("*.csv"))
    # targets were requested, so the uniform baseline is included
    assert files == [
        "record_rho-loss_seed1.csv",
        "record_rho-loss_seed2.csv",
        "record_uniform_seed1.csv",
        "record_uniform_seed2.csv",
    ]
    rec = load_run_record(out / "runs" / "record_rho-loss_seed1.csv")
    assert rec.policy == "rho-loss" and rec.seed == 1
    cfg = load_config(cfg_path)
    assert rec.built_from == built_from(cfg, "run")


def test_run_three_seeds_three_records(tmp_path):
    cfg_path = write_config(tmp_path, {"run.seeds": [1, 2, 3], "run.targets": [], "run.policy.kind": "train-loss"})
    out = tmp_path / "out"
    assert main(["prepare", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    files = sorted(p.name for p in (out / "runs").glob("*.csv"))
    assert files == [f"record_train-loss_seed{s}.csv" for s in (1, 2, 3)]


def test_run_refuses_overwrite_without_resume(prepared):
    cfg_path, out = prepared
    assert main(["train-il", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--resume"]) == 0
    # corrupt record: resume refuses rather than overwriting
    path = out / "runs" / "record_uniform_seed1.csv"
    path.write_text("garbage\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--resume"]) == 1
    assert path.read_text() == "garbage\n"


def test_seed_override_replaces_seed_list(prepared):
    cfg_path, out = prepared
    assert main(["train-il", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--seed-override", "42"]) == 0
    files = sorted(p.name for p in (out / "runs").glob("*.csv"))
    assert files == ["record_rho-loss_seed42.csv", "record_uniform_seed42.csv"]


def test_seed_override_is_ignored_without_a_run_section(tmp_path):
    cfg_path = write_config(tmp_path, {"run": None})
    out = tmp_path / "out"
    for command in ("prepare", "ladder"):
        assert main([command, "--config", str(cfg_path), "--out", str(out), "--seed-override", "3"]) == 0
    assert (out / "ladder" / "ladder.csv").exists()


def test_report_aggregates_and_refuses_mixed_hashes(prepared, tmp_path):
    cfg_path, out = prepared
    assert main(["train-il", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["report", "--config", str(cfg_path), "--out", str(out)]) == 0
    rdir = out / "reports"
    ett = (rdir / "epochs_to_target.csv").read_text().splitlines()
    assert ett[1].split(",")[0] == "policy"
    body = [line.split(",") for line in ett[2:]]
    assert {row[0] for row in body} == {"rho-loss", "uniform"}
    for row in body:
        assert row[4] == "2"  # n_seeds
    # mean final accuracy matches hand arithmetic over the two seeds
    recs = [load_run_record(out / "runs" / f"record_rho-loss_seed{s}.csv") for s in (1, 2)]
    expected = np.mean([r.final_accuracy() for r in recs])
    rho_row = next(r for r in body if r[0] == "rho-loss")
    assert float(rho_row[5]) == pytest.approx(expected, abs=1e-12)
    # accuracy series: final accuracy column equals the last eval row
    acc_lines = (rdir / "accuracy.csv").read_text().splitlines()
    last_rho = [l for l in acc_lines if l.startswith("rho-loss,")][-1]
    assert float(last_rho.split(",")[3]) == pytest.approx(expected, abs=1e-12)
    # wrong-hash record is rejected
    bad = load_run_record(out / "runs" / "record_uniform_seed1.csv")
    bad.built_from = "deadbeef"
    from rholoss.records import save_run_record

    save_run_record(bad, out / "runs" / "record_uniform_seed1.csv")
    assert main(["report", "--config", str(cfg_path), "--out", str(out)]) == 1


def test_report_headers_name_each_seed_once_in_ascending_order(tmp_path):
    cfg_path = write_config(tmp_path, {"run.seeds": [10, 2], "run.epochs": 1, "run.policy.kind": "train-loss"})
    out = tmp_path / "out"
    for command in ("prepare", "run", "report"):
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    for kind in ("epochs_to_target", "composition", "accuracy"):
        header = (out / "reports" / f"{kind}.csv").read_text().splitlines()[0]
        assert " seeds=2;10 " in header


def test_report_propagates_nr(prepared):
    cfg_path, out = prepared
    # unreachable target: every seed must report NR
    raw = yaml.safe_load(open(cfg_path))
    raw["run"]["targets"] = [1.01]
    with open(cfg_path, "w") as f:
        yaml.safe_dump(raw, f)
    assert main(["train-il", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["report", "--config", str(cfg_path), "--out", str(out)]) == 0
    body = (out / "reports" / "epochs_to_target.csv").read_text().splitlines()[2:]
    for line in body:
        row = line.split(",")
        assert row[2] == "NR" and row[3] == "0"


def test_ladder_command_schema(prepared):
    cfg_path, out = prepared
    assert main(["ladder", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "ladder" / "ladder.csv").read_text().splitlines()
    assert lines[1] == "rung,step,rho"
    rows = [line.split(",") for line in lines[2:]]
    step_rows = [r for r in rows if r[1] not in ("mean", "frac_positive", "reference")]
    mean_rows = {r[0]: float(r[2]) for r in rows if r[1] == "mean"}
    # self-comparison rung pins the scale
    assert mean_rows["approx0"] == pytest.approx(1.0, abs=1e-12)
    # summary mean equals the mean of the step rows
    for rung, reported in mean_rows.items():
        vals = [float(r[2]) for r in step_rows if r[0] == rung]
        assert reported == pytest.approx(np.nanmean(vals), abs=1e-12)
    ref_rows = {r[0]: float(r[2]) for r in rows if r[1] == "reference"}
    assert ref_rows == {"approx1a": 0.75, "approx1b": 0.76, "approx2": 0.63, "approx3": 0.51}


def test_sweep_emits_cell_configs_and_records(tmp_path):
    cfg_path = write_config(
        tmp_path,
        {
            "run.seeds": [1],
            "run.targets": [],
            "run.policy.kind": "uniform",
            "run.epochs": 1,
            "sweep": {"grid": {"run.n_b": [2, 4], "run.optimizer.learning_rate": [0.001, 0.01]}},
        },
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    cells = sorted((out / "sweep").glob("cell_*"))
    assert len(cells) == 4
    for cell in cells:
        assert (cell / "config.yaml").exists()
        assert len(list((cell / "runs").glob("*.csv"))) == 1
    # cell configs actually vary the grid values
    n_bs = {yaml.safe_load(open(c / "config.yaml"))["run"]["n_b"] for c in cells}
    assert n_bs == {2, 4}
    # each cell's config.yaml is its full parsed config
    assert [load_config(c / "config.yaml") for c in cells] == sweep_configs(load_config(cfg_path))
    # the cells read one shared dataset and keep no copy of their own
    assert (out / "sweep" / "dataset" / "manifest.json").exists()
    assert not [p for cell in cells for p in (cell / "dataset", cell / "il") if p.exists()]


def _calls(monkeypatch, *names):
    """Count the calls of the named cli globals, passing each call through."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    return counts


def _tree(root):
    """Every file under root, as {relative path: bytes}."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


SWEEP_2X2 = {
    "run.seeds": [1],
    "run.targets": [],
    "run.epochs": 1,
    "sweep": {"grid": {"run.n_b": [2, 4], "run.optimizer.learning_rate": [0.001, 0.01]}},
}


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """A finished 2x2 rho-loss sweep, and its calls of the stages' builders."""
    tmp_path = tmp_path_factory.mktemp("swept")
    cfg_path = write_config(tmp_path, SWEEP_2X2)
    out = tmp_path / "out"
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _calls(monkeypatch, "prepare_datasets", "train_il_model")
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    return cfg_path, out, calls


def test_a_sweep_prepares_and_fits_il_once_for_every_cell(swept):
    _, out, calls = swept
    assert calls == {"prepare_datasets": 1, "train_il_model": 1}
    cells = sorted((out / "sweep").glob("cell_*"))
    assert len(cells) == 4
    assert {p.name for p in (out / "sweep").iterdir()} == {"dataset", "il", *(c.name for c in cells)}
    for cell in cells:
        assert sorted(p.relative_to(cell).as_posix() for p in cell.rglob("*") if p.is_file()) == [
            "config.yaml", "runs/record_rho-loss_seed1.csv"]


def test_sweep_cells_match_runs_on_their_own_prepared_data(swept, tmp_path):
    _, out, _ = swept
    for cell in sorted((out / "sweep").glob("cell_*")):
        alone = tmp_path / cell.name
        for stage in ("prepare", "train-il", "run"):
            assert main([stage, "--config", str(cell / "config.yaml"), "--out", str(alone)]) == 0
        record = "runs/record_rho-loss_seed1.csv"
        a, b = ((d / record).read_text() for d in (cell, alone))
        assert re.sub(r"generated_at=\S+", "", a) == re.sub(r"generated_at=\S+", "", b)


def test_sweep_resume_over_a_finished_sweep_writes_nothing(swept, tmp_path, monkeypatch):
    cfg_path, finished, _ = swept
    out = tmp_path / "out"
    shutil.copytree(finished, out)
    calls = _calls(monkeypatch, "prepare_datasets", "train_il_model", "run_training")
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out), "--resume"]) == 0
    assert calls == {"prepare_datasets": 0, "train_il_model": 0, "run_training": 0}
    assert _tree(out) == _tree(finished)


def test_sweep_resume_refuses_a_shared_dataset_built_from_another_seed(swept, tmp_path, capsys):
    _, finished, _ = swept
    out = tmp_path / "out"
    shutil.copytree(finished, out)
    edited = write_config(tmp_path, {**SWEEP_2X2, "dataset.split.seed": 61})
    capsys.readouterr()
    assert main(["sweep", "--config", str(edited), "--out", str(out), "--resume"]) == 1
    assert str(out / "sweep" / "dataset" / "manifest.json") in capsys.readouterr().err
    assert _tree(out) == _tree(finished)


def test_a_refused_sweep_resume_rewrites_no_cell(swept, tmp_path, capsys):
    _, finished, _ = swept
    out = tmp_path / "out"
    shutil.copytree(finished, out)
    edited = write_config(tmp_path, {**SWEEP_2X2, "run.epochs": 2})
    capsys.readouterr()
    assert main(["sweep", "--config", str(edited), "--out", str(out), "--resume"]) == 1
    record = out / "sweep" / "cell_000" / "runs" / "record_rho-loss_seed1.csv"
    assert f"{record} was built from another config" in capsys.readouterr().err
    assert _tree(out) == _tree(finished)  # every cell's config.yaml included


def test_a_sweep_resume_refuses_a_stale_il_table_before_any_cell_is_written(swept, tmp_path, capsys):
    _, finished, _ = swept
    out = tmp_path / "out"
    shutil.copytree(finished, out)
    for runs in (out / "sweep").glob("cell_*/runs"):
        shutil.rmtree(runs)
    before = _tree(out)
    edited = write_config(tmp_path, {**SWEEP_2X2, "il.epochs": 4})
    capsys.readouterr()
    assert main(["sweep", "--config", str(edited), "--out", str(out), "--resume"]) == 1
    table = out / "sweep" / "il" / "il_table.csv"
    assert f"{table} was built from another config" in capsys.readouterr().err
    assert _tree(out) == before  # every cell's config.yaml included


def _strip_generated_at(tree):
    return {path: re.sub(rb" generated_at=\S+", b"", body) for path, body in tree.items()}


def test_a_sweep_queues_every_cell_once_and_reads_each_shared_file_once(swept, tmp_path, monkeypatch):
    _, finished, _ = swept
    cfg_path = write_config(tmp_path, SWEEP_2X2)
    out = tmp_path / "out"
    for sub in ("dataset", "il"):  # the shared files exist, so only the cells' runs read them
        shutil.copytree(finished / "sweep" / sub, out / "sweep" / sub)
    loads = []
    real_csv, real_table = data.load_dataset_csv, cli.load_il_table
    monkeypatch.setattr(data, "load_dataset_csv", lambda path: loads.append(path.name) or real_csv(path))
    monkeypatch.setattr(cli, "load_il_table", lambda path: loads.append(path.name) or real_table(path))
    calls = _calls(monkeypatch, "cmd_run", "_queued_runs")
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out), "--jobs", "2"]) == 0
    assert sorted(loads) == ["il_table.csv", "test.csv", "train.csv"]
    assert calls == {"cmd_run": 0, "_queued_runs": 4}
    # the records of two workers are those of one serial loop, below the header's timestamp
    assert _strip_generated_at(_tree(out)) == _strip_generated_at(_tree(finished))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_a_diverging_sweep_run_names_its_cell_and_resume_runs_only_what_is_missing(tmp_path, capsys, monkeypatch):
    sgd = {"run.seeds": [1], "run.targets": [], "run.epochs": 1,
           "run.optimizer": {"kind": "sgd", "learning_rate": 0.01}}
    cfg_path = write_config(tmp_path, {**sgd, "sweep": {"grid": {"run.optimizer.learning_rate": [0.001, 1e300, 0.01]}}})
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: sweep cell_001: policy rho-loss seed 1 epoch 1 step 1: forward pass produced non-finite logits\n")
    cells = out / "sweep"
    record = "runs/record_rho-loss_seed1.csv"
    kept = (cells / "cell_000" / record).read_bytes()  # the finished run's record stays
    assert not (cells / "cell_001" / "runs").exists() and not (cells / "cell_002" / "runs").exists()

    mended = write_config(tmp_path, {**sgd, "sweep": {"grid": {"run.optimizer.learning_rate": [0.001, 0.1, 0.01]}}},
                          name="mended.yaml")
    calls = _calls(monkeypatch, "run_training")
    assert main(["sweep", "--config", str(mended), "--out", str(out), "--resume"]) == 0
    assert calls == {"run_training": 2}
    assert (cells / "cell_000" / record).read_bytes() == kept
    assert (cells / "cell_001" / record).exists() and (cells / "cell_002" / record).exists()


@pytest.mark.parametrize("command", ["run", "sweep", "prepare"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_refused_before_any_output(tmp_path, capsys, command, jobs):
    cfg_path = write_config(tmp_path, SWEEP_2X2)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out), "--jobs", jobs]) == 1
    assert capsys.readouterr() == ("", f"error: --jobs: must be at least 1, got {jobs}\n")
    assert not out.exists()


@pytest.fixture()
def in_process_pool(monkeypatch):
    """Stands in for the process pool: runs its initializer and its map in
    this process, and records each pool's size and every payload mapped. A
    pool's workers must be spawned, so that each starts with the thread-count
    variables of _worker_pool."""
    seen = {"workers": [], "payloads": []}

    class InProcessExecutor:
        def __init__(self, max_workers, mp_context, initializer, initargs):
            assert mp_context.get_start_method() == "spawn"
            seen["workers"].append(max_workers)
            initializer(*initargs)

        def map(self, fn, payloads):
            payloads = list(payloads)
            seen["payloads"] += payloads
            return map(fn, payloads)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessExecutor)
    return seen


@pytest.mark.parametrize("jobs, workers", [("1", []), ("2", [2]), ("500", [2])])
def test_the_executor_starts_no_more_workers_than_queued_runs(tmp_path, in_process_pool, jobs, workers):
    cfg_path = write_config(tmp_path, {"run.seeds": [1, 2], "run.targets": [], "run.policy.kind": "uniform"})
    out = tmp_path / "out"
    assert main(["prepare", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs]) == 0
    assert in_process_pool["workers"] == workers
    assert len(list((out / "runs").glob("record_*.csv"))) == 2


@pytest.mark.parametrize("jobs", ["1", "3"])
def test_a_queued_run_carries_its_keys_and_not_the_shared_data(tmp_path, in_process_pool, jobs):
    # the splits and the IL table go to each worker once, through the pool's initializer
    cfg_path = write_config(tmp_path)  # rho-loss on the frozen table, plus the uniform baseline
    out = tmp_path / "out"
    for stage in ("prepare", "train-il"):
        assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs]) == 0
    cfg = load_config(cfg_path)
    keys = [(cfg, out, kind, seed) for kind in ("rho-loss", "uniform") for seed in (1, 2)]
    assert in_process_pool["payloads"] == ([] if jobs == "1" else keys)
    assert cli._shared == ()  # cleared once the queue is done
    assert len(list((out / "runs").glob("record_*.csv"))) == 4


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("user_set", BLAS_THREADS)
def test_each_pool_worker_runs_one_blas_thread_unless_the_user_set_a_count(monkeypatch, user_set):
    # a real pool of two spawned workers, built as _run_queue builds it, reads
    # the thread-count variables in a worker; every wait is bounded
    for name in BLAS_THREADS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv(user_set, "3")
    before = dict(os.environ)
    outcome = {}

    def read_in_a_worker():
        try:
            with cli._worker_pool(2) as executor:
                outcome["read"] = list(executor.map(os.getenv, BLAS_THREADS, timeout=120))
        except Exception as exc:
            outcome["error"] = repr(exc)

    reader = threading.Thread(target=read_in_a_worker, daemon=True)
    reader.start()
    reader.join(timeout=180)
    assert not reader.is_alive(), "the pool did not start, answer and shut down within 180 s"
    assert outcome == {"read": ["3" if name == user_set else "1" for name in BLAS_THREADS]}
    assert dict(os.environ) == before


def test_sweep_default_grid_has_27_cells(tmp_path):
    cfg = load_config(write_config(tmp_path, {"sweep": {"grid": {}}}))
    assert len(sweep_configs(cfg)) == 27


def test_sweep_cells_fill_a_null_optimizer_block():
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["run"]["optimizer"] = None
    raw["sweep"] = {"grid": {"run.optimizer.learning_rate": [0.01, "1e-1"]}}
    cells = sweep_configs(parse_config(raw))
    assert [c.run.optimizer.learning_rate for c in cells] == [0.01, 0.1]


def test_the_commented_sweep_example_is_the_default_grid():
    lines = EXAMPLE_CONFIG.read_text().splitlines()
    start = lines.index("# sweep:")
    raw = yaml.safe_load("\n".join(lines[:start] + [line.removeprefix("# ") for line in lines[start:]]))
    example = load_config(EXAMPLE_CONFIG)
    assert raw["sweep"]["grid"] == {key: list(values) for key, values in DEFAULT_SWEEP_GRID.items()}
    cells = sweep_configs(parse_config(raw))
    assert len(cells) == 27
    assert [cell.run for cell in cells] == [cell.run for cell in sweep_configs(example)]


def _schema_values(cls, path):
    """In-range values of the field at the dotted path below the section cls."""
    name, *rest = path
    typ = typing.get_type_hints(cls)[name]
    if rest:
        return _schema_values(typ, rest)
    return _in_range(typ, next(f for f in dataclasses.fields(cls) if f.name == name).metadata)


# run keys whose in-range values pass every check across keys on BASE_CONFIG
_GRID_KEYS = [("n_b",), ("epochs",), ("eval_every",), ("il_update_mode",), ("lr_scale",), ("dump_scores",),
              ("targets",), ("model", "hidden"), ("model", "dropout"), ("model", "seed"),
              ("optimizer", "kind"), ("optimizer", "learning_rate")]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_each_sweep_cell_is_the_config_with_its_values_written_in(data):
    paths = data.draw(st.lists(st.sampled_from(_GRID_KEYS), min_size=1, max_size=3, unique=True))
    grid = {".".join(("run", *path)): data.draw(st.lists(_schema_values(RunSection, path), min_size=1, max_size=3))
            for path in paths}
    cfg = parse_config({**BASE_CONFIG, "sweep": {"grid": grid}})
    cells = sweep_configs(cfg)
    ordered = sorted(zip(grid, paths))
    combos = [[]]
    for key, _ in ordered:  # the first key in sorted order varies slowest
        combos = [[*combo, value] for combo in combos for value in grid[key]]
    assert len(cells) == len(combos)
    for cell, combo in zip(cells, combos):
        d = as_dict(cfg)
        for (_, path), value in zip(ordered, combo):
            section = d["run"]
            for name in path[:-1]:
                section = section[name]
            section[path[-1]] = value
        assert cell == dataclasses.replace(parse_config({**d, "sweep": None}), sweep=cfg.sweep)


@pytest.mark.parametrize("grid", [
    {"il.hidden": [[8], [16]]},  # every cell shares one IL fit
    {"dataset.split.seed": [1, 2]},  # and one dataset
    {"learning_rate": [0.001, 0.01]},  # a bare name
    {"run.n_b": []},
    {"run.n_b": 4},
])
def test_a_sweep_grid_key_outside_run_or_without_values_is_refused_before_any_output(tmp_path, capsys, grid):
    cfg_path = write_config(tmp_path, {"sweep": {"grid": grid}})
    out = tmp_path / "out"
    for command in ("prepare", "run", "sweep"):
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: sweep.grid.{next(iter(grid))}: ")
    assert not out.exists()


def test_a_sweep_over_policy_kinds_fits_il_once_for_the_cells_that_read_it(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, {**SWEEP_2X2, "run.policy.kind": "uniform",
                                       "sweep": {"grid": {"run.policy.kind": ["uniform", "rho-loss"]}}})
    out = tmp_path / "out"
    calls = _calls(monkeypatch, "prepare_datasets", "train_il_model")
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert calls == {"prepare_datasets": 1, "train_il_model": 1}
    assert (out / "sweep" / "il" / "il_table.csv").exists()
    for cell, kind in (("cell_000", "uniform"), ("cell_001", "rho-loss")):
        assert [p.name for p in (out / "sweep" / cell / "runs").iterdir()] == [f"record_{kind}_seed1.csv"]


def test_a_sweep_over_il_update_modes_runs_each_cell_as_its_own_run(tmp_path):
    cfg_path = write_config(tmp_path, {**SWEEP_2X2, "sweep": {"grid": {"run.il_update_mode": ["original", "frozen"]}}})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    record = "runs/record_rho-loss_seed1.csv"
    for cell, mode in (("cell_000", "original"), ("cell_001", "frozen")):
        cell_cfg = out / "sweep" / cell / "config.yaml"
        assert load_config(cell_cfg).run.il_update_mode == mode
        alone = tmp_path / cell
        for stage in ("prepare", "train-il", "run"):
            assert main([stage, "--config", str(cell_cfg), "--out", str(alone)]) == 0
        a, b = ((d / record).read_text() for d in (out / "sweep" / cell, alone))
        assert re.sub(r"generated_at=\S+", "", a) == re.sub(r"generated_at=\S+", "", b)


def test_out_dir_resolution_env_var(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path)
    monkeypatch.delenv("RHOLOSS_OUT_DIR", raising=False)
    assert main(["prepare", "--config", str(cfg_path)]) == 1  # nowhere to write
    monkeypatch.setenv("RHOLOSS_OUT_DIR", str(tmp_path / "envout"))
    assert main(["prepare", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "envout" / "dataset" / "train.csv").exists()


def test_validation_failure_exits_nonzero(tmp_path):
    cfg_path = write_config(tmp_path, {"run.policy.kind": "mystery"})
    assert main(["prepare", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    missing = tmp_path / "missing.yaml"
    assert main(["prepare", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1
    # run before prepare: setup error, no partial output
    cfg_ok = write_config(tmp_path, name="ok.yaml")
    assert main(["run", "--config", str(cfg_ok), "--out", str(tmp_path / "fresh")]) == 1
    assert not (tmp_path / "fresh").exists()


def test_svp_policy_runs_via_offline_filter(tmp_path):
    cfg_path = write_config(
        tmp_path,
        {"run.policy.kind": "svp-entropy", "run.policy.keep_fraction": 0.6, "run.targets": [], "run.seeds": [1]},
    )
    out = tmp_path / "out"
    assert main(["prepare", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    rec = load_run_record(out / "runs" / "record_svp-entropy_seed1.csv")
    assert rec.policy == "svp-entropy"
    # offline filter: the union of all selected ids stays within keep_fraction of the pool
    train = data.load_dataset_csv(out / "dataset" / "train.csv")
    seen = {i for row in rec.steps for i in row.selected_ids}
    assert len(seen) <= round(0.6 * train.n)


def test_a_missing_il_section_is_refused_at_parse_before_any_run_is_queued(tmp_path, capsys):
    for overrides, key in (({"run.policy.kind": "svp-entropy"}, "run.policy.kind"),
                           ({"dataset.noise.kind": "structured"}, "dataset.noise.kind")):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
            load_config(write_config(tmp_path, {**overrides, "il": None}))
    # svp-entropy with targets also queues uniform runs, which a late refusal left written
    out = tmp_path / "out"
    svp = {"run.policy.kind": "svp-entropy", "run.targets": [0.5], "run.seeds": [1, 2]}
    assert main(["prepare", "--config", str(write_config(tmp_path, svp)), "--out", str(out)]) == 0
    capsys.readouterr()
    no_il = write_config(tmp_path, {**svp, "il": None}, name="no_il.yaml")
    assert main(["run", "--config", str(no_il), "--out", str(out), "--jobs", "2"]) == 1
    assert capsys.readouterr().err.startswith("error: run.policy.kind: svp-entropy needs the il section")
    assert not (out / "runs").exists()


@pytest.mark.parametrize("kind", ["rho-loss", "neg-il"])
def test_a_policy_that_reads_irreducible_losses_is_refused_at_parse_without_il(tmp_path, capsys, kind):
    want = f"run.policy.kind: {kind} reads irreducible losses, which need the il section"
    with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
        parse_config({"dataset": {"kind": "synthetic"}, "run": {"policy": {"kind": kind}}})
    cfg_path = write_config(tmp_path, {"run.policy.kind": kind, "il": None})
    out = tmp_path / "out"
    for command in ("prepare", "train-il", "run", "sweep"):
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: run.policy.kind: ")
    assert not out.exists()


@pytest.mark.parametrize("command, section", [
    ("train-il", "il"), ("run", "run"), ("report", "run"), ("ladder", "ladder"), ("sweep", "run"),
])
def test_a_stage_refuses_a_config_without_the_section_it_reads_and_writes_nothing(tmp_path, capsys, command, section):
    # a uniform run reads no IL, so its config parses without il
    uniform = {"run.policy.kind": "uniform"} if section == "il" else {}
    cfg_path = write_config(tmp_path, {section: None, **uniform})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: config has no {section} section\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["prepare", "train-il", "run", "report", "ladder", "sweep"])
def test_every_stage_takes_the_common_flags_and_only_run_and_sweep_resume(command):
    parser = cli.build_parser()
    args = parser.parse_args([command, "--config", "c.yaml", "--out", "o", "--seed-override", "3", "--jobs", "2"])
    assert (args.config, args.out, args.seed_override, args.jobs) == ("c.yaml", "o", 3, 2)
    if command in ("run", "sweep"):
        assert parser.parse_args([command, "--config", "c.yaml", "--resume"]).resume
    else:
        with pytest.raises(SystemExit) as info:
            parser.parse_args([command, "--config", "c.yaml", "--resume"])
        assert info.value.code == 2


def test_report_takes_no_records_glob(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["report", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "o"), "--records", "x"])
    assert info.value.code == 2
    assert "unrecognized arguments: --records x" in capsys.readouterr().err


def test_dump_scores_via_cli_carries_provenance(tmp_path):
    cfg_path = write_config(tmp_path, {"run.dump_scores": True, "run.seeds": [1], "run.targets": []})
    out = tmp_path / "out"
    assert main(["prepare", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["train-il", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "runs" / "scores_rho-loss_seed1.csv").read_text().splitlines()
    cfg = load_config(cfg_path)
    assert lines[0] == f"# rholoss-scores v1 built_from={built_from(cfg, 'run')} seed=1"
    assert lines[1] == "step,id,score,selected"
    rec = load_run_record(out / "runs" / "record_rho-loss_seed1.csv")
    train = data.load_dataset_csv(out / "dataset" / "train.csv")
    assert len(lines) - 2 == len(rec.steps) * 0 + sum(
        min(cfg.run.n_B, train.n - s) for s in range(0, train.n, cfg.run.n_B)
    ) * cfg.run.epochs
    # report's default glob reads the run records and skips the score dump
    assert main(["report", "--config", str(cfg_path), "--out", str(out)]) == 0


def test_a_failed_run_leaves_no_partial_score_dump(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, {"run.dump_scores": True, "run.seeds": [1], "run.targets": []})
    out = tmp_path / "out"
    assert main(["prepare", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["train-il", "--config", str(cfg_path), "--out", str(out)]) == 0

    def failing_run(*args, score_dump, **kwargs):
        score_dump.write("0,1,0.5,1\n")
        raise ValueError("training diverged")

    monkeypatch.setattr(cli, "run_training", failing_run)
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert not (out / "runs").exists()


def test_a_batchnorm_run_whose_last_chunk_selects_one_row_fails_before_any_record(tmp_path, capsys):
    with pytest.raises(ConfigError, match=r"run\.model\.batchnorm: .*run\.n_b >= 2"):
        load_config(write_config(tmp_path, {"run.model.batchnorm": True, "run.n_b": 1}))
    cfg_path = write_config(tmp_path, {"run.model.batchnorm": True})  # n_b 4 of n_B 20
    out = tmp_path / "out"
    assert main(["prepare", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["train-il", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    # the pool of 126 ends in a chunk of 6, of which a step would train on 1
    assert "n_b=4 of n_B=20 on a pool of 126 selects 1" in capsys.readouterr().err
    assert not (out / "runs").exists()


def test_a_ladder_whose_last_chunk_holds_one_candidate_fails_before_writing(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"ladder.n_B": 125})  # the pool of 126 ends in a chunk of 1
    out = tmp_path / "out"
    assert main(["prepare", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["ladder", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ladder.n_B: n_B=125 on a pool of 126 ")
    assert not (out / "ladder").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize(
    "pretrain_epochs, place",
    # the IL pre-fit diverges first; without one, the first target update of
    # the two converged rungs, which train as one stack, does
    [(5, "ladder IL pre-fit: "), (0, "ladder rungs approx0 and approx1a step 0 (target update): ")],
)
def test_a_diverging_ladder_names_where_and_writes_nothing(tmp_path, capsys, pretrain_epochs, place):
    sgd = {"kind": "sgd", "learning_rate": 1e300}
    cfg_path = write_config(tmp_path, {"ladder.optimizer": sgd, "ladder.il_pretrain_epochs": pretrain_epochs})
    out = tmp_path / "out"
    assert main(["prepare", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["ladder", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {place}forward pass produced non-finite logits\n"
    assert not (out / "ladder" / "ladder.csv").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_a_diverging_il_fit_names_the_fit_and_epoch_and_leaves_no_il_dir(tmp_path, capsys):
    raw = yaml.safe_load(EXAMPLE_CONFIG.read_text())
    raw["il"]["optimizer"] = {"kind": "sgd", "learning_rate": 10.0}
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out"
    assert main(["prepare", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["train-il", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: train-il IL fit: epoch 1: forward pass produced non-finite logits\n"
    assert not (out / "il").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "overrides, stages, place, absent",
    [
        ({"il.scheme": "two-halves"}, ("prepare", "train-il"), "train-il IL fit: half a: epoch 1", "il"),
        ({"dataset.noise": STRUCTURED}, ("prepare",), "prepare structured-noise reference model: epoch 1", "dataset"),
        (
            {"run.policy.kind": "svp-entropy", "run.targets": [], "run.seeds": [1]},
            ("prepare", "run"),
            "run svp-entropy proxy for seed 1: epoch 1",
            "runs/record_svp-entropy_seed1.csv",
        ),
        (  # the uniform baseline is queued behind the failing run: no runs/ is left
            {"run.policy.kind": "svp-entropy", "run.targets": [0.5], "run.seeds": [1]},
            ("prepare", "run"),
            "run svp-entropy proxy for seed 1: epoch 1",
            "runs",
        ),
    ],
)
def test_every_il_fit_names_itself_when_it_diverges(tmp_path, capsys, overrides, stages, place, absent):
    cfg_path = write_config(tmp_path, {**overrides, "il.optimizer": {"kind": "sgd", "learning_rate": 1e300}})
    out = tmp_path / "out"
    for stage in stages[:-1]:
        assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main([stages[-1], "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {place}: forward pass produced non-finite logits\n"
    assert not (out / absent).exists()


def test_a_ladder_pool_smaller_than_one_candidate_batch_names_ladder_n_B(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"ladder.n_B": 127})  # the pool holds 126
    out = tmp_path / "out"
    assert main(["prepare", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["ladder", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: ladder.n_B: pool of 126 examples is smaller than one candidate batch of 127\n"
    assert not (out / "ladder").exists()


def test_the_batchnorm_last_chunk_refusal_names_run_n_b_and_run_n_B(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"run.model.batchnorm": True, "run.n_b": 2, "run.n_B": 20})
    out = tmp_path / "out"
    for stage in ("prepare", "train-il"):
        assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    # the pool of 126 ends in a chunk of 6, of which a step would train on round(2 * 6 / 20) = 1
    assert capsys.readouterr().err == (
        "error: run.n_b, run.n_B: batch normalization needs >= 2 selected rows in every step, "
        "but n_b=2 of n_B=20 on a pool of 126 selects 1 from the last chunk of 6\n"
    )


def test_stages_load_each_split_they_use_once(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, {"run.seeds": [1, 2]})  # rho-loss + the uniform baseline: 4 runs
    out = tmp_path / "out"
    assert main(["prepare", "--config", str(cfg_path), "--out", str(out)]) == 0
    loads = []
    real_csv, real_table = data.load_dataset_csv, cli.load_il_table

    def load_csv(path):
        ds = real_csv(path)
        loads.append(path.name)
        for value in vars(ds).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False  # a run that writes to the shared splits fails
        return ds

    def load_table(path):
        table = real_table(path)
        loads.append(path.name)
        table.ids.flags.writeable = table.values.flags.writeable = False
        return table

    monkeypatch.setattr(data, "load_dataset_csv", load_csv)
    monkeypatch.setattr(cli, "load_il_table", load_table)
    assert main(["train-il", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert loads == ["train.csv", "holdout.csv"]
    loads.clear()
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]) == 0
    assert sorted(loads) == ["il_table.csv", "test.csv", "train.csv"]
    assert len(list((out / "runs").glob("record_*.csv"))) == 4
    loads.clear()
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--resume"]) == 0
    assert loads == []
    assert main(["ladder", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert loads == ["train.csv", "holdout.csv"]
    monkeypatch.undo()

    # the loaded splits and table reach worker processes as the same values
    par = tmp_path / "par"
    for sub in ("dataset", "il"):
        shutil.copytree(out / sub, par / sub)
    assert main(["run", "--config", str(cfg_path), "--out", str(par), "--jobs", "2"]) == 0
    for path in sorted((out / "runs").glob("record_*.csv")):
        seq, para = path.read_text().splitlines(), (par / "runs" / path.name).read_text().splitlines()
        assert seq[0].split(" generated_at=")[0] == para[0].split(" generated_at=")[0]
        assert seq[1:] == para[1:]


def test_run_with_parallel_jobs(tmp_path):
    cfg_path = write_config(tmp_path, {"run.seeds": [1, 2], "run.targets": [], "run.policy.kind": "uniform"})
    out = tmp_path / "out"
    assert main(["prepare", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--jobs", "2"]) == 0
    files = sorted(p.name for p in (out / "runs").glob("*.csv"))
    assert files == ["record_uniform_seed1.csv", "record_uniform_seed2.csv"]
    # parallel runs match the sequential ones byte for byte (minus timestamp)
    seq_out = tmp_path / "seq"
    assert main(["prepare", "--config", str(cfg_path), "--out", str(seq_out)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(seq_out)]) == 0

    def strip(text):
        lines = text.splitlines()
        head = [t for t in lines[0].split() if not t.startswith("generated_at=")]
        return "\n".join([" ".join(head)] + lines[1:])

    for name in files:
        assert strip((out / "runs" / name).read_text()) == strip((seq_out / "runs" / name).read_text())
