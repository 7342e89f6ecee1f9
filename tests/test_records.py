"""The headed-CSV format that every file shares, and run-record persistence."""
import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rholoss
from rholoss import cli, nn, records
from rholoss.config import parse_config
from rholoss.data import load_dataset_csv
from rholoss.ilmodel import IrreducibleLossTable, load_il_table, save_il_table
from rholoss.records import (
    CompositionRow,
    EvalRow,
    RunRecord,
    StepRow,
    load_run_record,
    read_table,
    save_run_record,
    write_table,
)

# Header keys and values are whitespace-separated key=value tokens.
_TOKEN = st.text("abcxyzABC0189_-.:;+", min_size=1, max_size=12)
_FLOATS = st.floats(allow_nan=False)
_CELL = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=12)


@settings(max_examples=60, deadline=None)
@given(
    meta=st.dictionaries(_TOKEN, st.one_of(_TOKEN, st.integers()), max_size=5),
    columns=st.lists(_CELL, min_size=1, max_size=4),
    rows=st.lists(st.lists(_CELL, min_size=1, max_size=4), max_size=8),
)
def test_write_table_roundtrips_any_meta_and_rows(tmp_path_factory, meta, columns, rows):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    write_table(path, "thing", meta, columns, rows)
    back_meta, back_rows = read_table(path, "thing")
    assert back_meta == {key: str(value) for key, value in meta.items()}
    assert back_rows == rows
    assert not Path(f"{path}.tmp").exists()


_RECORDS = st.builds(
    RunRecord,
    policy=st.sampled_from(["uniform", "rho-loss", "grad-norm-is", "bald"]),
    seed=st.integers(0, 2**63),
    config_hash=st.text("0123456789abcdef", min_size=1, max_size=16),
    steps=st.lists(st.builds(StepRow, st.integers(0, 10**6), st.integers(1, 100),
                             st.lists(st.integers(-(2**62), 2**62), max_size=6).map(tuple), _FLOATS), max_size=6),
    evals=st.lists(st.builds(EvalRow, st.integers(0, 10**6), st.integers(1, 100), st.booleans(),
                             _FLOATS, _FLOATS), max_size=6),
    compositions=st.lists(st.builds(CompositionRow, st.integers(1, 100), st.integers(0, 10**6),
                                    _FLOATS, _FLOATS, _FLOATS), max_size=6),
)


@settings(max_examples=80, deadline=None)
@given(record=_RECORDS)
def test_run_record_roundtrips_through_its_file(tmp_path_factory, record):
    path = tmp_path_factory.mktemp("record") / "record.csv"
    save_run_record(record, path, generated_at="2000-01-01T00:00:00+00:00")
    back = load_run_record(path)
    assert back == record
    again = path.with_name("again.csv")
    save_run_record(back, again, generated_at="2000-01-01T00:00:00+00:00")
    assert again.read_bytes() == path.read_bytes()


def _fill_the_disk_after_two_writes(monkeypatch):
    """From now on, a file that records opens for writing takes two writes
    (a table's header line and column row) and then raises, as a full disk
    would, whichever writer fills it."""
    real_open = open

    class Failing:
        def __init__(self, f):
            self.f, self.writes = f, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, text):
            if self.writes == 2:
                raise OSError("disk full")
            self.writes += 1
            return self.f.write(text)

        def writelines(self, lines):
            for line in lines:
                self.write(line)

    def failing_open(path, mode="r", **kwargs):
        f = real_open(path, mode, **kwargs)
        return Failing(f) if "w" in mode else f

    monkeypatch.setattr(records, "open", failing_open, raising=False)


def test_failed_il_table_write_leaves_no_file_and_no_tmp(tmp_path, monkeypatch):
    kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
    save_il_table(IrreducibleLossTable([1, 2], [0.5, 0.25]), kept)
    before = kept.read_bytes()
    _fill_the_disk_after_two_writes(monkeypatch)
    for path in (kept, fresh):
        with pytest.raises(OSError, match="disk full"):
            save_il_table(IrreducibleLossTable([1, 2, 3], [0.75, 0.125, 1.0]), path)
        assert not Path(f"{path}.tmp").exists()
    assert kept.read_bytes() == before
    assert not fresh.exists()


def test_failed_model_save_leaves_no_file_and_no_tmp(tmp_path, monkeypatch):
    kept, fresh = tmp_path / "kept.npz", tmp_path / "fresh.npz"
    nn.save_model(nn.init_mlp((3, 4, 2), seed=0), kept)
    before = kept.read_bytes()

    real_write, calls = np.lib.format.write_array, itertools.count()

    def write_one_array_then_fail(fid, array, **kwargs):
        if next(calls) % 2:  # the second array of each save
            raise OSError("disk full")
        real_write(fid, array, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", write_one_array_then_fail)
    for path in (kept, fresh):
        with pytest.raises(OSError, match="disk full"):
            nn.save_model(nn.init_mlp((3, 4, 2), seed=1), path)
        assert not Path(f"{path}.tmp").exists()
    assert kept.read_bytes() == before
    assert not fresh.exists()


def _file_writes(source: str) -> list[int]:
    """Lines of source that write a file other than through a file object
    that atomic_write yields: open with a write mode, np.savez to anything
    else, and Path.write_text / write_bytes."""
    tree = ast.parse(source)
    atomic = {
        item.optional_vars.id
        for node in ast.walk(tree) if isinstance(node, ast.With)
        for item in node.items
        if isinstance(item.context_expr, ast.Call) and getattr(item.context_expr.func, "id", None) == "atomic_write"
        and isinstance(item.optional_vars, ast.Name)
    }
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name == "open":
            modes = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
            writes = any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+") for m in modes)
        elif name in ("savez", "savez_compressed"):
            writes = not (node.args and isinstance(node.args[0], ast.Name) and node.args[0].id in atomic)
        else:
            writes = name in ("write_text", "write_bytes")
        if writes:
            lines.append(node.lineno)
    return sorted(lines)


def test_every_file_the_package_writes_goes_through_atomic_write():
    assert _file_writes('with open(p, "w") as f: pass\nnp.savez(p, a=a)\np.write_text("x")\n') == [1, 2, 3]
    assert _file_writes('with atomic_write(p, binary=True) as f:\n    np.savez(f, a=a)\nopen(p, "rb")\n') == []
    package = Path(rholoss.__file__).parent
    writes = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if path.name != "records.py" and (lines := _file_writes(path.read_text()))
    }
    assert writes == {}


def test_failed_report_write_leaves_no_file_and_no_tmp(tmp_path, monkeypatch):
    cfg = parse_config({"dataset": {"kind": "synthetic"},
                        "run": {"policy": {"kind": "uniform"}, "targets": [0.5]}})
    (tmp_path / "runs").mkdir()
    for seed in (1, 2):
        record = RunRecord("uniform", seed, "abc", evals=[EvalRow(10, 1, True, 0.25 * seed, 1.0)],
                           compositions=[CompositionRow(1, 4, 0.25, 0.0, 0.5)])
        save_run_record(record, tmp_path / "runs" / f"record_uniform_seed{seed}.csv")
    _fill_the_disk_after_two_writes(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        cli.cmd_report(cfg, tmp_path)
    assert list((tmp_path / "reports").iterdir()) == []


def test_reading_a_file_with_the_wrong_tag_names_the_path(tmp_path):
    path = tmp_path / "il_table.csv"
    save_il_table(IrreducibleLossTable([1], [0.5]), path)
    for load in (load_dataset_csv, load_run_record, lambda p: read_table(p, "ladder")):
        with pytest.raises(ValueError, match="not a rholoss-") as info:
            load(path)
        assert str(path) in str(info.value)
    table = load_il_table(path)
    assert (table.ids.tolist(), table.values.tolist()) == ([1], [0.5])
