"""Run records, and the one owner of the file format every tool writes.

Every file starts with a `# rholoss-<tag> v1 key=value ...` header line
(header_line / read_header); plain tables follow it with a column row and
csv rows (write_table), written atomically through atomic_write so a
partial file never appears; the package never reads one back. The two
tables of numbers, the dataset cache and the IL table, take the same bytes
through write_numeric_table, which formats one row with one `%` and holds
one block of rows as Python objects at a time, and are read through
read_numeric_header and read_numeric_rows, which parse the whole body with
one np.loadtxt pass.

A record file is a single CSV with three sections, [steps], [evals] and
[compositions] (docs/file-formats.md shows the layout). Each section's
columns are the fields of its row type (StepRow, EvalRow, CompositionRow),
and each field's annotation picks how its cells are written and read
(_CELL_FORMATS). Byte-for-byte determinism matters (it is how
reproducibility is audited), so floats are written with repr and the only
run-to-run variable field is the generated_at timestamp in the header.
"""
from __future__ import annotations

import contextlib
import csv
import os
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from typing import Mapping

import numpy as np

_BLOCK_VALUES = 8192  # cells write_numeric_table turns into Python numbers at once


@dataclass
class StepRow:
    step: int
    epoch: int
    selected_ids: tuple[int, ...]
    mean_score: float


@dataclass
class EvalRow:
    step: int
    epoch: int
    at_epoch_end: bool
    accuracy: float
    mean_loss: float


@dataclass
class CompositionRow:
    epoch: int
    n_selected: int
    frac_corrupted: float
    frac_low_relevance: float
    frac_already_correct: float


# How a run-record cell is written and read back, by its field's annotation.
_CELL_FORMATS = {
    "int": (str, int),
    "bool": (lambda v: str(int(v)), lambda s: bool(("0", "1").index(s))),
    "float": (repr, float),
    "tuple[int, ...]": (lambda v: ";".join(map(str, v)), lambda s: tuple(map(int, s.split(";"))) if s else ()),
}

# Each section of a run record, in file order: the RunRecord field it fills,
# its row type, and per field of that type (column, annotation, format, parser).
_SECTIONS = {
    section: (row_type, [(f.name, f.type, *_CELL_FORMATS[f.type]) for f in fields(row_type)])
    for section, row_type in (("steps", StepRow), ("evals", EvalRow), ("compositions", CompositionRow))
}


@dataclass
class RunRecord:
    policy: str
    seed: int
    built_from: str | None = "-"  # None when read from a file whose header has none
    steps: list[StepRow] = field(default_factory=list)
    evals: list[EvalRow] = field(default_factory=list)
    compositions: list[CompositionRow] = field(default_factory=list)

    def final_accuracy(self) -> float:
        if not self.evals:
            raise ValueError("record has no evaluations")
        return self.evals[-1].accuracy

    def epoch_accuracies(self) -> list[float]:
        return [row.accuracy for row in self.evals if row.at_epoch_end]


def epochs_to_target(record: RunRecord, target_accuracy: float) -> int | None:
    """First epoch (1-based) whose end-of-epoch accuracy reaches the target.

    Hitting the target exactly counts as reached; None means never reached.
    """
    for row in record.evals:
        if row.at_epoch_end and row.accuracy >= target_accuracy:
            return row.epoch
    return None


def redundancy_epoch_filter(
    records: Mapping[str, RunRecord], weakest_final_accuracy: float
) -> dict[str, float | None]:
    """Mean already-correct fraction per policy, over qualifying epochs only.

    An epoch qualifies while the policy's test accuracy is still below the
    final accuracy of the weakest method, which controls for methods simply
    being further along. Policies with no qualifying epoch map to None.
    """
    out: dict[str, float | None] = {}
    for name, record in records.items():
        acc_by_epoch = {row.epoch: row.accuracy for row in record.evals if row.at_epoch_end}
        vals = [
            comp.frac_already_correct
            for comp in record.compositions
            if comp.epoch in acc_by_epoch and acc_by_epoch[comp.epoch] < weakest_final_accuracy
        ]
        out[name] = sum(vals) / len(vals) if vals else None
    return out


def weakest_final_accuracy(records: Mapping[str, RunRecord]) -> float:
    return min(r.final_accuracy() for r in records.values())


@contextlib.contextmanager
def atomic_write(path, newline: str | None = None, binary: bool = False):
    """A file (text, or bytes when binary) that becomes path only once the
    block succeeds: it is written as path.tmp and renamed over path, and
    removed on failure, so a partial file never appears."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb" if binary else "w", newline=newline) as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def header_line(tag: str, meta: Mapping[str, object]) -> str:
    """The first line of every file the tools write:
    `# rholoss-<tag> v1 key=value ...`, fields in meta's order."""
    fields = "".join(f" {key}={value}" for key, value in meta.items())
    return f"# rholoss-{tag} v1{fields}\n"


def read_header(line: str, tag: str, what) -> dict[str, str]:
    """The key=value fields of a header line; what (usually the path) names
    the file in the error raised when the line does not carry tag."""
    parts = line.split()
    if parts[:3] != ["#", f"rholoss-{tag}", "v1"]:
        raise ValueError(f"{what}: not a rholoss-{tag} v1 file")
    for part in parts[3:]:
        if "=" not in part:
            raise ValueError(f"{what}: header field {part!r} is not key=value")
    return dict(part.split("=", 1) for part in parts[3:])


def write_table(path, tag: str, meta: Mapping[str, object], columns, rows) -> None:
    """A headed CSV, written atomically: the header line (ending in LF), the
    column row, then one line per row (ending in csv's default CRLF)."""
    with atomic_write(path, newline="") as f:
        f.write(header_line(tag, meta))
        writer = csv.writer(f)
        writer.writerow(columns)
        writer.writerows(rows)


def write_numeric_table(path, tag: str, meta: Mapping[str, object], columns, ints, floats) -> None:
    """A headed table of numbers, written atomically with the bytes
    write_table gives the same cells: row i holds the ints of ints[i] (%d)
    then the floats of floats[i] (%r, which is repr, so they round-trip
    exactly). Rows become Python numbers one block of about _BLOCK_VALUES
    cells (at least one row) at a time, are formatted one % per row and
    streamed, so the writer holds one block whatever the table's length."""
    row = ",".join(["%d"] * ints.shape[1] + ["%r"] * floats.shape[1]) + "\r\n"
    block = max(1, _BLOCK_VALUES // max(1, ints.shape[1] + floats.shape[1]))
    with atomic_write(path, newline="") as f:
        f.write(header_line(tag, meta))
        f.write(",".join(columns) + "\r\n")
        for start in range(0, len(ints), block):
            stop = start + block
            f.writelines(row % (*i, *x) for i, x in zip(ints[start:stop].tolist(), floats[start:stop].tolist()))


def read_numeric_header(f, tag: str, what, *keys: str) -> list[str]:
    """The values of keys, in order, in the header line of a file
    write_numeric_table wrote, from f opened "rb" at its start. Another tag,
    or a header that lacks any of keys, raises a ValueError naming what
    (usually the path) and every missing key."""
    meta = read_header(f.readline().decode("ascii", "replace"), tag, what)
    missing = [key for key in keys if key not in meta]
    if missing:
        raise ValueError(f"{what}: header lacks {' and '.join(missing)}")
    return [meta[key] for key in keys]


def read_numeric_rows(f, what, ints: int, floats: int) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, ints) int64 and (rows, floats) float64 arrays of a file
    write_numeric_table wrote, from f read past its header line by
    read_numeric_header; the column row is skipped. Integer cells are
    parsed strictly (no "3.0"), floats with correct rounding, and no string
    is built per cell. A row that is not ints integers then floats floats
    raises a ValueError naming what (usually the path)."""
    f.readline()
    dtype = np.dtype([("ints", np.int64, (ints,)), ("floats", np.float64, (floats,))])
    try:  # loadtxt warns on an empty body, so an empty body skips it
        rows = np.loadtxt(f, dtype, delimiter=",", comments=None, ndmin=1) if f.peek(1) else np.empty(0, dtype)
    except ValueError as exc:
        reason = str(exc).split(";")[0]  # drop loadtxt's advice to pass usecols
        raise ValueError(
            f"{what}: expected {ints} integer then {floats} float columns in every row; {reason}"
        ) from None
    return rows["ints"].copy(), rows["floats"].copy()


def save_run_record(record: RunRecord, path, generated_at: str | None = None) -> None:
    """Atomic write (tmp + rename) so partial files never appear."""
    if generated_at is None:
        generated_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    meta = {"built_from": record.built_from, "seed": record.seed, "policy": record.policy,
            "generated_at": generated_at}
    with atomic_write(path, newline="") as f:
        f.write(header_line("run-record", meta))
        writer = csv.writer(f, lineterminator="\n")
        for section, (_, cells) in _SECTIONS.items():
            f.write(f"[{section}]\n")
            writer.writerow(column for column, *_ in cells)
            for row in getattr(record, section):
                writer.writerow([fmt(getattr(row, column)) for column, _, fmt, _ in cells])


def load_run_record(path) -> RunRecord:
    """The record save_run_record wrote to path. A header without policy or
    an integer seed, an unknown section, a column row other than its row
    type's fields, a row before any section, or a row with the wrong number
    of cells or a cell its column cannot parse raises a ValueError naming
    path and the line."""
    with open(path, newline="") as f:
        meta = read_header(f.readline(), "run-record", path)
        if "policy" not in meta or not meta.get("seed", "").isdecimal():
            raise ValueError(f"{path}: line 1: the header needs policy=<kind> and seed=<int>")
        record = RunRecord(policy=meta["policy"], seed=int(meta["seed"]), built_from=meta.get("built_from"))
        reader = csv.reader(f)

        def refused(reason: str) -> ValueError:
            return ValueError(f"{path}: line {reader.line_num + 1}: {reason}")

        rows = None
        for row in reader:
            if not row:
                continue
            if row[0].startswith("["):
                section = row[0][1:-1]
                if row != [f"[{section}]"] or section not in _SECTIONS:
                    raise refused(f"unknown section {','.join(row)}")
                row_type, cells = _SECTIONS[section]
                columns = [column for column, *_ in cells]
                if next(reader, None) != columns:
                    raise refused(f"[{section}] needs the column row {','.join(columns)}")
                rows = getattr(record, section)
            elif rows is None:
                raise refused("a row before any section")
            elif len(row) != len(cells):
                raise refused(f"expected {len(cells)} cells ({','.join(columns)}), got {len(row)}")
            else:
                values = []
                for cell, (column, annotation, _, parse) in zip(row, cells):
                    try:
                        values.append(parse(cell))
                    except ValueError:
                        raise refused(f"{column}={cell!r} is not {annotation}") from None
                rows.append(row_type(*values))
    return record
