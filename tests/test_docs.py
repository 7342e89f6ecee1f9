"""The config tables of docs/file-formats.md against the schema in config.py."""
import dataclasses
import json
import re
import types
import typing
from pathlib import Path

from rholoss import config

DOC = Path(__file__).resolve().parents[1] / "docs" / "file-formats.md"


def _doc_tables() -> dict[str, dict[str, str]]:
    """{heading's first `name` ("" for none): {key: default cell}} of every
    `| key | default | allowed |` table in the doc."""
    tables: dict[str, dict[str, str]] = {}
    heading, rows = "", None
    for line in DOC.read_text().splitlines():
        if line.startswith("| key | default | allowed |"):
            rows = tables.setdefault(heading, {})
        elif rows is not None and line.startswith("|"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if set(cells[0]) != {"-"}:
                for key in re.findall(r"`([^`]+)`", cells[0]):
                    rows[key] = cells[1]
        elif line.strip():
            rows = None
            name = re.match(r"`(\w+)`", line)
            heading = name.group(1) if name else ""
    return tables


def _shown(f: dataclasses.Field) -> str:
    """How the doc writes a field's default."""
    default = f.default
    if default is dataclasses.MISSING:
        return "required"
    if default is None:
        return "none"
    if isinstance(default, bool):
        return str(default).lower()
    if isinstance(default, str):
        return f"`{default}`"
    if isinstance(default, tuple):
        return f"`{json.dumps(list(default))}`"
    return repr(default)


def _schema_keys(cls, prefix: str = "") -> dict[str, str]:
    """{dotted key: default as the doc writes it} of cls's fields, walking
    into nested sections. Every seed, every optimizer block and (at the
    root) the sections themselves have their own documentation."""
    keys = {}
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        typ = hints[f.name]
        if isinstance(typ, types.UnionType):
            typ = typing.get_args(typ)[0]
        if f.name == "seed" or typ is config.OptimizerSettings:
            continue
        if dataclasses.is_dataclass(typ):
            if cls is not config.ExperimentConfig:
                keys.update(_schema_keys(typ, f"{prefix}{f.name}."))
        else:
            keys[prefix + f.name] = _shown(f)
    return keys


_TABLE_SCHEMAS = {
    "": config.ExperimentConfig,
    "dataset": config.DatasetSection,
    "optimizer": config.OptimizerSettings,
    "il": config.IlSection,
    "run": config.RunSection,
    "ladder": config.LadderConfig,
    "sweep": config.SweepSection,
}


def test_every_schema_section_has_a_doc_table():
    tables = _doc_tables()
    assert set(tables) == set(_TABLE_SCHEMAS)
    roots = {typing.get_args(t)[0] if isinstance(t, types.UnionType) else t
             for t in typing.get_type_hints(config.ExperimentConfig).values()}
    assert roots - {str} == set(_TABLE_SCHEMAS.values()) - {config.ExperimentConfig, config.OptimizerSettings}


def test_doc_tables_name_every_schema_key_with_its_default():
    for heading, rows in _doc_tables().items():
        schema = _schema_keys(_TABLE_SCHEMAS[heading])
        assert sorted(set(rows) - set(schema)) == [], f"`{heading}` table names keys the schema lacks"
        assert sorted(set(schema) - set(rows)) == [], f"`{heading}` table lacks schema keys"
        for key, default in schema.items():
            shown = rows[key]
            assert shown.startswith(default) if default == "required" else shown == default, (
                f"`{heading}` table shows {key} defaulting to {shown}, the schema to {default}")
