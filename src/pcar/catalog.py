"""Intervention content pool.

A catalog is a validated set of short (<= 60 s) exercises, each tagged
with the three action attributes the recommender selects over. Content
ships as a tab-separated file with one row per conversation node; rows
sharing an id form one intervention's dialog.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .agent import AttributeSchema

DEFAULT_SCHEMA = AttributeSchema(
    (
        (
            "emotional_regulation",
            (
                "response_modulation",
                "attention_deployment",
                "cognitive_change",
                "situation_modification",
            ),
        ),
        (
            "therapy_group",
            (
                "positive_psychology",
                "cognitive_behavioral",
                "meta_cognitive",
                "somatic",
            ),
        ),
        ("location", ("indoor", "outdoor", "both")),
    )
)

_ATTRIBUTES = tuple(name for name, _ in DEFAULT_SCHEMA.attributes)
COLUMNS = ("id", "node", "text", "intervention_type", *_ATTRIBUTES, "duration_seconds")

MAX_DURATION_SECONDS = 60
_NODE_RE = re.compile(r"^node_id_([1-9])$")


class CatalogError(ValueError):
    """Raised on parse or schema violations; carries the offending row."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        prefix = f"row {row}: " if row is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class InterventionSpec:
    """One deliverable exercise: ordered dialog lines plus its tags, its
    attribute values in ``DEFAULT_SCHEMA``'s order."""

    id: str
    intervention_type: str
    attribute_values: tuple[str, ...]
    duration_seconds: int
    node_texts: tuple[tuple[str, str], ...]  # (node id, line), ordered


@dataclass(frozen=True)
class Catalog:
    entries: tuple[InterventionSpec, ...]
    # resolve's memo: validated action vector -> its best-match pool
    pools: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise CatalogError("catalog is empty")


def _validate_entry(entry_id: str, rows: list[tuple[int, dict]]) -> InterventionSpec:
    first_line, first = rows[0]
    for line, row in rows[1:]:
        for col in COLUMNS[3:]:  # type, attributes and duration
            if row[col] != first[col]:
                raise CatalogError(
                    f"entry {entry_id!r} changes {col} across its rows", line
                )
    attrs = tuple(first[name] for name in _ATTRIBUTES)
    for i, value in enumerate(attrs):
        if value not in DEFAULT_SCHEMA.values(i):
            raise CatalogError(
                f"{value!r} is not a valid {DEFAULT_SCHEMA.name(i)}", first_line
            )
    raw = first["duration_seconds"].strip() or str(MAX_DURATION_SECONDS)
    duration = int(raw) if raw.isascii() and raw.isdigit() else 0
    if not 1 <= duration <= MAX_DURATION_SECONDS:
        raise CatalogError(
            f"duration {raw!r} is not 1..{MAX_DURATION_SECONDS} seconds", first_line
        )
    nodes = []
    seen = set()
    for line, row in rows:
        node = row["node"]
        if not _NODE_RE.match(node):
            raise CatalogError(f"bad node id {node!r}", line)
        if node in seen:
            raise CatalogError(
                f"entry {entry_id!r} repeats node {node!r}", line
            )
        if not row["text"].strip():
            raise CatalogError(f"empty dialog text for node {node!r}", line)
        seen.add(node)
        nodes.append((node, row["text"]))
    nodes.sort(key=lambda nt: nt[0])
    return InterventionSpec(
        id=entry_id,
        intervention_type=first["intervention_type"],
        attribute_values=attrs,
        duration_seconds=duration,
        node_texts=tuple(nodes),
    )


def load_catalog(path: str | Path) -> Catalog:
    """Parse and validate a tab-separated catalog file. Its columns, and
    so its schema, are fixed: ``COLUMNS`` and ``DEFAULT_SCHEMA``.

    Raises CatalogError with the offending 1-based row number on parse
    errors, unknown attribute values, or inconsistent entries.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter="\t")
        try:
            header = next(reader)
        except StopIteration:
            raise CatalogError("file has no header row") from None
        if tuple(header) != COLUMNS:
            raise CatalogError(
                f"header must be {list(COLUMNS)}, got {header}", 1
            )
        grouped: dict[str, list[tuple[int, dict]]] = {}
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(COLUMNS):
                raise CatalogError(
                    f"expected {len(COLUMNS)} columns, got {len(row)}", line_no
                )
            record = dict(zip(COLUMNS, row))
            entry_id = record["id"].strip()
            if not entry_id:
                raise CatalogError("empty id", line_no)
            grouped.setdefault(entry_id, []).append((line_no, record))
    return Catalog(tuple(_validate_entry(eid, rows) for eid, rows in grouped.items()))


def starter_catalog_path() -> Path:
    return Path(resources.files("pcar").joinpath("data/starter_catalog.tsv"))


def load_starter_catalog() -> Catalog:
    """The 16-entry pool bundled with the package."""
    return load_catalog(starter_catalog_path())


def match_score(entry: InterventionSpec, vector: tuple[str, ...]) -> tuple[int, int]:
    """(matched, exact) attribute counts for ranking. A location of
    "both" on either side counts as matched but not exact."""
    matched = exact = 0
    for i, (want, have) in enumerate(zip(vector, entry.attribute_values)):
        if want == have:
            matched += 1
            exact += 1
        elif _ATTRIBUTES[i] == "location" and "both" in (want, have):
            matched += 1
    return matched, exact


def resolve(
    catalog: Catalog, vector: tuple[str, ...], rng: np.random.Generator
) -> InterventionSpec:
    """Pick the entry matching the most attribute values (exact matches
    preferred over "both"-compatible location matches); draw uniformly
    among equally good entries. Each vector's pool is ranked once per
    catalog and kept in ``catalog.pools``; only a validated vector is
    stored there, so a repeat skips the validation too."""
    pool = catalog.pools.get(vector)
    if pool is None:
        DEFAULT_SCHEMA.validate_vector(vector)
        scored = [(match_score(e, vector), e) for e in catalog.entries]
        best = max(score for score, _ in scored)
        pool = catalog.pools[vector] = tuple(e for score, e in scored if score == best)
    return pool[int(rng.integers(len(pool)))]
