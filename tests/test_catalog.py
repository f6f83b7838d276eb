from itertools import product

import numpy as np
import pytest

from pcar.catalog import (
    DEFAULT_SCHEMA,
    Catalog,
    CatalogError,
    load_catalog,
    load_starter_catalog,
    match_score,
    resolve,
)

HEADER = "id\tnode\ttext\tintervention_type\temotional_regulation\ttherapy_group\tlocation\tduration_seconds\n"


def write_catalog(tmp_path, rows, name="cat.tsv"):
    path = tmp_path / name
    path.write_text(HEADER + "".join(rows), encoding="utf-8")
    return path


def row(id_, node, er, tg, loc, text="line", itype="t", dur="60"):
    return f"{id_}\t{node}\t{text}\t{itype}\t{er}\t{tg}\t{loc}\t{dur}\n"


def test_starter_catalog_loads_with_sixteen_entries():
    cat = load_starter_catalog()
    assert len(cat.entries) == 16
    ids = [e.id for e in cat.entries]
    assert len(set(ids)) == 16
    for e in cat.entries:
        assert 1 <= e.duration_seconds <= 60
        assert len(e.node_texts) == 4


def test_starter_meditation_attributes():
    cat = load_starter_catalog()
    (e,) = [e for e in cat.entries if e.id == "meditation"]
    assert e.attribute_values == ("response_modulation", "meta_cognitive", "both")


def test_starter_scribbling_attributes():
    (e,) = [e for e in load_starter_catalog().entries if e.id == "scribbling"]
    assert e.attribute_values == ("attention_deployment", "meta_cognitive", "both")


def test_starter_attribute_values_are_schema_vectors():
    for e in load_starter_catalog().entries:
        indices = DEFAULT_SCHEMA.validate_vector(e.attribute_values)
        assert DEFAULT_SCHEMA.value_names(indices) == e.attribute_values


def test_interleaved_ids_group_into_entries_in_first_seen_order(tmp_path):
    path = write_catalog(
        tmp_path,
        [
            row("a", "node_id_2", "response_modulation", "somatic", "indoor", "a2"),
            row("b", "node_id_1", "cognitive_change", "meta_cognitive", "both", "b1"),
            row("a", "node_id_1", "response_modulation", "somatic", "indoor", "a1"),
        ],
    )
    a, b = load_catalog(path).entries
    assert (a.id, b.id) == ("a", "b")
    assert a.node_texts == (("node_id_1", "a1"), ("node_id_2", "a2"))
    assert b.node_texts == (("node_id_1", "b1"),)


def test_unknown_location_rejected_with_row_number(tmp_path):
    path = write_catalog(
        tmp_path,
        [
            row("a", "node_id_1", "response_modulation", "somatic", "indoor"),
            row("b", "node_id_1", "response_modulation", "somatic", "underwater"),
        ],
    )
    with pytest.raises(CatalogError, match="row 3") as exc:
        load_catalog(path)
    assert "underwater" in str(exc.value)


def test_duplicate_node_within_entry_rejected(tmp_path):
    path = write_catalog(
        tmp_path,
        [
            row("a", "node_id_1", "response_modulation", "somatic", "indoor"),
            row("a", "node_id_1", "response_modulation", "somatic", "indoor"),
        ],
    )
    with pytest.raises(CatalogError, match="repeats node"):
        load_catalog(path)


def test_inconsistent_entry_attributes_rejected(tmp_path):
    path = write_catalog(
        tmp_path,
        [
            row("a", "node_id_1", "response_modulation", "somatic", "indoor"),
            row("a", "node_id_2", "response_modulation", "somatic", "both"),
        ],
    )
    with pytest.raises(CatalogError, match="changes location"):
        load_catalog(path)


@pytest.mark.parametrize("dur", ["abc", "\uff11\uff15", "1.5", "+15", "0"])
def test_duration_must_be_ascii_digits_in_range(tmp_path, dur):
    """A duration cell that is not 1..60 in ASCII digits is a CatalogError
    naming the row, full-width digits included."""
    path = write_catalog(
        tmp_path,
        [row("a", "node_id_1", "response_modulation", "somatic", "indoor", dur=dur)],
    )
    with pytest.raises(CatalogError, match="^row 2: duration"):
        load_catalog(path)


def test_duration_and_node_bounds(tmp_path):
    path = write_catalog(
        tmp_path,
        [row("a", "node_id_1", "response_modulation", "somatic", "indoor", dur="61")],
    )
    with pytest.raises(CatalogError, match="duration"):
        load_catalog(path)
    path = write_catalog(
        tmp_path,
        [row("a", "node_0", "response_modulation", "somatic", "indoor")],
        name="c2.tsv",
    )
    with pytest.raises(CatalogError, match="bad node id"):
        load_catalog(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("id\tnode\n", encoding="utf-8")
    with pytest.raises(CatalogError, match="header"):
        load_catalog(path)


def test_resolve_prefers_exact_over_both_compatible():
    cat = load_starter_catalog()
    rng = np.random.default_rng(0)
    # stretching matches all three exactly; breathing only via location "both"
    got = {
        resolve(cat, ("response_modulation", "somatic", "indoor"), rng).id
        for _ in range(20)
    }
    assert got == {"stretching"}


def test_resolve_single_exact_match_is_seed_independent():
    cat = load_starter_catalog()
    vec = ("situation_modification", "somatic", "outdoor")
    ids = {resolve(cat, vec, np.random.default_rng(s)).id for s in range(10)}
    assert ids == {"step_outside"}


def test_resolve_best_partial_match_verified_by_scoring():
    cat = load_starter_catalog()
    # No entry is (response_modulation, positive_psychology, indoor):
    # expect a maximal-score entry per exhaustive scoring.
    vec = ("response_modulation", "positive_psychology", "indoor")
    rng = np.random.default_rng(3)
    chosen = resolve(cat, vec, rng)
    scores = [match_score(e, vec) for e in cat.entries]
    assert match_score(chosen, vec) == max(scores)


def test_resolve_matched_count_always_maximal():
    cat = load_starter_catalog()
    rng = np.random.default_rng(11)
    values = [DEFAULT_SCHEMA.values(i) for i in range(3)]
    for er in values[0]:
        for tg in values[1]:
            for loc in values[2]:
                vec = (er, tg, loc)
                chosen = resolve(cat, vec, rng)
                best_matched = max(match_score(e, vec)[0] for e in cat.entries)
                assert match_score(chosen, vec)[0] == best_matched


def test_resolve_rejects_invalid_vector():
    cat = load_starter_catalog()
    with pytest.raises(ValueError):
        resolve(cat, ("nope", "somatic", "indoor"), np.random.default_rng(0))


def _ranked(catalog, vector, rng):
    """resolve without the memo: rank every entry on each call."""
    DEFAULT_SCHEMA.validate_vector(vector)
    scores = [match_score(e, vector) for e in catalog.entries]
    pool = [e for sc, e in zip(scores, catalog.entries) if sc == max(scores)]
    return pool[int(rng.integers(len(pool)))]


_VECTORS = list(product(*(DEFAULT_SCHEMA.values(i) for i in range(3))))


def _assert_matches_ranking(cat, seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for vec in _VECTORS:
        assert resolve(cat, vec, rng) is _ranked(cat, vec, ref)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_resolve_memo_matches_uncached_ranking_fresh_and_warm():
    cat = load_starter_catalog()
    assert not cat.pools
    _assert_matches_ranking(cat, 0)  # each vector's first call ranks
    assert set(cat.pools) == set(_VECTORS)
    _assert_matches_ranking(cat, 1)  # every call is served from the memo


def test_resolve_memo_belongs_to_one_catalog():
    full = load_starter_catalog()
    _assert_matches_ranking(full, 0)
    other = Catalog(full.entries[::3])
    assert not other.pools
    _assert_matches_ranking(other, 0)
    assert any(other.pools[v] != full.pools[v] for v in _VECTORS)
    assert other != full and Catalog(full.entries) == full


def test_resolve_memo_still_rejects_invalid_vectors():
    cat = load_starter_catalog()
    _assert_matches_ranking(cat, 0)
    for vec in (("nope", "somatic", "indoor"), ("response_modulation", "somatic")):
        with pytest.raises(ValueError):
            resolve(cat, vec, np.random.default_rng(0))
    assert set(cat.pools) == set(_VECTORS)
