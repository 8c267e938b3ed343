"""Tests for the category type and the two mapping tables."""

import pytest

from turklex._data import bundled_path
from turklex.catmap import Cat5, DerivMapTable, RootMapTable, load_inventory
from turklex.featstruct import FrozenFeatStruct


@pytest.fixture(scope="module")
def inventory():
    return load_inventory(bundled_path("categories.tsv"))


@pytest.fixture(scope="module")
def rootmap(inventory):
    return RootMapTable.load(bundled_path("rootmap.tsv"), inventory)


@pytest.fixture(scope="module")
def derivmap(inventory):
    return DerivMapTable.load(bundled_path("derivmap.tsv"), inventory)


class TestCat5:
    def test_round_trip(self):
        cat = Cat5.from_text("nominal,sentential,act,infinitive,ma")
        assert cat.render() == "nominal,sentential,act,infinitive,ma"

    def test_short_text_padded_with_none(self):
        assert Cat5.from_text("nominal,noun") == Cat5("nominal", "noun", "none", "none", "none")

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            Cat5.from_text("")

    def test_too_many_slots_rejected(self):
        with pytest.raises(ValueError):
            Cat5.from_text("a,b,c,d,e,f")

    @pytest.mark.parametrize("text", ["nominal,,common", "nominal,", ",noun", "nominal, ,noun"])
    def test_empty_slot_rejected(self, text):
        # dropping an empty slot would shift the later slots left
        with pytest.raises(ValueError, match="comma-separated atoms"):
            Cat5.from_text(text)

    def test_as_fs(self):
        fs = Cat5.from_text("verb,attributive").as_fs()
        assert type(fs) is FrozenFeatStruct
        assert list(fs.keys()) == ["maj", "min", "sub", "ssub", "sssub"]
        assert fs["maj"] == "verb"
        assert fs["sssub"] == "none"
        # one block per category, however the category was made
        assert Cat5("verb", "attributive").as_fs() is fs
        assert Cat5.from_text("verb,attributive,none").as_fs() is fs
        assert Cat5.from_text("verb").as_fs() is not fs

    def test_matches_none_wildcard(self):
        concrete = Cat5.from_text("nominal,noun,common,none,none")
        assert concrete.matches(Cat5.from_text("nominal"))
        assert concrete.matches(Cat5.from_text("nominal,noun"))
        assert concrete.matches(concrete)
        assert not concrete.matches(Cat5.from_text("nominal,pronoun"))
        # a wildcard slot also matches a non-none value
        sentential = Cat5.from_text("nominal,sentential,act,infinitive,ma")
        assert sentential.matches(Cat5.from_text("nominal,sentential"))


class TestInventory:
    def test_size(self, inventory):
        assert len(inventory) == 44

    def test_known_members(self, inventory):
        assert Cat5.from_text("nominal,noun,common,none,none") in inventory
        assert Cat5.from_text("verb,predicative,none,none,none") in inventory
        assert Cat5.from_text("post-position,ins-subcat,none,none,none") in inventory
        assert Cat5.from_text("adverbial,temporal,time-period,fuzzy,none") in inventory


class TestRootMap:
    def test_size(self, rootmap):
        assert len(rootmap) == 32

    @pytest.mark.parametrize(
        "key, cat",
        [
            (("noun", "none", "at"), "nominal,noun,common,none,none"),
            (("noun", "temp1", "ekim"), "nominal,noun,common,none,none"),
            (("adj", "none", "memnun"), "adjectival,adjective,qualitative,none,none"),
            (("verb", "none", "kaz"), "verb,predicative,none,none,none"),
            (("verb", "none", "var"), "verb,existential,none,none,none"),
            (("postp", "none", "iCin"), "post-position,nom-subcat,none,none,none"),
        ],
    )
    def test_known_rows(self, rootmap, key, cat):
        assert rootmap.rows.get(key) == Cat5.from_text(cat)

    @pytest.mark.parametrize(
        "key",
        [
            ("noun", "none", "atIm"),       # over-segmented root: deliberately absent
            ("noun", "rproper", "memnun"),  # proper-noun reading of an adjective
            ("noun", "none", "memnun"),
            ("noun", "none", "yoktur"),
        ],
    )
    def test_missing_rows(self, rootmap, key):
        assert rootmap.rows.get(key) is None

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "rootmap.tsv"
        path.write_text(
            "noun\tnone\tat\tnominal,noun,common,none,none\n"
            "noun\tnone\tat\tnominal,noun,proper,none,none\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="duplicate"):
            RootMapTable.load(path)

    def test_unknown_category_rejected(self, tmp_path, inventory):
        path = tmp_path / "rootmap.tsv"
        path.write_text("noun\tnone\tat\tnominal,gerund,none,none,none\n", encoding="utf-8")
        with pytest.raises(ValueError, match="inventory"):
            RootMapTable.load(path, inventory)

    def test_every_value_in_inventory(self, rootmap, inventory):
        assert set(rootmap.rows.values()) <= inventory


class TestDerivMap:
    def test_size(self, derivmap):
        assert len(derivmap) == 41

    @pytest.mark.parametrize(
        "key, cat",
        [
            (("verb", "none"), "verb,attributive,none,none,none"),
            (("verb", "lan"), "verb,predicative,none,none,none"),
            (("noun", "ma"), "nominal,sentential,act,infinitive,ma"),
            (("noun", "dIk"), "nominal,sentential,fact,participle,dIk"),
            (("noun", "cI"), "nominal,noun,common,none,none"),
            (("adj", "lI"), "adjectival,adjective,qualitative,none,none"),
            (("adverb", "ca"), "adverbial,manner,qualitative,none,none"),
            (("adverb", "dIkCa"), "adverbial,manner,repetition,none,none"),
            (("adverb", "ken"), "adverbial,temporal,time-period,fuzzy,none"),
            (("rpronoun", "none"), "nominal,pronoun,quantification,none,none"),
        ],
    )
    def test_known_rows(self, derivmap, key, cat):
        assert derivmap.rows.get(key) == Cat5.from_text(cat)

    def test_missing_row(self, derivmap):
        assert derivmap.rows.get(("noun", "acak")) is None
        assert derivmap.rows.get(("pronoun", "none")) is None

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "derivmap.tsv"
        path.write_text(
            "verb\tnone\tverb,attributive,none,none,none\n"
            "verb\tnone\tverb,predicative,none,none,none\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="duplicate"):
            DerivMapTable.load(path)

    def test_every_value_in_inventory(self, derivmap, inventory):
        assert set(derivmap.rows.values()) <= inventory
