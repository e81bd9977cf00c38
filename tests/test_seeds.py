import numpy as np
import pytest

from midiv import seeds
from midiv.seeds import derive_label, derive_seed

PARENTS = [(0,), (7, "bag", "b001"), ("sim1", 2, 3, 0, 1.5), (np.int64(3), True, "score")]


def state(seed):
    return seed.generate_state(8).tolist()


class TestHashLabels:
    """A per-bag seed carried as its hash label derives the same children as
    the SeedSequence it stands for."""

    @pytest.mark.parametrize("parts", PARENTS)
    def test_label_is_the_seed_sequences_canonical_form(self, parts):
        assert derive_label(*parts) == f"ss:{derive_seed(*parts).entropy}:()"

    @pytest.mark.parametrize("parts", PARENTS)
    @pytest.mark.parametrize("child", [("dim", 0), ("feat", 2), ("bagfit", 1), ()])
    def test_children_equal(self, parts, child):
        assert state(derive_seed(derive_label(*parts), *child)) == state(
            derive_seed(derive_seed(*parts), *child))

    def test_labels_nest(self):
        cell = derive_seed(1, "sim2", 5, 10, 0)
        as_label = derive_label(derive_label(1, "sim2", 5, 10, 0), "bag", "b3")
        assert state(derive_seed(as_label, "dim", 0)) == state(
            derive_seed(derive_seed(cell, "bag", "b3"), "dim", 0))

    def test_a_plain_string_is_not_a_label(self):
        label = derive_label(4, "score", "b1")
        assert state(derive_seed(str(label), "dim", 0)) != state(derive_seed(label, "dim", 0))

    def test_hashed_once_when_first_read(self, monkeypatch):
        hashed = []
        entropy = seeds._entropy
        monkeypatch.setattr(seeds, "_entropy", lambda parts: hashed.append(parts) or entropy(parts))
        label = derive_label(4, "score", "b1")
        assert hashed == []
        text = str(label)
        assert type(text) is str and hashed == [(4, "score", "b1")]
        assert label == text and label != "b1" and hash(label) == hash(text)
        derive_seed(label, "dim", 0)
        assert hashed[1:] == [(label, "dim", 0)]  # the child's own hash only
