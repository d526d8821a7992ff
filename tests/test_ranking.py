import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfstereo.ranking import parse_ballots, schulze_rank

# per-dataset rank columns of the six-method robustness comparison
KITTI = ["NLCANet", "CFNet", "CVANet", "GANet", "AANet", "HSMNet"]
MIDDLEBURY = ["HSMNet", "CFNet", "NLCANet", "CVANet", "AANet", "GANet"]
ETH3D = ["CFNet", "NLCANet", "HSMNet", "CVANet", "AANet", "GANet"]
OVERALL = ["CFNet", "NLCANet", "HSMNet", "CVANet", "AANet", "GANet"]


def flat(ranked):
    return [name for group in ranked for name in group]


def test_single_ballot_keeps_order():
    assert flat(schulze_rank([KITTI])) == KITTI


def test_three_dataset_fusion():
    ranked = schulze_rank([KITTI, MIDDLEBURY, ETH3D])
    assert flat(ranked) == OVERALL
    assert all(len(g) == 1 for g in ranked)


def test_opposite_ballots_tie():
    ranked = schulze_rank([["a", "b"], ["b", "a"]])
    assert len(ranked) == 1
    assert sorted(ranked[0]) == ["a", "b"]


def test_tie_groups_in_ballots():
    ranked = schulze_rank([[["a", "b"], "c"], ["a", "b", "c"]])
    assert flat(ranked)[-1] == "c"


def test_duplicate_in_ballot_rejected():
    with pytest.raises(ValueError, match="once"):
        schulze_rank([["a", "b", "a"]])


def test_empty_rejected():
    with pytest.raises(ValueError, match="ballot"):
        schulze_rank([])


@given(st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_ballot_order_invariance(rnd):
    ballots = [KITTI, MIDDLEBURY, ETH3D]
    shuffled = ballots[:]
    rnd.shuffle(shuffled)
    assert schulze_rank(shuffled) == schulze_rank(ballots)


def test_renaming_invariance():
    mapping = {n: f"m{i}" for i, n in enumerate(OVERALL)}
    ballots = [[mapping[n] for n in b] for b in (KITTI, MIDDLEBURY, ETH3D)]
    renamed = flat(schulze_rank(ballots))
    assert renamed == [mapping[n] for n in OVERALL]


def test_empty_ballot_or_tie_group_rejected():
    for ballot in ([], ["a", []], [["a", "b"], []]):
        with pytest.raises(ValueError, match="names no method"):
            schulze_rank([["a", "b"], ballot])


def test_parse_ballots_names_a_line_without_methods():
    with pytest.raises(ValueError, match=r"line 3 names no method: ', ,'"):
        parse_ballots("a, b\n# comment\n, ,\n")


def test_parse_ballots_roundtrip():
    text = "a, b, c\n\n# comment\nc,b,a\n"
    assert parse_ballots(text) == [["a", "b", "c"], ["c", "b", "a"]]
    with pytest.raises(ValueError):
        parse_ballots("# nothing here\n")
