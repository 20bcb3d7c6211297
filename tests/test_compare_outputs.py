"""tests/compare_outputs.py, the byte-identity check between two trees."""

import compare_outputs


def test_tree_matches_itself_and_a_changed_file_shows(tmp_path):
    differences, compared = compare_outputs.compare(
        compare_outputs.ROOT, seeds=(0,), runs=("replicate-json",))
    assert differences == [] and compared == 7
    mine, other = tmp_path / "mine", tmp_path / "other"
    for top in (mine, other):
        top.mkdir()
        (top / "same.json").write_bytes(b"{}")
        (top / "edited.csv").write_bytes(b"x\n1.0\n")
    (other / "edited.csv").write_bytes(b"x\n1.0000000000000002\n")
    (mine / "extra.json").write_bytes(b"{}")
    assert compare_outputs.diff_dirs(str(mine), str(other)) == (
        ["edited.csv", "extra.json (only in this tree)"], 3)


def test_a_run_failing_alike_on_both_sides_is_a_difference(monkeypatch):
    monkeypatch.setattr(compare_outputs, "run_argv",
                        lambda *_: ["no-such-command"])
    differences, compared = compare_outputs.compare(
        compare_outputs.ROOT, seeds=(0,), runs=("replicate-csv",))
    assert compared == 0 and differences == [
        "replicate-csv/seed0: exit code 2 here, 2 in the other tree",
        "replicate-csv/seed0: no file written"]
