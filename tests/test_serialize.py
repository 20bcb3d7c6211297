import pytest

from qstarlab.serialize import atomic_write


def _failing_writer(fh):
    fh.write("partial contents")
    raise RuntimeError("writer failed")


def test_atomic_write_failure_keeps_the_target_and_leaves_no_temp_file(
        tmp_path):
    target = tmp_path / "result.json"
    target.write_bytes(b'{"old": true}\n')
    with pytest.raises(RuntimeError, match="writer failed"):
        atomic_write(str(target), _failing_writer)
    assert target.read_bytes() == b'{"old": true}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["result.json"]


def test_atomic_write_failure_creates_no_new_file(tmp_path):
    target = tmp_path / "sub" / "table.csv"
    with pytest.raises(RuntimeError, match="writer failed"):
        atomic_write(str(target), _failing_writer)
    assert list((tmp_path / "sub").iterdir()) == []

