import os

import pytest

from footprints.csvio import write_csv, write_json, write_text


def test_write_json_is_indented_sorted_and_newline_terminated(tmp_path):
    path = tmp_path / "a.json"
    write_json(path, {"b": 1, "a": [1.5]})
    assert path.read_text() == '{\n  "a": [\n    1.5\n  ],\n  "b": 1\n}\n'


def _rows_then_fail():
    yield ("new", 1)
    raise RuntimeError("row source failed")


def _fail_in_rename(src, dst):
    raise OSError("rename failed")


@pytest.mark.parametrize("write, error", [
    # json.dump has written '{\n  "a": 1,\n  "b": ' when it meets the object
    (lambda p: write_json(p, {"a": 1, "b": object()}), TypeError),
    (lambda p: write_csv(p, ["name", "value"], _rows_then_fail()), RuntimeError),
    # the new text is complete, but the rename into place fails
    (lambda p: write_text(p, "new,1\n"), OSError),
])
def test_failed_write_keeps_previous_file_and_leaves_no_temporary(
        tmp_path, monkeypatch, write, error):
    path = tmp_path / "artifact.csv"
    path.write_text("old,0\n")
    if error is OSError:
        monkeypatch.setattr(os, "replace", _fail_in_rename)
    with pytest.raises(error):
        write(path)
    assert path.read_text() == "old,0\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.csv"]


def test_failed_first_write_leaves_nothing(tmp_path):
    with pytest.raises(TypeError):
        write_json(tmp_path / "new.json", {"bad": object()})
    assert list(tmp_path.iterdir()) == []
