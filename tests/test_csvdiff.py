"""The golden tests' failure report names the cells that moved."""

import shutil
from pathlib import Path

from csvdiff import main, report

REFERENCE = Path(__file__).resolve().parent / "reference" / "raytrace_keys.csv"


def with_cell(tmp_path, row, column, value):
    lines = REFERENCE.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[row].split(",")
    col = lines[0].split(",").index(column)
    cells[col] = value + ("\n" if col == len(cells) - 1 else "")
    lines[row] = ",".join(cells)
    path = tmp_path / f"{column}.csv"
    path.write_text("".join(lines), encoding="utf-8")
    return path


def test_report_names_the_one_moved_cell(tmp_path):
    # row 4 is trial 1 of dbf; its sinr_db_u1 reads 26.19787161
    moved = with_cell(tmp_path, 4, "sinr_db_u1", "26.19787162")
    text = report(REFERENCE, moved)
    lines = text.splitlines()[1:]
    assert lines[0].startswith(
        "sinr_db_u1 @ arch=dbf M=12 K=12 users=3 snr_db=15: 1 moved (first trial_id 1),"
        " max abs 1e-08, max rel 3.82e-10"
    )
    assert lines[1:] == ["1 cells moved; ber or goodput_bps moved: no"]
    assert main([str(REFERENCE), str(moved)]) == 1


def test_report_flags_an_outcome_cell_and_an_unmoved_copy(tmp_path):
    moved = with_cell(tmp_path, 2, "goodput_bps", "46500000")
    text = report(REFERENCE, moved)
    assert "goodput_bps @ arch=switched M=12 K=3 users=3 snr_db=15: 1 moved" in text
    assert text.endswith("\n1 cells moved; ber or goodput_bps moved: yes")
    same = shutil.copy(REFERENCE, tmp_path / "same.csv")
    assert report(REFERENCE, same).splitlines()[1:] == [
        "0 cells moved; ber or goodput_bps moved: no"
    ]
    assert main([str(REFERENCE), str(same)]) == 0
