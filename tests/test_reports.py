"""Columnar rendering, chunked streaming and atomic writes of run reports."""
import csv
import io
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sglab import RunReport, emit_report, render_report, run_local_mode, sweep_suppression
from sglab.experiment import SpinPrep
from sglab import reports
from sglab.reports import CHUNK_ROWS, Coded, RowTable, format_value

GENERIC = SpinPrep(complex(0.28, 0.6), complex(0.5, math.sqrt(1 - 0.28**2 - 0.36 - 0.25)))


def _rfc4180(text: str) -> str:
    if any(ch in text for ch in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def reference_render(report: RunReport, fmt: str) -> str:
    """Row by row through format_value: the rendering before columns."""
    rows = list(report.rows)
    if fmt == "json-lines":
        lines = [format_value({"record": "config", **report.config})]
        lines += [format_value({"record": "row", **row}) for row in rows]
        lines.append(format_value({"record": "summary", **report.summary}))
    else:
        lines = ["# config=" + format_value(report.config)]
        if rows:
            lines.append(",".join(rows[0]))
            lines += [",".join(_rfc4180(v if isinstance(v, str) else format_value(v))
                               for v in row.values()) for row in rows]
        lines.append("# summary=" + format_value(report.summary))
    return "\n".join(lines) + "\n"


def mixed_report() -> RunReport:
    rows = RowTable({
        "i": np.array([3, -1, 0, 2**40, 7, 7]),
        "x": np.array([0.0, -0.0, 5e-324, 1 / 3, -2.5e300, 0.0]),
        "flag": np.array([True, False, True, True, False, False]),
        "word": np.array(["110", "a,b", 'q"t', "110", "", "001"]),
        "nested": [0.1 + 0.2j, [1, 2.5], {"k": None}, "x,y", 4, -0.0],
    })
    return RunReport(rows, {"n": 6}, {"pipeline": "mixed", "seed": 1})


class TestColumns:
    @pytest.mark.parametrize("fmt", ["json-lines", "csv"])
    def test_mixed_columns_match_row_rendering(self, fmt):
        report = mixed_report()
        assert render_report(report, fmt) == reference_render(report, fmt)

    def test_signed_zero_keeps_its_text(self):
        text = render_report(mixed_report(), "json-lines").splitlines()
        assert '"x": 0,' in text[1] and '"x": -0,' in text[2]

    @pytest.mark.parametrize("fmt", ["json-lines", "csv"])
    def test_sweep_columns_match_row_rendering(self, fmt):
        sweep = sweep_suppression(GENERIC, [3, 2, 5], 4, seed=3, weights_model="geometric")
        report = RunReport(sweep.rows, sweep.summary, {"pipeline": "sweep"})
        assert render_report(report, fmt) == reference_render(report, fmt)

    def test_row_table_reads_like_row_dicts(self):
        table = RowTable({"a": np.array([1, 2]), "b": ["x", "y"]})
        assert len(table) == 2
        rows = list(table)
        assert rows == [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        assert type(rows[0]["a"]) is int
        assert table == RowTable({"a": np.array([1, 2]), "b": ["x", "y"]})
        assert table != RowTable({"a": np.array([1, 3]), "b": ["x", "y"]})
        assert table != RowTable({"b": ["x", "y"], "a": np.array([1, 2])})
        with pytest.raises(ValueError):
            RowTable({"a": np.array([1, 2]), "b": ["x"]})

    @pytest.mark.parametrize("rows", [[{"a": 1}, {"b": 2}], [{}]])
    @pytest.mark.parametrize("fmt", ["json-lines", "csv"])
    def test_rows_need_one_nonempty_column_set(self, rows, fmt):
        with pytest.raises(ValueError):
            render_report(RunReport(rows, {}), fmt)


def assert_same_text(got: str, want: str) -> None:
    """``got == want``; a mismatch names its first differing line.

    pytest's own diff of two texts of ~1e4 lines runs for minutes.
    """
    if got != want:
        got_lines, want_lines = got.splitlines(), want.splitlines()
        i = next((k for k, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1]),
                 min(len(got_lines), len(want_lines)))
        pytest.fail(f"texts differ first at line {i}: {got_lines[i:i + 1]!r} != "
                    f"{want_lines[i:i + 1]!r} ({len(got_lines)} and {len(want_lines)} lines)")


def _codes(n: int, size: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, size, n).astype(np.uint8)


def _coded_report(columns: dict) -> RunReport:
    rows = RowTable(columns)
    return RunReport(rows, {"n": len(rows)}, {"pipeline": "coded"})


FORMATS = ["json-lines", "csv"]


class TestCoded:
    """``Coded`` columns render as the row-by-row reference does."""

    @pytest.mark.parametrize("layout", ["first", "last", "alone"])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_position_in_the_row(self, layout, fmt):
        n = 50
        coded = Coded(_codes(n, 3, 1), ("110", -1, 0.25))
        plain = {"i": np.arange(n), "x": np.linspace(-1, 1, n)}
        columns = {"first": {"c": coded, **plain}, "last": {**plain, "c": coded},
                   "alone": {"c": coded}}[layout]
        report = _coded_report(columns)
        assert render_report(report, fmt) == reference_render(report, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_columns_on_different_codes_do_not_fuse(self, fmt):
        n = CHUNK_ROWS + 5
        a, b = _codes(n, 4, 1), _codes(n, 4, 2)
        assert not np.array_equal(a, b)
        table = ("w0", "w1", "w2", "w3")
        report = _coded_report({"a": Coded(a, table), "b": Coded(b, table)})
        assert_same_text(render_report(report, fmt), reference_render(report, fmt))

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_shared_codes_around_a_plain_column(self, fmt):
        n = 40
        codes = _codes(n, 8, 3)
        report = _coded_report({"word": Coded(codes, tuple(format(w, "03b") for w in range(8))),
                                "shot": np.arange(n),
                                "product": Coded(codes, (1, -1) * 4)})
        assert render_report(report, fmt) == reference_render(report, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_entries_that_need_csv_quoting(self, fmt):
        codes = np.array([0, 1, 2, 3, 1, 0], dtype=np.uint8)
        report = _coded_report({"t": Coded(codes, ("a,b", 'q"t', "x\ny", "plain")),
                                "u": Coded(codes, ([1, 2.5], 1j, None, True))})
        text = render_report(report, fmt)
        assert text == reference_render(report, fmt)
        if fmt == "csv":
            cells = list(csv.reader(io.StringIO("".join(text.splitlines(keepends=True)[2:-1]))))
            assert [row[0] for row in cells] == ["a,b", 'q"t', "x\ny", "plain", 'q"t', "a,b"]

    def test_row_table_equals_the_plain_column(self):
        codes = np.array([2, 0, 1, 2], dtype=np.uint8)
        coded = RowTable({"w": Coded(codes, ("a", "b", "c")), "p": Coded(codes, (1, -1, 1))})
        assert coded == RowTable({"w": np.array(["c", "a", "b", "c"]), "p": np.array([1, 1, -1, 1])})
        assert coded == RowTable({"w": ["c", "a", "b", "c"], "p": [1, 1, -1, 1]})
        assert coded != RowTable({"w": ["c", "a", "b", "b"], "p": [1, 1, -1, 1]})
        assert len(coded) == 4
        rows = list(coded)
        assert rows[0] == {"w": "c", "p": 1} and type(rows[0]["p"]) is int

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("used", [True, False])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_non_finite_entry_is_refused_used_or_not(self, bad, used, fmt):
        codes = np.array([0, 1, 0] if used else [0, 0, 0], dtype=np.uint8)
        report = _coded_report({"v": Coded(codes, (0.5, bad))})
        with pytest.raises(ValueError):
            render_report(report, fmt)

    @settings(max_examples=6, deadline=None)
    @given(
        n=st.integers(CHUNK_ROWS - 2, CHUNK_ROWS + 2),
        tables=st.lists(st.lists(st.one_of(st.integers(), st.booleans(), st.text(max_size=4),
                                           st.floats(allow_nan=False, allow_infinity=False)),
                                 min_size=1, max_size=8), min_size=3, max_size=3),
        order=st.permutations(["a", "b", "c", "i"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_tables_match_row_rendering(self, n, tables, order, seed):
        # a and b share one codes array, c has its own; i is a plain column.
        shared = _codes(n, min(map(len, tables[:2])), seed)
        columns = {"a": Coded(shared, tuple(tables[0])), "b": Coded(shared, tuple(tables[1])),
                   "c": Coded(_codes(n, len(tables[2]), seed + 1), tuple(tables[2])),
                   "i": np.arange(n) - n // 2}
        report = _coded_report({name: columns[name] for name in order})
        for fmt in FORMATS:
            assert_same_text(render_report(report, fmt), reference_render(report, fmt))


class TestChunks:
    @pytest.mark.parametrize("n", [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    @pytest.mark.parametrize("fmt", ["json-lines", "csv"])
    @pytest.mark.parametrize("basis", ["X", "Z"])
    @pytest.mark.parametrize("mixture", [False, True])
    def test_file_equals_rendered_text(self, n, fmt, basis, mixture, tmp_path):
        report = run_local_mode(GENERIC, basis, n, seed=n, mixture=mixture)
        path = tmp_path / "r"
        emit_report(report, path, fmt)
        text = render_report(report, fmt)
        assert path.read_bytes() == text.encode("utf-8")
        assert_same_text(text, reference_render(report, fmt))
        assert text.count("\n") == n + (2 if fmt == "json-lines" else 3)


# Traced peak of a local run plus its streamed report, in bytes per shot.
# With the word and product as coded columns it reads 16-21 B at 2**18
# shots; gathered '<U3' word labels, sorted by np.unique to render them,
# took about 70 B.
LOCAL_PEAK_BYTES_PER_SHOT = 32


class TestMemory:
    def test_local_run_peak_per_shot(self, tmp_path):
        # The mixture draws a member per shot first: the larger sampling peak.
        shots = 2**18
        tracemalloc.start()
        try:
            report = run_local_mode(GENERIC, "X", shots, seed=5, mixture=True)
            emit_report(report, tmp_path / "r.jsonl", "json-lines")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / shots < LOCAL_PEAK_BYTES_PER_SHOT


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_format_value_refuses(self, bad):
        for value in (bad, np.float64(bad), [1.0, bad], {"k": bad}, complex(0.0, bad)):
            with pytest.raises(ValueError):
                format_value(value)

    @pytest.mark.parametrize("fmt", ["json-lines", "csv"])
    @pytest.mark.parametrize("column", [np.array([0.5, np.nan]), np.array([np.inf, 1.0]),
                                        [1j, complex(np.nan, 0)]])
    def test_columns_refuse(self, fmt, column):
        report = RunReport(RowTable({"v": column}), {})
        with pytest.raises(ValueError):
            render_report(report, fmt)


def _nan_report() -> RunReport:
    return RunReport(RowTable({"v": np.array([1.0] * (CHUNK_ROWS + 1) + [np.nan])}), {})


class TestEmit:
    def test_failure_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text("old\n")
        with pytest.raises(ValueError):
            emit_report(_nan_report(), path, "json-lines")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["r.jsonl"]

    def test_failure_on_new_path_leaves_nothing(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(_nan_report(), tmp_path / "r.csv", "csv")
        assert os.listdir(tmp_path) == []

    def test_replaced_file_keeps_its_permissions(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text("old\n")
        path.chmod(0o640)
        report = run_local_mode(GENERIC, "Z", 5, seed=1)
        emit_report(report, path, "json-lines")
        assert path.read_text() == render_report(report, "json-lines")
        assert path.stat().st_mode & 0o777 == 0o640

    def test_symlink_target_is_replaced(self, tmp_path):
        target = tmp_path / "target.jsonl"
        target.write_text("old\n")
        target.chmod(0o640)
        inode = target.stat().st_ino
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "mid").symlink_to("../target.jsonl")
        link = tmp_path / "link.jsonl"
        link.symlink_to("sub/mid")
        report = run_local_mode(GENERIC, "Z", 5, seed=1)
        emit_report(report, link, "json-lines")
        assert link.is_symlink() and target.stat().st_ino != inode
        assert target.read_text() == render_report(report, "json-lines")
        assert target.stat().st_mode & 0o777 == 0o640
        assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "sub", "target.jsonl"]

    def test_failure_through_symlink_keeps_target(self, tmp_path):
        target = tmp_path / "target.jsonl"
        target.write_text("old\n")
        link = tmp_path / "link.jsonl"
        link.symlink_to(target)
        with pytest.raises(ValueError):
            emit_report(_nan_report(), link, "json-lines")
        assert target.read_text() == "old\n"
        assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "target.jsonl"]

    def test_descriptor_link_is_written_in_place(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        report = run_local_mode(GENERIC, "X", CHUNK_ROWS + 3, seed=2)
        with open(path, "r+") as fh:
            fd_path = f"/proc/self/fd/{fh.fileno()}"
            with pytest.raises(ValueError):
                emit_report(_nan_report(), fd_path, "csv")
            assert path.read_text() == "old\n"
            emit_report(report, fd_path, "csv")
            assert os.fstat(fh.fileno()).st_ino == path.stat().st_ino
        assert path.read_text() == render_report(report, "csv")
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_unwritable_file_is_not_replaced(self, tmp_path, monkeypatch):
        path = tmp_path / "r.jsonl"
        path.write_text("old\n")
        monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
        opened = []
        monkeypatch.setattr(reports, "open", lambda name, *args, **kwargs: opened.append(name)
                            or open(name, *args, **kwargs), raising=False)
        report = run_local_mode(GENERIC, "Z", 5, seed=1)
        emit_report(report, path, "json-lines")
        assert opened == [os.fspath(path)]
        assert path.read_text() == render_report(report, "json-lines")

    def test_forbidden_replace_falls_back_to_in_place(self, tmp_path, monkeypatch):
        path = tmp_path / "r.jsonl"
        path.write_text("old\n")
        inode = path.stat().st_ino

        def refuse(src, dst):
            raise PermissionError(dst)

        monkeypatch.setattr(os, "replace", refuse)
        report = run_local_mode(GENERIC, "X", CHUNK_ROWS + 3, seed=4)
        emit_report(report, path, "json-lines")
        assert path.stat().st_ino == inode
        assert path.read_text() == render_report(report, "json-lines")
        assert os.listdir(tmp_path) == ["r.jsonl"]

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []

        def read():
            with open(fifo, "rb") as fh:
                received.append(fh.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        report = run_local_mode(GENERIC, "X", CHUNK_ROWS + 3, seed=2)
        emit_report(report, fifo, "csv")
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == [render_report(report, "csv").encode("utf-8")]
        assert os.listdir(tmp_path) == ["pipe"]


def test_csv_nested_cells_parse():
    text = render_report(mixed_report(), "csv")
    lines = text.splitlines(keepends=True)
    body = [line for line in lines if not line.startswith("#")]
    parsed = list(csv.reader(io.StringIO("".join(body))))
    header, cells = parsed[0], parsed[1:]
    assert len(cells) == 6 and all(len(row) == len(header) for row in cells)
    assert cells[0][header.index("nested")] == format_value(0.1 + 0.2j)
    assert cells[2][header.index("word")] == 'q"t'
