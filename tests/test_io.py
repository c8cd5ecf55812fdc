"""Round-trip and format tests for the persistence layer."""

import contextlib
import json
import os
import re
import stat
import tracemalloc

import numpy as np
import pytest

from rainlidar import io as rio
from rainlidar.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main
from rainlidar.errors import FileFormatError, InvalidInputError
from rainlidar.features import Scan, ScanTable, WindowSample
from rainlidar.moe import build_tree_spec, infer, infer_batch, train
from rainlidar.pipeline import Dataset, RainSeries
from tests.test_moe import make_samples


def random_scans(seed=0, n_scans=5):
    rng = np.random.default_rng(seed)
    scans = []
    for j in range(n_scans):
        n = int(rng.integers(0, 40))  # occasionally empty
        scans.append(
            Scan(
                xyz=rng.uniform(-12, 12, (n, 3)),
                intensity=rng.gamma(4.0, 0.25, n),
                timestamp=j * 0.1,
                frame_id=j,
            )
        )
    return scans


def per_point_write_scans(path, scans):
    """The scan writer as it was before it built lines from one list per scan."""
    lines = []
    for scan in scans:
        fields = [str(int(scan.frame_id)), repr(float(scan.timestamp))]
        for (x, y, z), p in zip(scan.xyz, scan.intensity):
            fields.extend((repr(float(x)), repr(float(y)), repr(float(z)), repr(float(p))))
        lines.append(" ".join(fields))
    rio.atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


class TestScanFormat:
    @pytest.mark.parametrize("seed", range(3))
    def test_bytes_equal_per_point_writer(self, tmp_path, seed):
        scans = random_scans(seed=seed, n_scans=12)
        # empty scans, signed zero, integral floats, and values that repr
        # writes in exponent form
        scans.append(Scan(np.zeros((0, 3)), np.zeros(0), 1.5, 12))
        scans.append(
            Scan(
                [[-0.0, 0.0, 1e16], [1e-5, -1e-5, 3.0], [2.0, -7.0, 1e22]],
                [0.0, 1.0, 1e16],
                -0.0,
                13,
            )
        )
        scans.append(Scan(np.zeros((0, 3)), np.zeros(0), 1e16, 14))
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        rio.write_scans(new, scans)
        per_point_write_scans(old, scans)
        assert new.read_bytes() == old.read_bytes()
        assert b" -0.0 0.0 1e+16 " in new.read_bytes()

    def test_no_scans_writes_an_empty_file(self, tmp_path):
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        rio.write_scans(new, [])
        per_point_write_scans(old, [])
        assert new.read_bytes() == old.read_bytes() == b""

    def test_round_trip_bitwise(self, tmp_path):
        scans = random_scans(seed=3, n_scans=8)
        path = tmp_path / "scans.txt"
        rio.write_scans(path, scans)
        back = rio.read_scans(path)
        assert len(back) == len(scans)
        for a, b in zip(scans, back):
            assert a.frame_id == b.frame_id
            assert a.timestamp == b.timestamp
            np.testing.assert_array_equal(a.xyz, b.xyz)
            np.testing.assert_array_equal(a.intensity, b.intensity)

    def test_write_deterministic(self, tmp_path):
        scans = random_scans(seed=4)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        rio.write_scans(p1, scans)
        rio.write_scans(p2, scans)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0.0 1.0 2.0 3.0\n")  # 3 values, not a quadruple
        with pytest.raises(FileFormatError, match="quadruples"):
            rio.read_scans(path)

    def test_no_temp_files_left(self, tmp_path):
        rio.write_scans(tmp_path / "scans.txt", random_scans())
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []



def scan_stream(scans):
    """The scans as a generator, the way ``rainlidar synth`` hands them over."""
    yield from scans


class TestAtomicWrite:
    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_mode_is_what_open_gives(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain.txt", "w"):
                pass
            rio.atomic_write_text(tmp_path / "text.txt", "x\n")
            rio.write_scans(tmp_path / "scans.txt", random_scans())
            assert os.umask(umask) == umask  # put back as it was
        finally:
            os.umask(old)
        for name in ("plain.txt", "text.txt", "scans.txt"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask, name


class TestStreamingScanWriter:
    """write_scans over any iterable, SCAN_BLOCK_BYTES of lines at a time."""

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(rio, "SCAN_BLOCK_BYTES", 300)

    @staticmethod
    def _scans():
        scans = random_scans(seed=21, n_scans=30)
        empty = [Scan(np.zeros((0, 3)), np.zeros(0), 0.05 * j, 100 + j) for j in range(3)]
        rng = np.random.default_rng(22)
        # a line many blocks long, between two runs of zero-point scans
        long = Scan(rng.uniform(-9, 9, (60, 3)), rng.random(60), 4.25, 200)
        return empty + scans[:10] + [long] + empty + scans[10:]

    def test_generator_equals_list_and_oracle(self, tmp_path, small_blocks):
        scans = self._scans()
        streamed, listed, old = tmp_path / "gen.txt", tmp_path / "list.txt", tmp_path / "old.txt"
        assert rio.write_scans(streamed, scan_stream(scans)) == len(scans)
        assert rio.write_scans(listed, scans) == len(scans)
        per_point_write_scans(old, scans)
        assert streamed.read_bytes() == listed.read_bytes() == old.read_bytes()
        assert streamed.stat().st_size > 20 * rio.SCAN_BLOCK_BYTES
        # read back in blocks of the same size, which lines straddle
        assert_same_scans(rio.read_scans(streamed), scans)

    def test_empty_stream(self, tmp_path, small_blocks):
        path = tmp_path / "scans.txt"
        assert rio.write_scans(path, scan_stream([])) == 0
        assert path.read_bytes() == b""

    def test_table_written_as_its_scans(self, tmp_path):
        scans = self._scans()
        a, b = tmp_path / "table.txt", tmp_path / "list.txt"
        rio.write_scans(a, ScanTable.from_scans(scans))
        rio.write_scans(b, scans)
        assert a.read_bytes() == b.read_bytes()

    def test_written_a_block_at_a_time(self, tmp_path, small_blocks, monkeypatch):
        writes = []
        real = rio.atomic_open

        class Spy:
            def __init__(self, handle):
                self.handle = handle

            def write(self, text):
                writes.append(text)
                return self.handle.write(text)

        @contextlib.contextmanager
        def spying(path):
            with real(path) as handle:
                yield Spy(handle)

        monkeypatch.setattr(rio, "atomic_open", spying)
        path = tmp_path / "scans.txt"
        rio.write_scans(path, scan_stream(self._scans()))
        assert "".join(writes) == path.read_text()
        assert len(writes) > 10
        for text in writes:
            # whole lines, and the scans ahead of a block's last one within the block size
            assert text.endswith("\n")
            assert len(text) - len(text[:-1].rpartition("\n")[2]) <= rio.SCAN_BLOCK_BYTES

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt, InvalidInputError])
    @pytest.mark.parametrize("existing", [None, b"0 0.0\n1 0.1 1.0 2.0 3.0 0.5\n"])
    def test_failure_after_blocks_leaves_no_temp_file(self, tmp_path, small_blocks, error, existing):
        path = tmp_path / "scans.txt"
        if existing is not None:
            path.write_bytes(existing)

        def failing():
            yield from random_scans(seed=2, n_scans=60)
            # several blocks have reached the temp file by now
            (tmp,) = tmp_path.glob("*.tmp")
            assert tmp.stat().st_size > 5 * rio.SCAN_BLOCK_BYTES
            raise error("stream broke off")

        with pytest.raises(error):
            rio.write_scans(path, failing())
        assert list(tmp_path.glob("*.tmp")) == []
        if existing is None:
            assert not path.exists()
        else:
            assert path.read_bytes() == existing

    def test_traced_peak_bounded_by_the_block(self, tmp_path, monkeypatch):
        block = 1 << 16
        monkeypatch.setattr(rio, "SCAN_BLOCK_BYTES", block)

        def stream():
            rng = np.random.default_rng(23)
            for j in range(1500):
                n = int(rng.integers(0, 80))
                yield Scan(rng.uniform(-9, 9, (n, 3)), rng.gamma(4.0, 0.25, n), 0.1 * j, j)

        path = tmp_path / "scans.txt"
        # first-call allocations (lazy imports, caches) are not the writer's
        rio.write_scans(path, random_scans())
        tracemalloc.start()
        try:
            rio.write_scans(path, stream())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 3.3 blocks at the time of writing; holding the whole file would be 225
        assert path.stat().st_size > 40 * block
        assert peak < 5 * block


def per_line_read_scans(path) -> list:
    """The scan reader as it was before it read blocks into a ScanTable."""
    scans = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) < 2 or (len(tokens) - 2) % 4 != 0:
                raise FileFormatError(
                    f"{path}:{lineno}: expected 'frame_id timestamp' plus "
                    f"(x, y, z, intensity) quadruples, got {len(tokens)} fields"
                )
            try:
                frame_id = int(tokens[0])
                timestamp = float(tokens[1])
                values = np.array([float(v) for v in tokens[2:]], dtype=float)
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
            quads = values.reshape(-1, 4)
            scans.append(
                Scan(xyz=quads[:, :3], intensity=quads[:, 3], timestamp=timestamp, frame_id=frame_id)
            )
    return scans


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_same_scans(table, scans):
    assert isinstance(table, ScanTable)
    assert len(table) == len(scans)
    assert table.frame_ids.tolist() == [s.frame_id for s in scans]
    assert bits(table.timestamps) == bits([s.timestamp for s in scans])
    for got, want in zip(table, scans):
        assert got.frame_id == want.frame_id
        assert bits(got.timestamp) == bits(want.timestamp)
        assert bits(got.xyz) == bits(want.xyz)
        assert bits(got.intensity) == bits(want.intensity)


def read_both(path):
    """(new reader, oracle) results; an exception stands for its type and text."""
    out = []
    for reader in (rio.read_scans, per_line_read_scans):
        try:
            out.append(reader(path))
        except (FileFormatError, InvalidInputError) as exc:
            out.append((type(exc), str(exc)))
    return out


GOOD = "0 0.5 1.0 -2.0 3.0 0.25\n"


class TestScanReaderOracle:
    """The block reader against the per-line reader it replaced."""

    @pytest.mark.parametrize(
        "text",
        [
            "0 0.5 1 2 3 4\r\n1 0.6 -1 -2 -3 5\r\n",  # CRLF
            "0 0.5 1 2 3 4\r1 0.6 -1 -2 -3 5\r",  # lone CR ends a line in text mode
            "0\t0.5 1 2\t3 4\n",  # tabs
            "0  0.5   1 2 3 4\n1 0.6 1    2 3 4\n",  # runs of spaces
            # Blanks other than single spaces that leave every line with
            # (spaces + 1) = 2 + 4k, but not its own token count; a line
            # with four blanks too many makes up the sum.
            "0 0.5  1  2  3  4\n1 0.6 5 6 7 8\n",
            "    0 0.5 1 2 3 4\n1 0.6 5 6 7 8\n",
            "0 0.5\t1\t2\t3\t4\n1 0.6  1  2  3  4\n",
            "0 0.5\x0b1\x0c2\x0b3\x0c4\n1 0.6  1  2  3  4\n",
            "\r".join(f"{i} 0.{i} 1 2 3 4" for i in range(5)) + "\n5 0.9  1  2  3  4\n",
            "\n" + GOOD + "\n\n" + GOOD + "\n",  # blank lines
            "  0 0.5 1 2 3 4\n1 0.6 1 2 3 4  \n",  # leading and trailing blanks
            "0 0.5 1 2 3 4 5 6 7 8\n1 0.6 1 2 3 4",  # no final newline
            "0 0.5\n1 0.6\n",  # scans without points
            "0 0.5\x0c1 2 3 4\x0b\n",  # form feed and vertical tab are blanks
            "0 0.5 1 2 3 4\x1f\n",  # so is the unit separator
            "1_0 0.5 1_0 2 3 4\n",  # underscores
            "\u0661 0.5 \u0661\u0662 2 3 4\n",  # Arabic-Indic digits
            "+1 .5 +1 .5 1E5 -0\n",
            "-0 -0 -0 -0.0 -0e0 -0\n",
            "0 nan 1 2 3 4\n",  # a NaN timestamp is accepted
            "12345678901234567890123 0.5 1 2 3 4\n",  # frame id beyond int64
            "",
            " \n\n",
        ],
    )
    def test_accepted_files_read_as_the_oracle(self, tmp_path, text):
        path = tmp_path / "scans.txt"
        path.write_bytes(text.encode())
        new, old = read_both(path)
        assert_same_scans(new, old)

    @pytest.mark.parametrize(
        "line",
        [
            "2 0.5 0x10 2 3 4",
            "2 0.5 nan(1) 2 3 4",
            "2 0.5 1.5abc 2 3 4",
            "2 0.5 --1 2 3 4",
            "2 0.5 1e 2 3 4",
            "2 0.5 1 2 3 1-2",
            "2 1e 1 2 3 4",
            "1.0 0.5 1 2 3 4",  # frame id must be an integer
            "2 0.5 1 2 3",  # field count
            "2",
        ],
    )
    def test_malformed_line_reported_as_the_oracle(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(GOOD * 2 + line + "\n" + GOOD)
        new, old = read_both(path)
        assert new == old
        assert new[0] is FileFormatError
        assert new[1].startswith(f"{path}:3: ")

    @pytest.mark.parametrize(
        "line",
        ["2 0.5 nan 2 3 4", "2 0.5 1 inf 3 4", "2 0.5 1 2 3 -infinity", "2 0.5 1 2 3 -0.5"],
    )
    def test_invalid_point_rejected_as_the_oracle(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(GOOD * 2 + line + "\n" + GOOD)
        new, old = read_both(path)
        assert new == old
        assert new[0] is InvalidInputError

    def test_empty_file_is_an_empty_table(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        table = rio.read_scans(path)
        assert len(table) == 0 and not table
        assert table.xyz.shape == (0, 3) and table.offsets.tolist() == [0]


class TestScanReaderBlocks:
    """Files cut into blocks far smaller than their lines."""

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(rio, "SCAN_BLOCK_BYTES", 300)

    @staticmethod
    def _render(scans):
        """The lines that write_scans writes for ``scans``."""
        return [
            " ".join(
                [str(s.frame_id), repr(s.timestamp)]
                + [repr(v) for v in np.column_stack((s.xyz, s.intensity)).ravel().tolist()]
            )
            for s in scans
        ]

    def test_equal_to_oracle(self, tmp_path, small_blocks, monkeypatch):
        path = tmp_path / "scans.txt"
        rio.write_scans(path, random_scans(seed=11, n_scans=40))
        assert path.stat().st_size > 20 * rio.SCAN_BLOCK_BYTES
        # what write_scans writes never needs the line-by-line parse
        slow = []
        real = rio._parse_lines
        monkeypatch.setattr(rio, "_parse_lines", lambda *a: slow.append(a) or real(*a))
        new, old = read_both(path)
        assert_same_scans(new, old)
        assert slow == []

    def test_blocks_read_line_by_line_keep_the_line_count(self, tmp_path, small_blocks):
        # Lone CRs (line ends in text mode) and a run of spaces send early
        # blocks line by line; the bad line comes blocks later.
        lines = self._render(random_scans(seed=12, n_scans=30))
        lines[3] = lines[3].replace(" ", "  ", 1)
        text = "\r".join(lines[:10]) + "\r\n" + "\n".join(lines[10:25]) + "\n"
        text += "25 9.5 1 2 1_0x 4\n" + "\n".join(lines[26:]) + "\n"
        path = tmp_path / "bad.txt"
        path.write_bytes(text.encode())
        new, old = read_both(path)
        assert new == old
        assert new[1].startswith(f"{path}:26: ")

    @pytest.mark.parametrize("where", ["last", "straddling"])
    def test_bad_line_found(self, tmp_path, small_blocks, where):
        lines = self._render(random_scans(seed=13, n_scans=30))
        if where == "last":
            index = len(lines) - 1
        else:
            # a line past the first block whose first byte and newline lie
            # in different blocks of the file
            newlines = np.cumsum([len(line) + 1 for line in lines]) - 1
            starts = newlines - [len(line) for line in lines]
            block = rio.SCAN_BLOCK_BYTES
            index = next(
                i for i in range(2, len(lines)) if starts[i] // block != newlines[i] // block
            )
        tokens = lines[index].split(" ")
        tokens[-1] = tokens[-1] + "abc"
        lines[index] = " ".join(tokens)
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + ("" if where == "last" else "\n"))
        new, old = read_both(path)
        assert new == old
        assert new[1].startswith(f"{path}:{index + 1}: ")

    def test_first_bad_line_decides_across_blocks(self, tmp_path, small_blocks):
        # a negative intensity on line 2 comes before a malformed line blocks later
        lines = self._render(random_scans(seed=14, n_scans=30))
        lines[1] = "1 0.1 1.0 1.0 1.0 -1.0"
        lines[-1] = "29 2.9 1.0 1.0"
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        new, old = read_both(path)
        assert new == old
        assert new[0] is InvalidInputError

    def test_blocks_are_whole_lines_that_join_to_the_file(self, tmp_path, small_blocks):
        scans = random_scans(seed=18, n_scans=40)
        path = tmp_path / "scans.txt"
        rio.write_scans(path, scans)
        blocks = list(rio.read_scan_blocks(path))
        assert len(blocks) > 10 and all(blocks)
        assert_same_scans(ScanTable.concat(blocks), scans)

    def test_file_grown_while_read(self, tmp_path, small_blocks, monkeypatch):
        # lines appended after the open are read as the rest of the file
        first, later = random_scans(seed=16, n_scans=4), random_scans(seed=17, n_scans=80)
        path, tail = tmp_path / "scans.txt", tmp_path / "tail.txt"
        rio.write_scans(path, first)
        rio.write_scans(tail, later)
        assert tail.stat().st_size > 8 * path.stat().st_size
        real = rio._parse_block
        reader = os.getpid()

        def growing(data):
            # this process only: a forked parse worker runs this function too
            if os.getpid() == reader and tail.exists():
                with open(path, "ab") as handle:
                    handle.write(tail.read_bytes())
                tail.unlink()
            return real(data)

        monkeypatch.setattr(rio, "_parse_block", growing)
        assert_same_scans(rio.read_scans(path), first + later)


@pytest.mark.filterwarnings("ignore:segment 0")
class TestScanReaderExitCodes:
    @pytest.fixture
    def rain(self, tmp_path):
        path = tmp_path / "rain.csv"
        series = RainSeries(np.arange(3.0) * 10, np.full(3, 5.0), np.zeros(3, int))
        rio.write_disdrometer(path, series)
        return path

    @pytest.mark.parametrize(
        "line, code",
        [
            ("0 0.5 1 2 3 4", EXIT_OK),
            ("0 0.5 1 2 3 0x4", EXIT_IO),
            ("0.0 0.5 1 2 3 4", EXIT_IO),
            ("0 0.5 1 2 3", EXIT_IO),
            ("0 0.5 nan 2 3 4", EXIT_USAGE),
            ("0 0.5 1 2 inf 4", EXIT_USAGE),
            ("0 0.5 1 2 3 -4", EXIT_USAGE),
        ],
    )
    def test_featurize_exit_code(self, tmp_path, rain, line, code):
        scans = tmp_path / "scans.txt"
        scans.write_text(GOOD + line + "\n")
        assert main([
            "featurize", "--scans", str(scans), "--rain", str(rain),
            "--out", str(tmp_path / "dataset.csv"),
        ]) == code


class TestDisdrometerFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        series = RainSeries(
            timestamps=np.arange(20.0) * 10.0,
            rates=rng.uniform(0, 60, 20),
            segment_ids=np.repeat([0, 1], 10),
        )
        path = tmp_path / "rain.csv"
        rio.write_disdrometer(path, series)
        back = rio.read_disdrometer(path)
        np.testing.assert_array_equal(back.timestamps, series.timestamps)
        np.testing.assert_array_equal(back.rates, series.rates)
        np.testing.assert_array_equal(back.segment_ids, series.segment_ids)

    def test_header_required(self, tmp_path):
        path = tmp_path / "rain.csv"
        path.write_text("0.0,5.0,0\n10.0,6.0,0\n")
        with pytest.raises(FileFormatError, match="header"):
            rio.read_disdrometer(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "rain.csv"
        path.write_text("")
        with pytest.raises(FileFormatError):
            rio.read_disdrometer(path)


class TestDatasetFormat:
    def _dataset(self):
        rng = np.random.default_rng(7)
        samples = [
            WindowSample(
                features=np.abs(rng.normal(size=8)),
                target=float(rng.uniform(0, 60)),
                window=(10.0 * i, 10.0 * i + 10.0),
                provenance="sess-1",
            )
            for i in range(6)
        ]
        tags = ["train"] * 4 + ["validation"] * 2
        return Dataset(
            samples=samples,
            split_tags=tags,
            config={"duration": 10.0, "box_half_extent": 10.0},
            segment_spans=[(0, 0.0, 290.0)],
        )

    def test_round_trip(self, tmp_path):
        dataset = self._dataset()
        path = tmp_path / "dataset.csv"
        rio.write_dataset(path, dataset)
        back = rio.read_dataset(path)
        assert back.split_tags == dataset.split_tags
        assert back.config == dataset.config
        assert back.segment_spans == [(0, 0.0, 290.0)]
        for a, b in zip(dataset.samples, back.samples):
            np.testing.assert_array_equal(a.features, b.features)
            assert a.target == b.target
            assert a.window == b.window
            assert a.provenance == b.provenance

    def test_version_header_enforced(self, tmp_path):
        path = tmp_path / "dataset.csv"
        path.write_text("not a dataset\n")
        with pytest.raises(FileFormatError, match="header"):
            rio.read_dataset(path)

    def test_empty_dataset_round_trip(self, tmp_path):
        dataset = Dataset(samples=[], split_tags=[], config={"duration": 5.0})
        path = tmp_path / "empty.csv"
        rio.write_dataset(path, dataset)
        back = rio.read_dataset(path)
        assert back.samples == [] and back.config == {"duration": 5.0}


class TestModelFormat:
    def _model(self):
        samples = make_samples(np.linspace(1.0, 70.0, 28), seed=5)
        spec = build_tree_spec(2, (0.0, 80.0), [20.0, 10.0, 40.0])
        return train(samples, spec, seed=3), samples

    def test_round_trip_predictions_identical(self, tmp_path):
        model, samples = self._model()
        path = tmp_path / "model.json"
        rio.save_model(path, model)
        loaded = rio.load_model(path)
        for s in samples[:8]:
            a = infer(model, s.features)
            b = infer(loaded, s.features)
            assert a.point_estimate == b.point_estimate
            assert a.error_probability == b.error_probability
            np.testing.assert_array_equal(a.responsibilities, b.responsibilities)
            np.testing.assert_array_equal(a.means, b.means)
            np.testing.assert_array_equal(a.variances, b.variances)

    def test_save_is_stable(self, tmp_path):
        model, _ = self._model()
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        rio.save_model(p1, model)
        rio.save_model(p2, rio.load_model(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_metadata_preserved(self, tmp_path):
        model, _ = self._model()
        path = tmp_path / "model.json"
        rio.save_model(path, model)
        loaded = rio.load_model(path)
        assert loaded.metadata["seed"] == 3
        assert loaded.metadata["branch_convention"] == model.metadata["branch_convention"]

    def _v1_file(self, tmp_path):
        """(model, samples, its v2 file, the same model as a v1 file)."""
        model, samples = self._model()
        path = tmp_path / "model.json"
        rio.save_model(path, model)
        doc = json.loads(path.read_text())
        doc["version"] = 1
        for k, gate in enumerate(doc["gates"], start=1):
            n_balanced = model.metadata["node_counts"][f"z{k}"]["n_balanced"]
            gate["xi"] = np.linspace(0.5, 3.0, n_balanced).tolist()
            gate["warnings"] = []
        doc["gates"][0]["warnings"] = ["degenerate gate: single-class labels (all 1)"]
        doc["metadata"]["format_version"] = 1
        doc["metadata"]["n_train_samples"] = doc["metadata"]["n_samples"]
        v1 = tmp_path / "model_v1.json"
        v1.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return model, samples, path, v1

    def test_version_1_document_loads_bit_identical(self, tmp_path):
        # A version 1 file holds every version 2 key plus the gate xi and
        # warnings and two metadata copies; loading ignores the extras.
        model, samples, _, v1 = self._v1_file(tmp_path)
        X = np.stack([s.features for s in samples])
        expected = infer_batch(model, X)
        for a, b in zip(expected, infer_batch(rio.load_model(v1), X)):
            assert a.point_estimate == b.point_estimate
            assert a.error_probability == b.error_probability
            np.testing.assert_array_equal(a.responsibilities, b.responsibilities)
            np.testing.assert_array_equal(a.means, b.means)
            np.testing.assert_array_equal(a.variances, b.variances)

    def test_version_1_document_saved_again_is_version_2(self, tmp_path):
        # the v1 metadata copies are dropped on load, so the re-saved file is
        # the v2 file of the same model, and it reloads bit-identically
        _, samples, v2, v1 = self._v1_file(tmp_path)
        again = tmp_path / "model_again.json"
        rio.save_model(again, rio.load_model(v1))
        metadata = json.loads(again.read_text())["metadata"]
        assert "format_version" not in metadata and "n_train_samples" not in metadata
        assert again.read_bytes() == v2.read_bytes()
        X = np.stack([s.features for s in samples])
        for a, b in zip(infer_batch(rio.load_model(v1), X), infer_batch(rio.load_model(again), X)):
            assert a.point_estimate == b.point_estimate
            assert a.error_probability == b.error_probability
            np.testing.assert_array_equal(a.responsibilities, b.responsibilities)

    @pytest.mark.parametrize("version", [0, 3, "2", True, 1.0, 2.0])
    def test_unknown_version_rejected(self, tmp_path, version):
        model, _ = self._model()
        path = tmp_path / "model.json"
        rio.save_model(path, model)
        doc = json.loads(path.read_text())
        doc["version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="unsupported model version"):
            rio.load_model(path)

    def test_saved_keys_are_exactly_the_keys_read(self, tmp_path, monkeypatch):
        # Every key of the saved document's structure (all but the free-form
        # metadata) must be one that load_model reads: a field written but
        # never read fails here.
        model, _ = self._model()
        path = tmp_path / "model.json"
        rio.save_model(path, model)

        class ReadKeys(dict):
            def __getitem__(self, key):
                self.read.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                self.read.add(key)
                return super().get(key, default)

        docs = []

        def hook(pairs):
            d = ReadKeys(pairs)
            d.read = set()
            docs.append(d)
            return d

        load = json.load
        monkeypatch.setattr(json, "load", lambda handle: load(handle, object_hook=hook))
        rio.load_model(path)
        read = {id(d): set(d.read) for d in docs}
        doc = docs[-1]  # the hook sees the top-level object last
        assert doc["version"] == rio.MODEL_FORMAT_VERSION == 2
        structure = [doc, doc["spec"], doc["standardization"]]
        for node in doc["gates"] + doc["experts"]:
            structure += [node, node["basis"]]
        for d in structure:
            assert read[id(d)] == d.keys(), sorted(d.keys() - read[id(d)])
        assert doc.keys() == {
            "format", "version", "spec", "gates", "experts", "standardization", "metadata"
        }
        assert all(g.keys() == {"basis", "mean", "covariance"} for g in doc["gates"])
        assert all(
            e.keys() == {"basis", "mean", "covariance", "noise_precision"} for e in doc["experts"]
        )

    @pytest.mark.parametrize(
        "where, value",
        [
            (("gates", 0, "mean", 0), "nan"),
            (("gates", 1, "covariance", 0, 1), "inf"),
            (("experts", 1, "mean", 0), "nan"),
            (("experts", 0, "noise_precision"), "inf"),
            (("standardization", "mean", 2), "inf"),
            (("standardization", "scale", 0), "-inf"),
            (("spec", "thresholds", 1), "nan"),
            (("spec", "expert_ranges", 3, 1), "inf"),
        ],
    )
    def test_non_finite_number_rejected(self, tmp_path, where, value):
        model, _ = self._model()
        path = tmp_path / "model.json"
        rio.save_model(path, model)
        doc = json.loads(path.read_text())
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = float(value)
        # json writes the constants NaN, Infinity and -Infinity
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: non-finite number"):
            rio.load_model(path)

    def test_non_finite_metadata_loads(self, tmp_path):
        # featurize --val-span inf keeps every sample as train, and the span
        # reaches the model's metadata through the dataset config
        model, _ = self._model()
        model.metadata["dataset_config"] = {"val_span": float("inf")}
        path = tmp_path / "model.json"
        rio.save_model(path, model)
        assert "Infinity" in path.read_text()
        assert rio.load_model(path).metadata["dataset_config"]["val_span"] == float("inf")

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(FileFormatError, match="not a rainlidar model"):
            rio.load_model(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(FileFormatError, match="malformed"):
            rio.load_model(path)
