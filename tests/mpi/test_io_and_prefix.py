"""MPI-IO file access and buffer-path prefix reductions."""

import numpy as np
import pytest

from repro import mpi
from tests.conftest import spmd


class TestFile:
    def test_write_at_read_at_roundtrip(self, tmp_path):
        path = str(tmp_path / "data.bin")

        def body(comm):
            fh = mpi.File.Open(comm, path,
                               mpi.MODE_RDWR | mpi.MODE_CREATE)
            fh.Set_view(0, np.float64)
            block = np.full(10, float(comm.rank))
            fh.Write_at_all(comm.rank * 10, block)
            # every rank reads the whole file back
            out = np.zeros(10 * comm.size)
            fh.Read_at_all(0, out)
            fh.Close()
            return out
        results = spmd(3)(body)
        expected = np.repeat(np.arange(3.0), 10)
        for r in results:
            assert np.allclose(r, expected)

    def test_write_ordered(self, tmp_path):
        path = str(tmp_path / "ordered.bin")

        def body(comm):
            fh = mpi.File.Open(comm, path,
                               mpi.MODE_WRONLY | mpi.MODE_CREATE)
            # variable-size contributions, rank order preserved
            block = np.full(comm.rank + 1, float(comm.rank))
            fh.Write_ordered(block)
            size = fh.Get_size()
            fh.Close()
            return size
        sizes = spmd(3)(body)
        assert sizes[0] == 6 * 8
        data = np.fromfile(path)
        assert data.tolist() == [0.0, 1.0, 1.0, 2.0, 2.0, 2.0]

    def test_view_displacement(self, tmp_path):
        path = str(tmp_path / "disp.bin")

        def body(comm):
            fh = mpi.File.Open(comm, path,
                               mpi.MODE_RDWR | mpi.MODE_CREATE)
            if comm.rank == 0:
                fh.Write_at(0, np.arange(4, dtype=np.uint8))  # header
            comm.barrier()
            fh.Set_view(4, np.int32)
            fh.Write_at_all(comm.rank, np.array([100 + comm.rank],
                                                dtype=np.int32))
            fh.Close()
            return True
        spmd(2)(body)
        raw = open(path, "rb").read()
        assert list(raw[:4]) == [0, 1, 2, 3]
        assert np.frombuffer(raw[4:], dtype=np.int32).tolist() == [100, 101]

    def test_missing_file_raises_everywhere(self, tmp_path):
        path = str(tmp_path / "nope.bin")

        def body(comm):
            mpi.File.Open(comm, path, mpi.MODE_RDONLY)
        with pytest.raises(FileNotFoundError):
            spmd(2)(body)

    def test_short_read(self, tmp_path):
        path = str(tmp_path / "short.bin")
        open(path, "wb").write(b"1234")

        def body(comm):
            fh = mpi.File.Open(comm, path, mpi.MODE_RDONLY)
            buf = np.zeros(100)
            fh.Read_at(0, buf)
        with pytest.raises(mpi.MPIError):
            spmd(1)(body)

    def test_closed_file_rejected(self, tmp_path):
        path = str(tmp_path / "c.bin")

        def body(comm):
            with mpi.File.Open(comm, path,
                               mpi.MODE_RDWR | mpi.MODE_CREATE) as fh:
                pass
            fh.Write_at(0, np.zeros(1))
        with pytest.raises(mpi.MPIError):
            spmd(2)(body)


class TestPrefixBuffers:
    def test_scan(self):
        def body(comm):
            send = np.array([float(comm.rank + 1), 1.0])
            recv = np.zeros(2)
            comm.Scan(send, recv)
            return recv.tolist()
        results = spmd(4)(body)
        assert results[0] == [1.0, 1.0]
        assert results[3] == [10.0, 4.0]

    def test_exscan(self):
        def body(comm):
            send = np.array([float(comm.rank + 1)])
            recv = np.full(1, -99.0)
            comm.Exscan(send, recv)
            return recv[0]
        results = spmd(4)(body)
        assert results[0] == -99.0      # untouched on rank 0
        assert results[1:] == [1.0, 3.0, 6.0]

    def test_scan_max(self):
        def body(comm):
            values = [5.0, 1.0, 7.0, 3.0]
            send = np.array([values[comm.rank]])
            recv = np.zeros(1)
            comm.Scan(send, recv, op=mpi.MAX)
            return recv[0]
        assert spmd(4)(body) == [5.0, 5.0, 7.0, 7.0]


# rank 0's inclusive prefix is its own buffer, uncombined: keep it 0/1
_LOGICAL_ROWS = np.array([[1.0, 1.0, 0.0, 1.0],
                          [1.0, 0.0, 0.0, -1.0],
                          [0.5, 3.0, 1.0, 2.5]])


def _logical_prefix_body(comm):
    send = _LOGICAL_ROWS[comm.rank]
    out = {}
    for name, op in (("LAND", mpi.LAND), ("LOR", mpi.LOR)):
        scan, exscan = np.full(4, -7.0), np.full(4, -7.0)
        comm.Scan(send, scan, op=op)
        comm.Exscan(send, exscan, op=op)
        out[name] = (scan.tolist(), exscan.tolist())
    return out


class TestLogicalPrefix:
    """A logical op's bool result is cast into the float buffers."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_land_lor_on_float_buffers(self, backend):
        results = mpi.run_spmd(_logical_prefix_body, 3, backend=backend)
        for name, ufunc in (("LAND", np.logical_and),
                            ("LOR", np.logical_or)):
            want = ufunc.accumulate(_LOGICAL_ROWS, axis=0).astype(float)
            for r, res in enumerate(results):
                scan, exscan = res[name]
                assert scan == want[r].tolist(), (name, r)
                assert exscan == ([-7.0] * 4 if r == 0
                                  else want[r - 1].tolist()), (name, r)


class TestReduceScatter:
    def test_object_reduce_scatter(self):
        def body(comm):
            # rank r contributes [r*10 + c for c in range(size)]
            sendobjs = [comm.rank * 10 + c for c in range(comm.size)]
            return comm.reduce_scatter(sendobjs)
        results = spmd(4)(body)
        # rank c receives sum over r of (r*10 + c) = 60 + 4c
        assert results == [60, 64, 68, 72]

    def test_wrong_length(self):
        def body(comm):
            comm.reduce_scatter([1])
        with pytest.raises(ValueError):
            spmd(3)(body)
