"""The on-disk compile cache under concurrent cold starts."""

import ctypes
import glob
import multiprocessing
import os

import pytest

from repro.seamless import backend_c, compiler_available

pytestmark = pytest.mark.skipif(not compiler_available(),
                                reason="no C compiler available")


def _compile_and_call(source, barrier, results):
    barrier.wait()
    try:
        lib = backend_c.compile_c_source(source, tag="race")
        fn = lib.race_answer
        fn.restype = ctypes.c_int64
        results.put(("ok", fn()))
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        results.put(("err", repr(exc)))


def test_two_processes_compile_the_same_cold_kernel(tmp_path, monkeypatch):
    """Two forked processes compile one fresh source into an empty cache
    directory at the same moment: both load a working kernel and no
    temporary file is left behind."""
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setattr(backend_c, "_cache_dir", lambda: str(cache))
    source = (f"/* {tmp_path} */\n"
              "#include <stdint.h>\n"
              "int64_t race_answer(void) { return 42; }\n")
    mp = multiprocessing.get_context("fork")
    barrier = mp.Barrier(2)
    results = mp.Queue()
    procs = [mp.Process(target=_compile_and_call,
                        args=(source, barrier, results)) for _ in range(2)]
    for p in procs:
        p.start()
    outcomes = [results.get(timeout=120) for _ in procs]
    for p in procs:
        p.join(timeout=30)
        assert not p.is_alive()
    assert outcomes == [("ok", 42), ("ok", 42)]
    assert glob.glob(os.path.join(cache, "*.tmp")) == []
    assert len(glob.glob(os.path.join(cache, "race_*.so"))) == 1
    assert len(os.listdir(cache)) == 2   # the published .c and .so


def test_cache_key_covers_flags_and_isa(tmp_path, monkeypatch):
    """A kernel built with other flags or for another CPU never shares
    an ``.so`` path with this one; the same inputs always do."""
    monkeypatch.setattr(backend_c, "_cache_dir", lambda: str(tmp_path))
    source = "int answer(void) { return 42; }\n"
    flags = backend_c._compile_flags(source)
    here = backend_c._cache_base(source, "k", flags)
    assert backend_c._cache_base(source, "k", list(flags)) == here
    assert backend_c._cache_base(source, "k", flags + ["-O0"]) != here
    assert backend_c._cache_base(source + " ", "k", flags) != here
    monkeypatch.setattr(backend_c, "_cpu_flags", lambda: "fpu sse sse2")
    other_cpu = backend_c._cache_base(source, "k", flags)
    assert other_cpu != here
    assert backend_c._cache_base(source, "k", flags) == other_cpu


def test_one_compile_line_for_every_caller():
    flags = backend_c._compile_flags("int f(void) { return 0; }\n")
    assert flags[:3] == ["-O3", "-fno-math-errno", "-ffp-contract=off"]
    assert "-ffast-math" not in flags
    assert ("-march=native" in flags) == backend_c.X86_64
    omp = backend_c._compile_flags("#pragma omp parallel for\n")
    assert omp == ["-fopenmp"] + flags
