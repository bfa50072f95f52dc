"""tools/output_hashes.py: with --against, an output that differs from
another checkout's only in its float literals gets the size of that drift,
and any other difference fails the comparison; a file in OUTDIR that is not
a listed output fails the run."""
import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_hashes.py"
_spec = importlib.util.spec_from_file_location("output_hashes", TOOL)
output_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_hashes)
compare = output_hashes.compare_output


def test_identical_and_missing_outputs():
    assert compare(b'{"x": 1.5}', b'{"x": 1.5}') == "identical"
    assert compare(b'{"x": 1.5}', None) is None


def test_float_drift_is_measured():
    verdict = compare(b'{"n": 3, "x": [1.0, 2.0, -1e-05], "s": "2.5"}',
                      b'{"n": 3, "x": [1.0, 2.000000000002, -1e-05], "s": "2.5"}')
    assert "max relative 1e-12" in verdict
    assert "(1 of 3 floats)" in verdict
    assert "(1 of 1 floats)" in compare(b"a,1,0.5\n", b"a,1,0.25\n")


def test_anything_but_floats_differs():
    for mine, theirs in [(b'{"n": 3}', b'{"n": 4}'),
                         (b'{"s": "a"}', b'{"s": "b"}'),
                         (b'{"s": "1.5"}', b'{"s": "2.5"}'),
                         (b'{"x": [1.0]}', b'{"x": [1.0, 2.0]}'),
                         (b'{"x": 1.0}', b'{"x": 1}'),
                         (b'{"a": 1.0, "b": 2.0}', b'{"b": 2.0, "a": 1.0}'),
                         (b'{"x": 1.0}', b'{"x":  1.0}'),
                         (b"a,1,0.5\n", b"a,2,0.5\n"),
                         (b"a,1,0.5\n", b"b,1,0.5\n")]:
        assert compare(mine, theirs) is None, (mine, theirs)


def test_differing_binary_output_differs():
    # a weight file's float32 blob is not UTF-8; it is compared as bytes
    blob = b'{"format": "cfw/1"}\n\n\x00\x00\x80\xbf'
    assert compare(blob, blob) == "identical"
    assert compare(blob, blob[:-1] + b"\xff") is None
    assert compare(b"\xff\xfe", b"{}") is None


def test_unlisted_file_fails(tmp_path, monkeypatch, capsys):
    # a leftover temporary file is not an output; the run names it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(output_hashes, "commands", lambda out, *_: [
        ("scene.json", ["gen-scene", "--preset", "toy",
                        "--out", str(out / "scene.json")])])
    assert output_hashes.main([str(tmp_path)]) == 0
    (tmp_path / ".hqfusion-0a1b2c3d.tmp").write_text("{")
    capsys.readouterr()
    assert output_hashes.main([str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "scene.json" in captured.out
    assert ".hqfusion-0a1b2c3d.tmp" in captured.err
