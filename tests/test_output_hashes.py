"""tools/output_hashes.py --against: an output that differs from another
checkout's only in its float literals gets the size of that drift; any
other difference fails the comparison."""
import importlib.util
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
