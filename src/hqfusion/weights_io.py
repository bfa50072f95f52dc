"""Deterministic weight initialization and the .cfw weight file format.

A weight file is a UTF-8 JSON manifest (format tag, config hash, tensor
table), a blank-line separator, then one little-endian float32 blob holding
every tensor back to back.  Loading validates the manifest against the
target config, never reshapes silently, and refuses a value that is not
finite or exceeds MAX_WEIGHT in magnitude.

No pretrained weights exist for this artifact; seeded random init is the
supported mode.  Tensors are quantized to float32-representable values at
init time so that save -> load round-trips are bit-exact even though the
in-memory dtype is float64.
"""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .errors import WeightFormatError, echo

FORMAT_TAG = "cfw/1"
_STREAM_WEIGHTS = 8
# Seeded init draws PV offsets from N(0, 4) and keeps every other value
# within [-4, 4]; a loaded value beyond this bound (a flipped exponent bit,
# say) is refused rather than decoded into overflow.
MAX_WEIGHT = 1e4


def config_hash(config) -> str:
    """Hash of the weight-shaping config fields."""
    key = {
        "d": config.d,
        "heads": config.heads,
        "num_classes": config.num_classes,
        "k_base": config.qswap.k_base,
        "k_pv": config.k_pv,
    }
    blob = json.dumps(key, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def expected_shapes(config) -> dict[str, tuple[int, ...]]:
    """Tensor table implied by a decoder config."""
    d = config.d
    c = config.num_classes
    kb = config.qswap.k_base
    kpv = config.k_pv
    shapes: dict[str, tuple[int, ...]] = {}

    for t in ("img", "rad", "w"):
        shapes[f"adapter.{t}.lin1.w"] = (d, d)
        shapes[f"adapter.{t}.lin1.b"] = (d,)
        shapes[f"adapter.{t}.lin2.w"] = (d, d)
        shapes[f"adapter.{t}.lin2.b"] = (d,)
        shapes[f"type_emb.{t}"] = (d,)

    for block in ("self_attn", "qmix", "postself", "agg"):
        for p in ("q", "k", "v", "o"):
            shapes[f"{block}.w{p}"] = (d, d)
            shapes[f"{block}.b{p}"] = (d,)
    for block in ("self_attn", "qmix", "postself"):
        shapes[f"{block}.ln.gamma"] = (d,)
        shapes[f"{block}.ln.beta"] = (d,)
    for block in ("qmix", "postself"):
        shapes[f"{block}.mlp.lin1.w"] = (4 * d, d)
        shapes[f"{block}.mlp.lin1.b"] = (4 * d,)
        shapes[f"{block}.mlp.lin2.w"] = (d, 4 * d)
        shapes[f"{block}.mlp.lin2.b"] = (d,)

    for kind in ("img_bev", "rad_bev"):
        shapes[f"sample.{kind}.w"] = (kb * 3, d)
        shapes[f"sample.{kind}.b"] = (kb * 3,)
        shapes[f"sample.{kind}.range"] = (1,)
    shapes["sample.pv.offsets"] = (kpv, 2)
    shapes["sample.pv.score.w"] = (kpv, d)
    shapes["sample.pv.score.b"] = (kpv,)

    shapes["head.cls.w"] = (c, d)
    shapes["head.cls.b"] = (c,)
    shapes["head.box.w"] = (10, d)
    shapes["head.box.b"] = (10,)
    return shapes


def _init_tensor(name: str, shape: tuple[int, ...], rng: np.random.Generator
                 ) -> np.ndarray:
    last = name.rsplit(".", 1)[-1]
    if last == "gamma":
        return np.ones(shape)
    if last in ("beta",) or last.startswith("b"):
        return np.zeros(shape)
    if last == "range":
        return np.full(shape, 4.0)
    if name == "sample.pv.offsets":
        return rng.normal(0.0, 4.0, size=shape)
    if name.startswith("type_emb."):
        return rng.normal(0.0, 0.02, size=shape)
    # linear weights: uniform(-1/sqrt(fan_in), 1/sqrt(fan_in))
    bound = 1.0 / math.sqrt(shape[-1])
    return rng.uniform(-bound, bound, size=shape)


def init_weights(seed: int, config) -> dict[str, np.ndarray]:
    """Seeded init of the name -> float64 tensor map every decoder layer
    shares; values are quantized to float32 for file round-trips."""
    rng = np.random.default_rng([seed, _STREAM_WEIGHTS])
    return {name: _init_tensor(name, shape, rng).astype("<f4").astype(np.float64)
            for name, shape in sorted(expected_shapes(config).items())}


def save_weights(weights: dict[str, np.ndarray], config, path):
    """Write the tensors in name order, tagged with config_hash(config)."""
    entries = []
    chunks = []
    offset = 0
    for name in sorted(weights):
        arr = weights[name].astype("<f4")
        raw = arr.tobytes()
        entries.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": "<f4",
            "offset": offset,
            "length": len(raw),
        })
        chunks.append(raw)
        offset += len(raw)
    manifest = {
        "format": FORMAT_TAG,
        "config_hash": config_hash(config),
        "tensors": entries,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(manifest, sort_keys=True).encode("utf-8"))
        fh.write(b"\n\n")
        fh.write(b"".join(chunks))


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _well_formed(entry) -> bool:
    """A str name and dtype, and non-negative int shape, offset and length."""
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("dtype"), str)
            and isinstance(entry.get("shape"), list)
            and all(map(_is_count, entry["shape"]))
            and _is_count(entry.get("offset")) and _is_count(entry.get("length")))


def _some(names: list[str]) -> str:
    """How many names, and the first two, each cut with `echo`."""
    shown = ", ".join(echo(n) for n in names[:2])
    return f"{len(names)} [{shown}{', ...' if len(names) > 2 else ''}]"


def load_weights(path, config) -> dict[str, np.ndarray]:
    """Parse, validate against config, and reject anything inconsistent."""
    with open(path, "rb") as fh:
        raw = fh.read()
    sep = raw.find(b"\n\n")
    if sep < 0:
        raise WeightFormatError("missing manifest separator")
    # ValueError covers bad UTF-8, bad JSON and an integer literal longer
    # than int() reads; RecursionError a document nested past the parser
    try:
        manifest = json.loads(raw[:sep].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise WeightFormatError(f"bad manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise WeightFormatError("manifest is not a JSON object")
    if manifest.get("format") != FORMAT_TAG:
        raise WeightFormatError(f"unsupported format {echo(manifest.get('format'))}")

    blob = raw[sep + 2:]
    entries = manifest.get("tensors", [])
    if not isinstance(entries, list):
        raise WeightFormatError("manifest 'tensors' is not a list")
    for e in entries:
        if not _well_formed(e):
            raise WeightFormatError(f"malformed tensor entry {echo(e)}")
    names = [e["name"] for e in entries]
    if len(set(names)) != len(names):
        raise WeightFormatError("duplicate tensor names in manifest")

    cursor = 0
    for e in sorted(entries, key=lambda e: e["offset"]):
        if e["dtype"] != "<f4":
            raise WeightFormatError(f"unsupported dtype {echo(e['dtype'])}")
        expect_len = math.prod(e["shape"]) * 4
        if e["length"] != expect_len:
            raise WeightFormatError(f"tensor {echo(e['name'])} length mismatch")
        if e["offset"] != cursor:
            raise WeightFormatError("tensor offsets are not contiguous")
        cursor += e["length"]
    if cursor != len(blob):
        raise WeightFormatError(
            f"blob length {len(blob)} does not cover manifest ({cursor} bytes)"
        )

    want = expected_shapes(config)
    if set(names) != set(want):
        raise WeightFormatError(
            f"tensor set does not match config (missing "
            f"{_some(sorted(set(want) - set(names)))}, extra "
            f"{_some(sorted(set(names) - set(want)))})")
    want_hash = config_hash(config)
    if manifest.get("config_hash") != want_hash:
        raise WeightFormatError("weight file was produced for a different config")

    tensors = {}
    for e in entries:
        shape = tuple(e["shape"])
        if shape != want[e["name"]]:
            raise WeightFormatError(
                f"tensor {echo(e['name'])} has shape {echo(shape)}, config "
                f"wants {want[e['name']]}")
        start = e["offset"]
        arr = np.frombuffer(blob[start:start + e["length"]], dtype="<f4")
        if not (np.abs(arr) <= MAX_WEIGHT).all():
            raise WeightFormatError(
                f"tensor {e['name']} holds a value that is not finite or "
                f"exceeds {MAX_WEIGHT} in magnitude")
        tensors[e["name"]] = arr.reshape(shape).astype(np.float64)
    return tensors
