"""Versioned model files: a JSON header line followed by the forest's raw arrays.

Layout: one line of JSON with sorted keys (format version, tool, config,
n/d/s/b, dataset fingerprint, feature names, and for every array its name,
little-endian dtype, shape and byte offset), then the arrays' bytes back to
back in the order the header lists them. The dtypes are the forest's own
(``forest.PACKED_DTYPES``): ids and indices are int32, floats their exact
float64 bits, so saving writes each array's buffer as it is and a reloaded
model reproduces predictions bit-exactly. There are no timestamps and no
container, so the bytes are a function of the forest alone and identical at
any worker count.

Child ids are not stored: nodes are numbered breadth-first within each
tree, so the forest derives them from the split pattern (see ``forest``).
A node is 13 bytes: its split axis (int32), one float64 that is a split's
threshold or a leaf's prediction, and its split provenance, one byte, a
``tree.SPLIT_KINDS`` code.

Loading reads no pickle and trusts nothing: the header must list exactly the
expected arrays with the expected dtypes and shapes, laid out back to back
up to the end of the file (checked against the file's size before any array
is allocated; each array is then read straight into its own buffer, which
the forest keeps, so the file's bytes are never held twice), and the forest
built from them re-checks its structure (feature range, split kinds, finite
thresholds, node count and split positions of every tree, index ranges, the
config's s and b). A file that fails any check is refused with
``ValueError``, and so is a file of any version other than
``FORMAT_VERSION``, including a version-1 JSON model, whose single line
parses as a header of the wrong version.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .dataset import TrainingSet
from .forest import PACKED_DTYPES, ForestConfig, ForestModel
from .sampling import prediction_size
from .tree import HONEST, TreeConfig

FORMAT_VERSION = 5


def dataset_fingerprint(ts: TrainingSet) -> str:
    """Content hash of a training set (shape plus raw float64 bytes)."""
    import hashlib  # loads OpenSSL; only saving a model hashes

    h = hashlib.sha256()
    h.update(f"{ts.n},{ts.d};".encode())
    h.update(np.ascontiguousarray(ts.x).tobytes())
    h.update(np.ascontiguousarray(ts.y).tobytes())
    return h.hexdigest()


def _config_from_record(c: dict) -> ForestConfig:
    """Inverse of ``dataclasses.asdict``: a missing key raises KeyError, an unknown one TypeError."""
    for cls, record in ((ForestConfig, c), (TreeConfig, c["tree"])):
        missing = {f.name for f in fields(cls)} - set(record)
        if missing:
            raise KeyError(sorted(missing))
    return ForestConfig(**{**c, "tree": TreeConfig(**c["tree"])})


def _layout(n_nodes: int, b: int, s: int, honest: bool) -> list[dict]:
    """Header entries of the arrays, in file order and back to back."""
    # every other array holds one entry per node
    shapes = {"roots": [b], "subsample_indices": [b, s], "prediction_indices": [b, prediction_size(s)]}
    entries, offset = [], 0
    for name, dtype in PACKED_DTYPES.items():
        if name == "prediction_indices" and not honest:
            continue
        shape = shapes.get(name, [n_nodes])
        entries.append({"name": name, "dtype": dtype, "shape": shape, "offset": offset})
        offset += int(np.prod(shape)) * np.dtype(dtype).itemsize
    return entries


def save_model(path, forest: ForestModel, ts: TrainingSet) -> None:
    """Write the header line, then each array's own buffer (already in its file dtype)."""
    entries = _layout(forest.feature.size, forest.b, forest.s, forest.prediction_indices is not None)
    header = {
        "format_version": FORMAT_VERSION,
        "tool": f"subforest {__version__}",
        "config": asdict(forest.config),
        "n": forest.n,
        "d": forest.d,
        "s": forest.s,
        "b": forest.b,
        "mode": forest.config.tree.mode,
        "dataset_sha256": dataset_fingerprint(ts),
        "feature_names": list(ts.feature_names) if ts.feature_names else None,
        "arrays": entries,
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n").encode())
        for e in entries:
            fh.write(getattr(forest, e["name"]).data)


def _count(header: dict, key: str) -> int:
    v = header[key]
    if type(v) is not int or v < 1:
        raise ValueError(f"{key} must be a positive integer, got {v!r}")
    return v


def _read_arrays(header: dict, fh, body_size: int, honest: bool) -> dict:
    """Arrays named in the header, which must list exactly the writer's layout.

    ``fh`` stands at the first array byte and ``body_size`` bytes follow it.
    The size is checked against the layout before any array is allocated,
    then each array is read straight into its own (aligned) buffer.
    """
    n_nodes = header["arrays"][0]["shape"][0]
    if type(n_nodes) is not int or n_nodes < 1:
        raise ValueError(f"node count must be a positive integer, got {n_nodes!r}")
    layout = _layout(n_nodes, _count(header, "b"), _count(header, "s"), honest)
    if header["arrays"] != layout:
        raise ValueError("the array table does not match the format's layout")
    last = layout[-1]
    size = last["offset"] + int(np.prod(last["shape"])) * np.dtype(last["dtype"]).itemsize
    if body_size != size:
        raise ValueError(f"file is truncated or has trailing bytes: {body_size} array bytes, expected {size}")
    out = {}
    for e in layout:
        arr = np.empty(e["shape"], dtype=e["dtype"])
        if fh.readinto(arr) != arr.nbytes:  # the file shrank after its size was read
            raise ValueError(f"file is truncated: {e['name']} ends early")
        out[e["name"]] = arr
    return out


def load_model(path) -> tuple[ForestModel, dict]:
    """Load a model file; returns (forest, header metadata)."""
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line) if line.endswith(b"\n") else None
        except ValueError:  # bad JSON or bad UTF-8
            header = None
        if not isinstance(header, dict):
            raise ValueError(f"{path}: not a subforest model file (no JSON header line)")
        version = header.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"{path}: model format version {version!r} does not match supported version {FORMAT_VERSION}"
            )
        try:
            cfg = _config_from_record(header["config"])
            honest = cfg.tree.mode == HONEST
            arrays = _read_arrays(header, fh, os.fstat(fh.fileno()).st_size - fh.tell(), honest)
            n, d, s, b = (_count(header, k) for k in ("n", "d", "s", "b"))
            if cfg.tree.mode != header["mode"]:  # the forest checks the config's s and b
                raise ValueError("config does not match the header's mode")
            forest = ForestModel(**{name: arrays.get(name) for name in PACKED_DTYPES}, n=n, d=d, s=s, b=b, config=cfg)
            meta = {k: header[k] for k in ("tool", "dataset_sha256", "mode", "feature_names")}
        except (KeyError, TypeError, IndexError) as e:
            raise ValueError(f"{path}: malformed model header ({type(e).__name__}: {e})") from None
        except ValueError as e:
            raise ValueError(f"{path}: invalid model file: {e}") from None
    return forest, meta
