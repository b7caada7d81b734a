"""Training data: synthetic generators and CSV ingestion.

Synthetic label rules (features uniform on [0,1]^d, standard Gaussian noise):

    cosine: y = 3 * cos(pi * (x1 + x2))
    xor:    y = 5 * (XOR(x1 > 0.6, x2 > 0.6) + XOR(x3 > 0.6, x4 > 0.6))
    and:    y = 10 * AND(x1 > 0.3, x2 > 0.3, x3 > 0.3, x4 > 0.3)

XOR and AND are 0/1-valued with strict inequalities. Dimensions beyond a
rule's arity are inactive noise features, still drawn uniformly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng

ARITY = {"cosine": 2, "xor": 4, "and": 4}


@dataclass(frozen=True)
class SyntheticSpec:
    """One of the three synthetic data-generating distributions; d defaults to the kind's arity."""

    kind: str
    d: int | None = None
    noise_sd: float = 1.0

    def __post_init__(self):
        if self.kind not in ARITY:
            raise ValueError(f"unknown synthetic kind {self.kind!r}; expected one of {sorted(ARITY)}")
        if self.d is None:
            object.__setattr__(self, "d", ARITY[self.kind])
        if self.d < ARITY[self.kind]:
            raise ValueError(f"kind {self.kind!r} needs d >= {ARITY[self.kind]}, got d={self.d}")
        if not (self.noise_sd >= 0.0 and math.isfinite(self.noise_sd)):
            raise ValueError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")


@dataclass(frozen=True)
class TrainingSet:
    """Immutable labeled sample; row order is the identity of each example."""

    x: np.ndarray  # (n, d) float64
    y: np.ndarray  # (n,) float64
    feature_names: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        x = np.ascontiguousarray(np.asarray(self.x, dtype=np.float64))
        y = np.ascontiguousarray(np.asarray(self.y, dtype=np.float64))
        if x.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise ValueError(f"labels shape {y.shape} does not match {x.shape[0]} rows")
        if x.shape[0] == 0:
            raise ValueError("empty dataset")
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite feature value")
        if not np.all(np.isfinite(y)):
            raise ValueError("non-finite label value")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        x.setflags(write=False)
        y.setflags(write=False)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def true_mean_batch(spec: SyntheticSpec, x: np.ndarray) -> np.ndarray:
    """Noise-free regression function E[Y | X = x] for each row of ``x``."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != spec.d:
        raise ValueError(f"expected {spec.d} features, got {x.shape[1]}")
    if spec.kind == "cosine":
        return 3.0 * np.cos(np.pi * (x[:, 0] + x[:, 1]))
    if spec.kind == "xor":
        a = (x[:, 0] > 0.6) ^ (x[:, 1] > 0.6)
        b = (x[:, 2] > 0.6) ^ (x[:, 3] > 0.6)
        return 5.0 * (a.astype(np.float64) + b.astype(np.float64))
    a = (x[:, 0] > 0.3) & (x[:, 1] > 0.3) & (x[:, 2] > 0.3) & (x[:, 3] > 0.3)
    return 10.0 * a.astype(np.float64)


def sample_synthetic(spec: SyntheticSpec, n: int, gen: np.random.Generator) -> TrainingSet:
    """Draw ``n`` examples from ``spec`` using an explicit stream."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    x = gen.random((n, spec.d))
    y = true_mean_batch(spec, x)
    if spec.noise_sd > 0.0:
        y = y + spec.noise_sd * gen.standard_normal(n)
    return TrainingSet(x, y)


def gen_synthetic(spec: SyntheticSpec, n: int, seed: int) -> TrainingSet:
    """Draw ``n`` examples from ``spec``; identical seeds give identical bytes."""
    return sample_synthetic(spec, n, rng.stream(seed, rng.DATASET))


def read_csv(path) -> tuple[list[str], list[list[str]], list[int]]:
    """Header, data rows and each data row's line in the file (from 1), in file order.

    '# key=value' provenance lines before the header and blank rows anywhere
    are skipped, but they count as lines, so a message's "row N" is line N
    of the file. The file needs a header that names no column twice and a
    data row, and every row as many cells as the header.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = None
        for row in reader:
            if not any(cell.strip() for cell in row) or row[0].lstrip().startswith("#"):
                continue
            header = [h.strip() for h in row]
            break
        if header is None:
            raise ValueError(f"{path}: empty file")
        # columns are found by name, so a repeated name would read one column twice
        if len(set(header)) < len(header):
            repeated = next(h for i, h in enumerate(header) if h in header[:i])
            raise ValueError(f"{path}: header names column {repeated!r} twice")
        rows, lines = [], []
        for row in reader:
            if row and any(cell.strip() for cell in row):
                rows.append(row)
                lines.append(reader.line_num)
    if not rows:
        raise ValueError(f"{path}: empty dataset (header only)")
    for row, line in zip(rows, lines):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {line}: expected {len(header)} cells, got {len(row)}")
    return header, rows, lines


def csv_columns(path, header: list[str], rows: list[list[str]], lines: list[int], cols: list[int]) -> np.ndarray:
    """(rows, len(cols)) float64 of ``read_csv`` rows' columns ``cols``, in that order.

    Each cell is read by ``float``, so nan and inf are numbers here; a
    message names the cell's line in the file.
    """
    out = np.empty((len(rows), len(cols)))
    for r, row in enumerate(rows):
        for j, c in enumerate(cols):
            try:
                out[r, j] = float(row[c])
            except ValueError:
                raise ValueError(f"{path}: row {lines[r]}, column {header[c]!r}: not numeric: {row[c]!r}") from None
    return out


def load_csv(path, target_column: str | None = None) -> TrainingSet:
    """Read a headered numeric CSV into a TrainingSet, preserving row order.

    ``target_column`` is a header name (default: the last column); every
    other column is a feature. Every cell must be a finite number.
    """
    header, rows, lines = read_csv(path)
    if target_column is not None and target_column not in header:
        raise ValueError(f"{path}: target column {target_column!r} not in header {header}")
    target = len(header) - 1 if target_column is None else header.index(target_column)
    cols = [i for i in range(len(header)) if i != target]
    if not cols:
        raise ValueError(f"{path}: no feature columns")
    cols.append(target)
    values = csv_columns(path, header, rows, lines, cols)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, c = bad[0][0], cols[bad[0][1]]
        raise ValueError(f"{path}: row {lines[r]}, column {header[c]!r}: non-finite value {rows[r][c]!r}")
    return TrainingSet(values[:, :-1], values[:, -1], feature_names=tuple(header[c] for c in cols[:-1]))


def write_csv(path, preamble, rows) -> None:
    """Write the ``preamble`` lines, then ``rows`` (the header first, when there is one) as CSV.

    The preamble is '# key=value' provenance that ``read_csv`` skips. csv
    writes a float as its repr, which round-trips it.
    """
    with open(path, "w", newline="") as fh:
        for line in preamble:
            fh.write(line + "\n")
        csv.writer(fh).writerows(rows)


def save_csv(ts: TrainingSet, path, preamble=()) -> None:
    """Write a TrainingSet as CSV with header x1..xd,y (bit round-trips), after the ``preamble`` lines."""
    names = ts.feature_names or tuple(f"x{j + 1}" for j in range(ts.d))
    write_csv(path, preamble, [list(names) + ["y"], *np.column_stack([ts.x, ts.y]).tolist()])
