"""Bag/dataset data model, BAG_CSV ingestion, and PCA preprocessing.

A *bag* is a set of instances (feature vectors of a common dimension d)
carrying an optional binary label; instances themselves are unlabelled.
Bags are stored as read-only ``(n_k, d)`` float arrays, one row per
instance, so downstream density estimation can pool and slice them
without copies.

BAG_CSV is the canonical on-disk format: UTF-8 (a leading byte order mark
is skipped), comma separated, header ``bag_id,label,f1,...,fd``, one
instance per row, label in ``{0,1,NA}``. Rows of one bag need not be
contiguous but must agree on the label. ``load_dataset`` reads a valid file
once, in chunks parsed a column at a time; on any fault it reads the file
again, row by row, to name the first faulty record.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import IntEnum
from itertools import islice, repeat
from pathlib import Path
from typing import NoReturn

import numpy as np

__all__ = [
    "Label",
    "Bag",
    "Dataset",
    "PcaTransform",
    "DatasetError",
    "load_dataset",
    "write_dataset",
    "fit_pca",
    "apply_pca",
]


class DatasetError(ValueError):
    """Raised for malformed dataset files or inconsistent bag structure."""


class Label(IntEnum):
    NEG = 0
    POS = 1

    @classmethod
    def from_field(cls, text: str) -> "Label | None":
        t = text.strip()
        if t.upper() == "NA":
            return None
        if t == "0":
            return cls.NEG
        if t == "1":
            return cls.POS
        raise DatasetError(f"label must be 0, 1 or NA, got {text!r}")


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Bag:
    """A non-empty set of d-dimensional instances with an optional label."""

    id: str
    instances: np.ndarray  # shape (n_k, d), read-only after construction
    label: Label | None = None

    def __post_init__(self):
        arr = np.array(self.instances, dtype=float, order="C", ndmin=2)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise DatasetError(f"bag {self.id!r} must hold a non-empty 2-D instance array")
        if not np.isfinite(arr).all():
            raise DatasetError(f"bag {self.id!r} contains non-finite feature values")
        arr.setflags(write=False)
        object.__setattr__(self, "instances", arr)

    @property
    def n_instances(self) -> int:
        return self.instances.shape[0]

    @property
    def dimension(self) -> int:
        return self.instances.shape[1]

    def column(self, dim: int) -> np.ndarray:
        return self.instances[:, dim]


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of bags sharing one feature dimension."""

    bags: tuple[Bag, ...]
    dimension: int
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "bags", tuple(self.bags))
        for bag in self.bags:
            if bag.dimension != self.dimension:
                raise DatasetError(
                    f"bag {bag.id!r} has dimension {bag.dimension}, dataset declares {self.dimension}"
                )

    def __len__(self) -> int:
        return len(self.bags)

    def __iter__(self):
        return iter(self.bags)

    def with_label(self, label: Label) -> list[Bag]:
        return [b for b in self.bags if b.label == label]

    def pooled_instances(self, label: Label | None = None) -> np.ndarray:
        """All instances stacked into one (N, d) array, optionally by label."""
        picked = self.bags if label is None else self.with_label(label)
        if not picked:
            return np.empty((0, self.dimension))
        return np.concatenate([b.instances for b in picked], axis=0)

    def replace_bags(self, bags: list[Bag], dimension: int | None = None) -> "Dataset":
        dim = self.dimension if dimension is None else dimension
        return Dataset(bags=tuple(bags), dimension=dim, name=self.name)


# --------------------------------------------------------------------------
# BAG_CSV ingestion

_LOAD_CHUNK = 1024  # records read, checked and parsed as one set of columns


def _is_blank(row: list[str]) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def _parse_chunk(rows: list[list[str]], dim: int, label_of: dict, code_of: dict, bag_labels: list):
    """A chunk's bag codes and ``(n, dim)`` values, parsed column by column.

    Blank records are skipped. A bag is appended, with its label, where it
    first appears. Raises ValueError, and appends no bag, if any record is
    faulty. ``label_of`` caches the parse of each label text across chunks.
    """
    if set(map(len, rows)) != {dim + 2}:
        rows = [row for row in rows if not _is_blank(row)]
        if any(len(row) != dim + 2 for row in rows):
            raise ValueError("a record has the wrong number of fields")
        if not rows:
            return np.empty(0, np.intp), np.empty((0, dim))
    ids, texts, *features = zip(*rows)
    for text in set(texts).difference(label_of):
        label_of[text] = Label.from_field(text)
    values = np.empty((len(rows), dim))
    for j, column in enumerate(features):
        values[:, j] = np.fromiter(map(float, column), float, len(rows))
    if not np.isfinite(values).all():
        raise ValueError("non-finite feature value")
    ids = list(map(str.strip, ids))
    labels = list(map(label_of.__getitem__, texts))
    first = dict(zip(reversed(ids), reversed(labels)))  # each bag's first label in this chunk,
    for bag_id in first:
        if bag_id in code_of:  # or in an earlier one
            first[bag_id] = bag_labels[code_of[bag_id]]
    if list(map(first.__getitem__, ids)) != labels:
        raise ValueError("conflicting labels within a bag")
    for bag_id in dict.fromkeys(ids):
        if bag_id not in code_of:
            code_of[bag_id] = len(bag_labels)
            bag_labels.append(first[bag_id])
    return np.fromiter(map(code_of.__getitem__, ids), np.intp, len(ids)), values


def _raise_first_fault(path: Path) -> NoReturn:
    """Read ``path`` again from the top, one record at a time, and raise the
    DatasetError of its first fault, naming the line that record ends on.

    Every message about a faulty file's text is formatted here.
    """
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DatasetError(f"{path}: empty file")
            header = [h.strip() for h in header]
            if len(header) < 3 or header[0] != "bag_id" or header[1] != "label":
                raise DatasetError(f"{path}: header must be bag_id,label,f1,...,fd, got {header}")
            dim = len(header) - 2
            first: dict[str, Label | None] = {}  # each bag's first label
            for row in reader:
                if _is_blank(row):
                    continue  # tolerate blank lines
                bag_id = row[0].strip()
                if len(row) - 2 != dim:
                    raise DatasetError(
                        f"{path}:{reader.line_num}: dimension mismatch for bag {bag_id!r}: "
                        f"expected {dim} features, got {len(row) - 2}"
                    )
                try:
                    label = Label.from_field(row[1])
                    values = [float(v) for v in row[2:]]
                except ValueError as exc:
                    raise DatasetError(f"{path}:{reader.line_num}: {exc}") from None
                if not all(map(math.isfinite, values)):
                    raise DatasetError(f"{path}:{reader.line_num}: non-finite feature value")
                if first.setdefault(bag_id, label) != label:
                    raise DatasetError(f"{path}: conflicting labels within bag {bag_id!r}")
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path}: not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:
            raise DatasetError(f"{path}:{reader.line_num}: {exc}") from None
    raise AssertionError(f"{path}: the column check found a fault the row check does not")


def load_dataset(path: str | Path) -> Dataset:
    """Parse a BAG_CSV file into a Dataset.

    Rows are grouped by ``bag_id`` preserving row order within each bag;
    bags come in order of first appearance. A bag's rows must agree on the
    label: mixing 0/1, or labelled and NA rows, within one bag is an error.
    A leading UTF-8 byte order mark is skipped.

    Records are read, checked and parsed in chunks, a column at a time, and
    a valid file is read once. On any fault the file is read again from the
    top, row by row, so the error is the one of the first faulty record.
    """
    path = Path(path)
    code_of: dict[str, int] = {}  # bag id -> bag index, in order of first appearance
    bag_labels: list[Label | None] = []  # by bag index: the bag's label
    label_of: dict[str, Label | None] = {}
    codes, values = [], []
    try:
        with path.open("r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = [h.strip() for h in next(reader, [])]
            if len(header) < 3 or header[0] != "bag_id" or header[1] != "label":
                raise ValueError("missing or bad header")
            dim = len(header) - 2
            while rows := list(islice(reader, _LOAD_CHUNK)):
                chunk_codes, chunk_values = _parse_chunk(rows, dim, label_of, code_of, bag_labels)
                codes.append(chunk_codes)
                values.append(chunk_values)
    except (ValueError, csv.Error):  # a decoding error is a ValueError too
        codes = None  # raise outside this handler, so the error chains to no other
    if codes is None:
        _raise_first_fault(path)

    if not bag_labels:
        raise DatasetError(f"{path}: no data rows")
    codes = np.concatenate(codes)
    instances = np.concatenate(values)[np.argsort(codes, kind="stable")]
    instances.setflags(write=False)
    stops = np.cumsum(np.bincount(codes)).tolist()
    bags = tuple(
        _loaded_bag(bag_id, instances[start:stop], label)
        for bag_id, label, start, stop in zip(code_of, bag_labels, [0] + stops[:-1], stops)
    )
    return Dataset(bags=bags, dimension=dim, name=path.stem)


def _loaded_bag(bag_id: str, instances: np.ndarray, label: Label | None) -> Bag:
    """A bag of ``load_dataset``, whose chunks have already checked its rows:
    a read-only slice of the loader's one sorted array, without
    ``__post_init__``'s checks and copy."""
    bag = object.__new__(Bag)
    for name, value in (("id", bag_id), ("instances", instances), ("label", label)):
        object.__setattr__(bag, name, value)
    return bag


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a Dataset as BAG_CSV; floats use repr so a round-trip is exact."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bag_id", "label"] + [f"f{i + 1}" for i in range(dataset.dimension)])
        for bag in dataset.bags:
            n = bag.n_instances
            label = "NA" if bag.label is None else str(int(bag.label))
            columns = [map(repr, column) for column in bag.instances.T.tolist()]
            writer.writerows(zip(repeat(bag.id, n), repeat(label, n), *columns))


# --------------------------------------------------------------------------
# PCA


@dataclass(frozen=True)
class PcaTransform:
    """Orthonormal projection fitted on pooled training instances."""

    mean: np.ndarray  # (d,)
    components: np.ndarray  # (m, d), rows orthonormal

    def __post_init__(self):
        object.__setattr__(self, "mean", _frozen_array(self.mean))
        object.__setattr__(self, "components", _frozen_array(np.atleast_2d(self.components)))

    @property
    def input_dimension(self) -> int:
        return self.components.shape[1]

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.mean) @ self.components.T


def fit_pca(train: Dataset, m: int) -> PcaTransform:
    """Fit PCA on instances pooled across bags (each instance has weight 1).

    Components are the top-m eigenvectors of the pooled sample covariance,
    sorted by non-increasing eigenvalue. The sign of each component is fixed
    so its largest-magnitude coordinate is positive, which makes the fit
    deterministic.
    """
    x = train.pooled_instances()
    n, d = x.shape
    if not 1 <= m <= d:
        raise ValueError(f"m must be in [1, {d}], got {m}")
    if n < 2:
        raise ValueError("PCA needs at least 2 pooled instances")
    mean = x.mean(axis=0)
    xc = x - mean
    cov = xc.T @ xc / (n - 1)
    if not np.any(np.abs(cov) > 0):
        raise ValueError("degenerate covariance: all training instances are identical")
    eigval, eigvec = np.linalg.eigh(cov)
    idx = np.argsort(eigval)[::-1][:m]
    components = eigvec[:, idx].T
    for i in range(components.shape[0]):
        pivot = np.argmax(np.abs(components[i]))
        if components[i, pivot] < 0:
            components[i] = -components[i]
    return PcaTransform(mean=mean, components=components)


def apply_pca(transform: PcaTransform, data: Dataset) -> Dataset:
    """Project every instance onto the fitted components; bag structure kept."""
    if data.dimension != transform.input_dimension:
        raise ValueError(
            f"dataset dimension {data.dimension} does not match "
            f"transform input dimension {transform.input_dimension}"
        )
    bags = [
        Bag(id=b.id, instances=transform.project(b.instances), label=b.label) for b in data.bags
    ]
    return data.replace_bags(bags, dimension=transform.n_components)
