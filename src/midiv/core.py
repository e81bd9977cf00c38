"""Bag/dataset data model, BAG_CSV ingestion, and PCA preprocessing.

A *bag* is a set of instances (feature vectors of a common dimension d)
carrying an optional binary label; instances themselves are unlabelled.
Bags are stored as read-only ``(n_k, d)`` float arrays, one row per
instance, so downstream density estimation can pool and slice them
without copies.

BAG_CSV is the canonical on-disk format: UTF-8, comma separated, header
``bag_id,label,f1,...,fd``, one instance per row, label in ``{0,1,NA}``.
Rows of one bag need not be contiguous but must agree on the label.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

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


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Bag:
    """A non-empty set of d-dimensional instances with an optional label."""

    id: str
    instances: np.ndarray  # shape (n_k, d), read-only after construction
    label: Label | None = None

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.instances, dtype=float))
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise DatasetError(f"bag {self.id!r} must hold a non-empty 2-D instance array")
        if not np.all(np.isfinite(arr)):
            raise DatasetError(f"bag {self.id!r} contains non-finite feature values")
        arr = arr.copy()
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


def load_dataset(path: str | Path) -> Dataset:
    """Parse a BAG_CSV file into a Dataset.

    Rows are grouped by ``bag_id`` preserving row order within each bag.
    A bag's rows must agree on the label: mixing 0/1, or labelled and NA
    rows, within one bag is an error.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 3 or header[0] != "bag_id" or header[1] != "label":
            raise DatasetError(f"{path}: header must be bag_id,label,f1,...,fd, got {header}")
        dim = len(header) - 2

        rows_by_bag: dict[str, list[list[float]]] = {}
        labels_by_bag: dict[str, Label | None] = {}
        order: list[str] = []
        n_rows = 0
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # tolerate blank lines
            bag_id = row[0].strip()
            if len(row) - 2 != dim:
                raise DatasetError(
                    f"{path}:{lineno}: dimension mismatch for bag {bag_id!r}: "
                    f"expected {dim} features, got {len(row) - 2}"
                )
            try:
                label = Label.from_field(row[1])
                values = [float(v) for v in row[2:]]
            except DatasetError as exc:
                raise DatasetError(f"{path}:{lineno}: {exc}") from None
            except ValueError as exc:
                raise DatasetError(f"{path}:{lineno}: {exc}") from None
            if not all(np.isfinite(values)):
                raise DatasetError(f"{path}:{lineno}: non-finite feature value")
            if bag_id not in rows_by_bag:
                rows_by_bag[bag_id] = []
                labels_by_bag[bag_id] = label
                order.append(bag_id)
            elif labels_by_bag[bag_id] != label:
                raise DatasetError(f"{path}: conflicting labels within bag {bag_id!r}")
            rows_by_bag[bag_id].append(values)
            n_rows += 1

    if n_rows == 0:
        raise DatasetError(f"{path}: no data rows")
    bags = tuple(
        Bag(id=bag_id, instances=np.array(rows_by_bag[bag_id]), label=labels_by_bag[bag_id])
        for bag_id in order
    )
    return Dataset(bags=bags, dimension=dim, name=path.stem)


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a Dataset as BAG_CSV; floats use repr so a round-trip is exact."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bag_id", "label"] + [f"f{i + 1}" for i in range(dataset.dimension)])
        for bag in dataset.bags:
            label = "NA" if bag.label is None else str(int(bag.label))
            for row in bag.instances:
                writer.writerow([bag.id, label] + [repr(float(v)) for v in row])


# --------------------------------------------------------------------------
# PCA


@dataclass(frozen=True)
class PcaTransform:
    """Orthonormal projection fitted on pooled training instances."""

    mean: np.ndarray  # (d,)
    components: np.ndarray  # (m, d), rows orthonormal
    explained_variance: np.ndarray = field(repr=False, default=None)  # (m,), non-increasing

    def __post_init__(self):
        object.__setattr__(self, "mean", _frozen_array(self.mean))
        object.__setattr__(self, "components", _frozen_array(np.atleast_2d(self.components)))
        object.__setattr__(self, "explained_variance", _frozen_array(self.explained_variance))

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
    variances = np.maximum(eigval[idx], 0.0)
    for i in range(components.shape[0]):
        pivot = np.argmax(np.abs(components[i]))
        if components[i, pivot] < 0:
            components[i] = -components[i]
    return PcaTransform(mean=mean, components=components, explained_variance=variances)


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
