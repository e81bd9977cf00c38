import csv
import io
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midiv import core
from midiv.core import (
    Bag,
    Dataset,
    DatasetError,
    Label,
    apply_pca,
    fit_pca,
    load_dataset,
    write_dataset,
)


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# --------------------------------------------------------------------------
# The row-by-row BAG_CSV loader, kept as the reference for ``load_dataset``:
# one generator step, label parse, float list and finiteness check per row.


def _reference_records(path, fh):
    reader = csv.reader(fh)
    try:
        for row in reader:
            yield reader.line_num, row
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        raise DatasetError(f"{path}:{reader.line_num}: {exc}") from None


def reference_load_dataset(path):
    path = Path(path)
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        records = _reference_records(path, fh)
        try:
            _, header = next(records)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 3 or header[0] != "bag_id" or header[1] != "label":
            raise DatasetError(f"{path}: header must be bag_id,label,f1,...,fd, got {header}")
        dim = len(header) - 2

        rows_by_bag = {}
        labels_by_bag = {}
        order = []
        n_rows = 0
        for lineno, row in records:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            bag_id = row[0].strip()
            if len(row) - 2 != dim:
                raise DatasetError(
                    f"{path}:{lineno}: dimension mismatch for bag {bag_id!r}: "
                    f"expected {dim} features, got {len(row) - 2}"
                )
            try:
                label = Label.from_field(row[1])
                values = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise DatasetError(f"{path}:{lineno}: {exc}") from None
            if not all(map(math.isfinite, values)):
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


def load_outcome(loader, path):
    """What a loader makes of a file: its Dataset, spelled out bit for bit, or its error text."""
    try:
        ds = loader(path)
    except DatasetError as exc:
        return str(exc)
    bags = [
        (b.id, b.label, b.instances.shape, b.instances.dtype.str, b.instances.tobytes(),
         b.instances.flags.c_contiguous, b.instances.flags.writeable)
        for b in ds.bags
    ]
    return ds.name, ds.dimension, bags


class TestLoadDataset:
    def test_groups_rows_by_bag(self, tmp_path):
        path = write_csv(tmp_path, "bag_id,label,f1\nb1,1,0.5\nb1,1,0.7\nb2,0,0.1\n")
        ds = load_dataset(path)
        assert len(ds) == 2 and ds.dimension == 1
        b1, b2 = ds.bags
        assert b1.id == "b1" and b1.n_instances == 2 and b1.label == Label.POS
        assert b2.label == Label.NEG
        np.testing.assert_allclose(b1.column(0), [0.5, 0.7])

    def test_conflicting_labels_within_bag(self, tmp_path):
        path = write_csv(tmp_path, "bag_id,label,f1\nb1,1,0.5\nb1,0,0.7\n")
        with pytest.raises(DatasetError, match="conflicting labels.*b1"):
            load_dataset(path)

    def test_na_mixed_with_label_is_conflict(self, tmp_path):
        path = write_csv(tmp_path, "bag_id,label,f1\nb1,1,0.5\nb1,NA,0.7\n")
        with pytest.raises(DatasetError, match="conflicting labels"):
            load_dataset(path)

    def test_dimension_mismatch_names_bag_and_line(self, tmp_path):
        path = write_csv(tmp_path, "bag_id,label,f1,f2\nb1,1,0.5,0.2\nb1,1,0.7\n")
        with pytest.raises(DatasetError, match=r":3:.*b1"):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(DatasetError, match="empty"):
            load_dataset(path)

    def test_header_only(self, tmp_path):
        path = write_csv(tmp_path, "bag_id,label,f1\n")
        with pytest.raises(DatasetError, match="no data rows"):
            load_dataset(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = write_csv(tmp_path, "bag_id,label,f1\nb1,1,0.5\nb1,1,oops\n")
        with pytest.raises(DatasetError, match=":3:"):
            load_dataset(path)

    def test_bad_label_value(self, tmp_path):
        path = write_csv(tmp_path, "bag_id,label,f1\nb1,2,0.5\n")
        with pytest.raises(DatasetError, match="label"):
            load_dataset(path)

    def test_loaded_instances_are_read_only(self, tmp_path):
        path = write_csv(tmp_path, "bag_id,label,f1\nb1,1,0.5\nb2,0,0.1\nb1,1,0.7\n")
        for bag in load_dataset(path).bags:
            with pytest.raises(ValueError):
                bag.instances[0, 0] = 9.0
            with pytest.raises(ValueError):
                bag.instances.setflags(write=True)

    def test_unlabeled_bag_allowed(self, tmp_path):
        path = write_csv(tmp_path, "bag_id,label,f1\nb1,NA,0.5\nb1,NA,0.7\n")
        ds = load_dataset(path)
        assert ds.bags[0].label is None

    def test_noncontiguous_bag_rows(self, tmp_path):
        path = write_csv(tmp_path, "bag_id,label,f1\nb1,1,0.5\nb2,0,0.1\nb1,1,0.7\n")
        ds = load_dataset(path)
        assert [b.id for b in ds.bags] == ["b1", "b2"]
        np.testing.assert_allclose(ds.bags[0].column(0), [0.5, 0.7])

    def test_scientific_notation(self, tmp_path):
        path = write_csv(tmp_path, "bag_id,label,f1\nb1,1,1.5e-3\nb1,1,2E+2\n")
        ds = load_dataset(path)
        np.testing.assert_allclose(ds.bags[0].column(0), [1.5e-3, 200.0])

    def test_line_numbers_count_file_lines(self, tmp_path):
        path = write_csv(tmp_path, 'bag_id,label,f1\n"b\n1",1,0.5\nb2,1,oops\n')
        with pytest.raises(DatasetError, match=":4:"):
            load_dataset(path)

    def test_non_utf8_byte_names_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"bag_id,label,f1\nb\xff1,1,0.5\n")
        with pytest.raises(DatasetError, match="latin1.csv: not UTF-8"):
            load_dataset(path)

    def test_oversized_field_names_file_and_line(self, tmp_path):
        path = write_csv(tmp_path, "bag_id,label,f1\nb1,1," + "1" * 200_000 + "\n", "big.csv")
        with pytest.raises(DatasetError, match="big.csv:2: field larger than field limit"):
            load_dataset(path)

    @given(st.one_of(st.binary(), st.binary().map(lambda tail: b"bag_id,label,f1\n" + tail)))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_give_dataset_or_dataset_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.csv"
            path.write_bytes(data)
            try:
                load_dataset(path)
            except DatasetError as exc:
                assert str(path) in str(exc)
            assert load_outcome(load_dataset, path) == load_outcome(reference_load_dataset, path)

    def test_bom_and_crlf_load_like_the_plain_file(self, tmp_path):
        text = "bag_id,label,f1\nb1,1,0.5\nb2,0,0.1\nb1,1,0.7\n"
        plain = write_csv(tmp_path, text)
        (tmp_path / "excel").mkdir()
        excel = tmp_path / "excel" / "data.csv"
        excel.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode("utf-8"))
        assert load_outcome(load_dataset, excel) == load_outcome(load_dataset, plain)

    def test_first_fault_in_file_order_wins_across_chunks(self, tmp_path):
        chunk = core._LOAD_CHUNK
        rows = [f"b{i % 7},{i % 7 % 2},{i}.5" for i in range(2 * chunk + 10)]
        rows[chunk + 3] = "b1,0,2.5"  # conflicts with b1's label in the first chunk
        rows[chunk + 5] = "b2,0,oops"
        path = write_csv(tmp_path, "bag_id,label,f1\n" + "\n".join(rows) + "\n")
        with pytest.raises(DatasetError, match="conflicting labels within bag 'b1'"):
            load_dataset(path)
        rows[chunk + 3], rows[chunk + 5] = rows[chunk + 5], rows[chunk + 3]
        path = write_csv(tmp_path, "bag_id,label,f1\n" + "\n".join(rows) + "\n")
        with pytest.raises(DatasetError, match=f":{chunk + 5}: could not convert"):
            load_dataset(path)

    def test_rows_before_a_csv_error_are_checked_first(self, tmp_path):
        path = write_csv(tmp_path, "bag_id,label,f1\nb1,1,0.5\nb1,1,nan\nb1,1," + "1" * 200_000 + "\n")
        with pytest.raises(DatasetError, match=":3: non-finite"):
            load_dataset(path)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_chunked_loader_matches_row_by_row_reference(self, data):
        for chunk in (core._LOAD_CHUNK, 4):
            with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
                mp.setattr(core, "_LOAD_CHUNK", chunk)
                path = Path(tmp) / "drawn.csv"
                path.write_bytes(data.draw(bag_csv_files(chunk)))
                assert load_outcome(load_dataset, path) == load_outcome(reference_load_dataset, path)

    def test_peak_memory_at_most_the_reference_loader(self, tmp_path):
        rng = np.random.default_rng(0)
        bags = tuple(
            Bag(id=f"bag{i:04d}", instances=rng.standard_normal((10, 1)), label=Label(i % 2))
            for i in range(1000)
        )
        path = tmp_path / "many.csv"
        write_dataset(Dataset(bags=bags, dimension=1), path)

        def peak(loader):
            loader(path)  # leave one-time allocations out of the count
            tracemalloc.start()
            try:
                loader(path)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(load_dataset) <= peak(reference_load_dataset)


# Edits of a drawn record: a fault the loader must name, or a form it must accept.
RECORD_EDITS = {
    "extra field": lambda row: row + ["0.5"],
    "missing field": lambda row: row[:-1],
    "bad label": lambda row: [row[0], "2"] + row[2:],
    "bad float": lambda row: row[:2] + ["1.5x"] + row[3:],
    "nan": lambda row: row[:2] + ["nan"] + row[3:],
    "inf": lambda row: row[:-1] + ["-Infinity"],
    "underscore float": lambda row: row[:2] + ["1_0"] + row[3:],
    "double underscore float": lambda row: row[:2] + ["1__0"] + row[3:],
    "conflicting label": lambda row: [row[0], {"0": "1", "1": "NA", "NA": "0"}[row[1]]] + row[2:],
    "padded id and label": lambda row: [f" {row[0]}\t", f" {row[1].lower()} "] + row[2:],
    "multi-line id": lambda row: [row[0] + "\nx"] + row[1:],
    "oversized field": lambda row: row[:2] + ["1" * 131_073] + row[3:],
    "not UTF-8": lambda row: [row[0] + "\udcff"] + row[1:],
    "blank line": lambda row: [],
    "whitespace line": lambda row: ["  "],
}


@st.composite
def bag_csv_files(draw, chunk):
    """BAG_CSV bytes: some files span more than two chunks; a few records edited."""
    dim = draw(st.integers(1, 2))
    n_rows = draw(st.one_of(st.integers(0, 12), st.integers(2 * chunk + 1, 2 * chunk + 30)))
    n_bags = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bag_of_row = rng.integers(0, n_bags, n_rows)
    if draw(st.booleans()):
        bag_of_row.sort()  # each bag's rows contiguous
    labels = rng.choice(["0", "1", "NA"], n_bags)
    values = rng.standard_normal((n_rows, dim)) * 10.0 ** rng.integers(-5, 6, (n_rows, dim))
    rows = [[f"b{k}", labels[k], *map(repr, v.tolist())] for k, v in zip(bag_of_row, values)]

    edges = [0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, n_rows - 1]
    position = st.one_of(st.sampled_from(edges), st.integers(0, n_rows)).filter(lambda i: i >= 0)
    # Other faults often come first in the file, so a conflict is drawn more often.
    kind = st.one_of(st.just("conflicting label"), st.sampled_from(sorted(RECORD_EDITS)))
    edits = draw(st.dictionaries(position, kind, max_size=3))
    for at, kind in sorted(edits.items(), reverse=True):
        if kind in ("blank line", "whitespace line"):
            rows.insert(at, RECORD_EDITS[kind](None))
        elif at < n_rows:
            rows[at] = RECORD_EDITS[kind](rows[at])

    out = io.StringIO(newline="")
    writer = csv.writer(
        out,
        lineterminator=draw(st.sampled_from(["\n", "\r\n"])),
        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
    )
    writer.writerow(["bag_id", "label"] + [f"f{j + 1}" for j in range(dim)])
    writer.writerows(rows)
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + out.getvalue()).encode("utf-8", errors="surrogateescape")


class TestRoundTrip:
    def test_write_then_load_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        bags = []
        for i in range(5):
            label = None if i == 4 else (Label.POS if i % 2 else Label.NEG)
            bags.append(Bag(id=f"bag{i}", instances=rng.standard_normal((rng.integers(1, 7), 3)), label=label))
        ds = Dataset(bags=tuple(bags), dimension=3, name="round")
        path = tmp_path / "ds.csv"
        write_dataset(ds, path)
        back = load_dataset(path)
        assert [b.id for b in back.bags] == [b.id for b in ds.bags]
        assert [b.label for b in back.bags] == [b.label for b in ds.bags]
        for a, b in zip(ds.bags, back.bags):
            np.testing.assert_array_equal(a.instances, b.instances)

    def test_rewrite_is_byte_identical(self, tmp_path):
        path = write_csv(tmp_path, "bag_id,label,f1\nb1,1,0.5\nb2,0,0.125\n")
        ds = load_dataset(path)
        out1 = tmp_path / "o1.csv"
        out2 = tmp_path / "o2.csv"
        write_dataset(ds, out1)
        write_dataset(load_dataset(out1), out2)
        assert out1.read_bytes() == out2.read_bytes()


class TestBagInvariants:
    def test_rejects_nan(self):
        with pytest.raises(DatasetError, match="non-finite"):
            Bag(id="b", instances=np.array([[np.nan]]))

    def test_rejects_empty(self):
        with pytest.raises(DatasetError):
            Bag(id="b", instances=np.empty((0, 2)))

    def test_instances_read_only(self):
        bag = Bag(id="b", instances=np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            bag.instances[0, 0] = 9.0

    def test_dataset_dimension_consistency(self):
        b1 = Bag(id="a", instances=np.array([[1.0, 2.0]]))
        with pytest.raises(DatasetError, match="dimension"):
            Dataset(bags=(b1,), dimension=3)


def toy_dataset(points, label=Label.POS):
    bag = Bag(id="b0", instances=np.asarray(points, dtype=float), label=label)
    return Dataset(bags=(bag,), dimension=bag.dimension)


class TestFitPca:
    def test_axis_aligned_variance(self):
        ds = toy_dataset([(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)])
        t = fit_pca(ds, 1)
        np.testing.assert_allclose(t.components[0], [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(t.mean, [2.0, 0.0], atol=1e-12)

    def test_diagonal_line(self):
        # covariance [[1,1],[1,1]] has top eigenvector (1,1)/sqrt(2)
        ds = toy_dataset([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        t = fit_pca(ds, 1)
        np.testing.assert_allclose(t.components[0], [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(3)
        ds = toy_dataset(rng.standard_normal((40, 4)))
        t = fit_pca(ds, 4)
        x = ds.pooled_instances()
        centered = x - t.mean
        recon = t.project(x) @ t.components
        np.testing.assert_allclose(recon, centered, atol=1e-8)

    def test_degenerate_covariance(self):
        ds = toy_dataset([(1.0, 1.0)] * 5)
        with pytest.raises(ValueError, match="degenerate|identical"):
            fit_pca(ds, 1)

    def test_m_bounds(self):
        ds = toy_dataset([(1.0, 2.0), (3.0, 4.0), (0.0, 1.0)])
        with pytest.raises(ValueError):
            fit_pca(ds, 3)

    def test_sign_convention(self):
        rng = np.random.default_rng(7)
        ds = toy_dataset(rng.standard_normal((30, 3)) * [5.0, 1.0, 0.2])
        t = fit_pca(ds, 3)
        for row in t.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((60, 3))
        ds1 = toy_dataset(pts)
        ds2 = toy_dataset(pts[rng.permutation(60)])
        t1 = fit_pca(ds1, 3)
        t2 = fit_pca(ds2, 3)
        np.testing.assert_allclose(t1.components, t2.components, atol=1e-10)


class TestApplyPca:
    def test_hand_computed_projection(self):
        t_ds = toy_dataset([(1.0, 1.0), (3.0, 3.0)])
        t = fit_pca(t_ds, 1)
        projected = apply_pca(t, t_ds)
        np.testing.assert_allclose(
            sorted(projected.bags[0].column(0)), [-np.sqrt(2), np.sqrt(2)], atol=1e-12
        )

    def test_instance_at_mean_projects_to_zero(self):
        rng = np.random.default_rng(1)
        train = toy_dataset(rng.standard_normal((20, 2)))
        t = fit_pca(train, 2)
        probe = toy_dataset([tuple(t.mean)])
        out = apply_pca(t, probe)
        np.testing.assert_allclose(out.bags[0].instances, [[0.0, 0.0]], atol=1e-12)

    def test_projected_training_mean_zero_and_variance_sorted(self):
        rng = np.random.default_rng(2)
        train = toy_dataset(rng.standard_normal((100, 3)) * [2.0, 1.0, 0.3])
        t = fit_pca(train, 3)
        proj = apply_pca(t, train).pooled_instances()
        np.testing.assert_allclose(proj.mean(axis=0), 0.0, atol=1e-9)
        variances = proj.var(axis=0)
        assert np.all(np.diff(variances) <= 1e-12)

    def test_bag_structure_preserved(self):
        b1 = Bag(id="x", instances=np.array([[1.0, 0.0], [2.0, 1.0]]), label=Label.NEG)
        b2 = Bag(id="y", instances=np.array([[0.0, 5.0]]), label=None)
        ds = Dataset(bags=(b1, b2), dimension=2)
        t = fit_pca(ds, 1)
        out = apply_pca(t, ds)
        assert out.dimension == 1
        assert [b.id for b in out.bags] == ["x", "y"]
        assert out.bags[0].label == Label.NEG and out.bags[1].label is None

    def test_dimension_mismatch(self):
        ds2 = toy_dataset([(1.0, 2.0), (0.0, 1.0), (2.0, 0.0)])
        t = fit_pca(ds2, 2)
        ds3 = toy_dataset([(1.0, 2.0, 3.0)])
        with pytest.raises(ValueError, match="dimension"):
            apply_pca(t, ds3)
