import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualquant.errors import DegenerateGeometryError, GridFormatError
from dualquant.geometry import (
    Grid,
    NormSpec,
    circumcenter,
    in_convex_hull,
    is_affine_basis,
    load_grid,
    norm_value_batch,
    save_grid,
)

seed = 20260817


def test_norm_value_examples():
    rows = [[3.0, 4.0], [1.0, -2.0], [1.0, -2.0], [0.0, 0.0]]
    specs = [NormSpec("l2", 2), NormSpec("l1", 1), NormSpec("linf", 2),
             NormSpec("l2", 3)]
    want = [25.0, 3.0, 4.0, 0.0]
    for row, spec, w in zip(rows, specs, want):
        assert norm_value_batch([row], spec)[0] == pytest.approx(w, abs=0)
    both = norm_value_batch(rows[:2], NormSpec("l2", 2))
    assert both.tolist() == [25.0, 5.0]


@given(
    st.lists(st.floats(-10, 10), min_size=2, max_size=4),
    st.floats(-5, 5),
    st.sampled_from(["l1", "l2", "linf"]),
    st.sampled_from([1.0, 2.0, 2.5]),
)
@settings(max_examples=200, deadline=None)
def test_norm_value_homogeneous_and_nonnegative(xs, t, kind, p):
    spec = NormSpec(kind, p)
    x = np.asarray(xs)
    v, scaled = norm_value_batch([x, t * x], spec)
    assert v >= 0.0
    assert scaled == pytest.approx(abs(t) ** p * v, rel=1e-12, abs=1e-12)


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        NormSpec("l3", 2)
    with pytest.raises(ValueError):
        NormSpec("l2", 0.5)


def test_grid_validation():
    with pytest.raises(DegenerateGeometryError):
        Grid([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        Grid([[np.inf, 0.0]])
    with pytest.raises(ValueError):
        Grid([[0.0], [1.0]], pinned=(5,))
    g = Grid([0.0, 1.0, 2.0])  # 1-D input becomes an (n, 1) grid
    assert g.dim == 1 and g.n == 3


def test_is_affine_basis_examples():
    square = Grid([[0, 0], [1, 0], [0, 1], [1, 1]])
    assert is_affine_basis(square, (0, 1, 3))
    collinear = Grid([[0, 0], [1, 1], [2, 2], [0, 1]])
    assert not is_affine_basis(collinear, (0, 1, 2))
    assert not is_affine_basis(square, (0, 1, 1))  # repeated index
    assert not is_affine_basis(square, (0, 1, 9))  # out of range


def test_in_convex_hull():
    square = Grid([[0, 0], [1, 0], [0, 1], [1, 1]])
    assert in_convex_hull(square, np.array([0.5, 0.5]))
    assert in_convex_hull(square, np.array([0.5, 0.0]))  # boundary
    assert not in_convex_hull(square, np.array([2.0, 2.0]))
    line = Grid([[0.0], [1.0]])
    assert in_convex_hull(line, np.array([0.5]))
    assert not in_convex_hull(line, np.array([-0.1]))


def test_circumcenter_right_triangle():
    z, r = circumcenter([[0, 0], [1, 0], [0, 1]])
    assert np.allclose(z, [0.5, 0.5], atol=1e-12)
    assert r == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_circumcenter_equilateral():
    pts = [[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]]
    z, r = circumcenter(pts)
    assert r == pytest.approx(1 / math.sqrt(3), abs=1e-12)
    for v in pts:
        assert np.linalg.norm(z - np.asarray(v)) == pytest.approx(r, abs=1e-12)


def test_circumcenter_degenerate():
    with pytest.raises(DegenerateGeometryError):
        circumcenter([[0, 0], [1, 1], [2, 2]])


@pytest.mark.parametrize("d", [2, 3])
def test_circumcenter_equidistance_random(d):
    rng = np.random.default_rng(seed + d)
    for _ in range(50):
        pts = rng.normal(size=(d + 1, d)) * 4
        try:
            z, r = circumcenter(pts)
        except DegenerateGeometryError:
            continue
        dev = max(abs(np.linalg.norm(z - p) - r) for p in pts)
        assert dev <= 1e-9 * (1 + r)


@pytest.mark.parametrize("ext", [".json", ".csv"])
def test_grid_roundtrip_bit_identical(tmp_path, ext):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(17, 2)) * np.pi
    g = Grid(pts, pinned=(0, 3))
    path = tmp_path / f"grid{ext}"
    save_grid(g, path, meta={"distribution": "normal2d", "p": 2, "norm": "l2"})
    g2, meta = load_grid(path)
    assert np.array_equal(g2.points, g.points)  # bit-for-bit
    if ext == ".json":
        assert g2.pinned == g.pinned
        assert meta["distribution"] == "normal2d"
        assert meta["p"] == 2


def test_grid_csv_headerless(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("0.0,0.0\n1.0,0.5\n")
    g, meta = load_grid(path)
    assert g.n == 2 and g.dim == 2
    assert meta == {}


def test_grid_file_errors(tmp_path):
    with pytest.raises(GridFormatError):
        load_grid(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "n": 3, "points": [[0, 0]]}')
    with pytest.raises(GridFormatError):
        load_grid(bad)
    with pytest.raises(GridFormatError):
        save_grid(Grid([[0.0]]), tmp_path / "grid.xyz")


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_duplicate_rows_raise_in_any_order(seed, d):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(25, d))
    if d > 1:
        pts[:, 0] = np.round(pts[:, 0])  # shared first coordinates
    Grid(pts)
    pts = np.vstack([pts, pts[rng.integers(25)]])
    with pytest.raises(DegenerateGeometryError):
        Grid(pts[rng.permutation(len(pts))])


def test_grid_signed_zero_is_a_duplicate_and_one_ulp_is_not():
    with pytest.raises(DegenerateGeometryError):
        Grid([[0.0, 1.0], [2.0, 3.0], [-0.0, 1.0]])
    with pytest.raises(DegenerateGeometryError):
        Grid([0.0, 0.5, -0.0])
    up = np.nextafter(0.7, 1.0)
    assert Grid([[0.7, 1.0], [up, 1.0], [0.7, np.nextafter(1.0, 0.0)]]).n == 3
    assert Grid([0.0, np.nextafter(0.0, 1.0), np.nextafter(0.0, -1.0)]).n == 3
