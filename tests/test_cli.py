import json

import numpy as np
import pytest

from dualquant.cli import main
from dualquant.delaunay import triangulate
from dualquant.geometry import Grid, load_grid, save_grid
from dualquant.metrics import product_grid


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, (json.loads(out) if code == 0 else None), err


def test_train1d_uniform_optimum(capsys):
    code, doc, _ = run_json(capsys, "train1d", "--dist", "uniform:0,1",
                            "--n", "11")
    assert code == 0
    np.testing.assert_allclose(doc["points"], np.linspace(0, 1, 11),
                               atol=1e-8)
    assert doc["error"] == pytest.approx(1 / 600, abs=1e-10)
    assert doc["converged"]


def test_train1d_writes_grid_file(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, doc, _ = run_json(capsys, "train1d", "--dist", "uniform:0,1",
                            "--n", "5", "--out", str(out))
    assert code == 0
    grid, meta = load_grid(out)
    np.testing.assert_array_equal(grid.points[:, 0], doc["points"])
    assert meta["command"] == "train1d"


def test_missing_required_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "train1d", "--dist", "uniform:0,1")
    assert code == 2


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run(capsys, "nosuch")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["rate_table", "--dist", "uniform:0,1", "--sizes", "3,5,9"],
    ["export_svg", "--grid", "g.json", "--out", "g.svg"],
], ids=["rate_table", "export_svg"])
def test_underscore_spellings_are_unknown_commands(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "invalid choice" in err


@pytest.mark.parametrize("dist", ["bmsup", "uniform2d"])
def test_train1d_needs_a_1d_law_with_closed_forms(capsys, dist):
    code, _, err = run(capsys, "train1d", "--dist", dist, "--n", "5")
    assert code == 2
    assert "partial moments" in err


def test_nonconvergence_exits_one(capsys):
    code, _, err = run(capsys, "train1d", "--dist", "normal:0,1",
                       "--mode", "extended", "--n", "7", "--max-iter", "1")
    assert code == 1
    assert "error:" in err


def test_eval_exact_matches_formula(tmp_path, capsys):
    gp = tmp_path / "g.json"
    save_grid(Grid([0.0, 0.5, 1.0]), gp)
    code, doc, _ = run_json(capsys, "eval", "--grid", str(gp), "--dist",
                            "uniform:0,1", "--mode", "exact",
                            "--compare-voronoi")
    assert code == 0
    assert doc["dual"]["value"] == pytest.approx(1 / 24, abs=1e-12)
    assert doc["voronoi"]["value"] == pytest.approx(1 / 48, abs=1e-12)
    assert doc["dual_ge_voronoi"] is True
    assert set(doc["dual"]) == {"value", "std_error", "n_samples", "p",
                                "norm", "extended"}


def test_eval_exact_rejects_other_exponents(tmp_path, capsys):
    gp = tmp_path / "g.json"
    save_grid(Grid([0.0, 0.5, 1.0]), gp)
    code, _, _ = run(capsys, "eval", "--grid", str(gp), "--dist",
                     "uniform:0,1", "--mode", "exact", "--p", "3")
    assert code == 2


def test_eval_exact_takes_any_grid_order(tmp_path, capsys):
    docs = []
    for name, pts in (("sorted", [0.0, 0.3, 0.5, 1.0]),
                      ("shuffled", [0.5, 0.0, 1.0, 0.3])):
        gp = tmp_path / f"{name}.csv"
        save_grid(Grid(pts), gp)
        code, doc, _ = run_json(capsys, "eval", "--grid", str(gp), "--dist",
                                "uniform:0,1", "--mode", "exact",
                                "--compare-voronoi")
        assert code == 0
        docs.append(doc)
    assert docs[0] == docs[1]


def test_eval_exact_outside_hull_exits_one(tmp_path, capsys):
    gp = tmp_path / "g.json"
    save_grid(Grid([0.2, 0.8]), gp)
    code, _, err = run(capsys, "eval", "--grid", str(gp), "--dist",
                       "uniform:0,1", "--mode", "exact")
    assert code == 1
    assert "hull" in err


def test_eval_mc_seeded_and_thread_invariant(tmp_path, capsys):
    gp = tmp_path / "g.json"
    save_grid(Grid([0.0, 0.3, 1.0]), gp)
    argv = ("eval", "--grid", str(gp), "--dist", "uniform:0,1",
            "--samples", "30000", "--seed", "9")
    _, a, _ = run_json(capsys, *argv)
    _, b, _ = run_json(capsys, *argv)
    _, c, _ = run_json(capsys, *argv, "--threads", "3")
    assert a == b == c


def test_eval_extended_compare_voronoi_mc_is_thread_invariant(tmp_path,
                                                              capsys):
    # the README's eval command in Monte Carlo mode, on a 2D grid; past
    # one shard of samples, so the second thread takes a shard
    gp = tmp_path / "g.json"
    inner = np.random.default_rng(2).uniform(0.1, 0.9, size=(12, 2))
    save_grid(Grid(np.vstack([[[0, 0], [1, 0], [0, 1], [1, 1]], inner])), gp)
    argv = ("eval", "--grid", str(gp), "--dist", "normal2d", "--extended",
            "--samples", "70000", "--compare-voronoi", "--seed", "3",
            "--json")
    code, one, _ = run(capsys, *argv, "--threads", "1")
    assert code == 0
    assert json.loads(one)["dual_ge_voronoi"] is True
    assert run(capsys, *argv, "--threads", "2")[:2] == (0, one)


def test_eval_extended_on_normal_is_finite(tmp_path, capsys):
    gp = tmp_path / "g.json"
    save_grid(Grid([-1.0, 0.0, 1.5]), gp)
    code, doc, _ = run_json(capsys, "eval", "--grid", str(gp), "--dist",
                            "normal:0,1", "--extended", "--samples", "20000")
    assert code == 0
    assert np.isfinite(doc["dual"]["value"])


def test_eval_without_extended_fails_outside_hull(tmp_path, capsys):
    gp = tmp_path / "g.json"
    save_grid(Grid([-1.0, 0.0, 1.5]), gp)
    code, _, _ = run(capsys, "eval", "--grid", str(gp), "--dist",
                     "normal:0,1", "--samples", "20000")
    assert code == 1


def test_trainnd_reproducible_with_pins(tmp_path, capsys):
    ga, gb = tmp_path / "a.json", tmp_path / "b.json"
    argv = ("trainnd", "--dist", "uniform2d", "--n", "10", "--steps", "2000",
            "--pin", "corners", "--seed", "7", "--samples", "5000")
    code, da, _ = run_json(capsys, *argv, "--out", str(ga))
    assert code == 0
    code, db, _ = run_json(capsys, *argv, "--out", str(gb))
    assert code == 0
    assert da["error"] == db["error"]
    a, _ = load_grid(ga)
    b, _ = load_grid(gb)
    assert np.array_equal(a.points, b.points)
    assert a.pinned == {0, 1, 2, 3}
    corners = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
    assert {tuple(p) for p in a.points[:4]} == corners


def test_trainnd_explicit_pin_points(tmp_path, capsys):
    gp = tmp_path / "g.json"
    code, _, _ = run_json(capsys, "trainnd", "--dist", "uniform2d", "--n",
                          "6", "--steps", "500", "--pin", "0,0;1,1",
                          "--samples", "5000", "--out", str(gp))
    assert code == 0
    grid, _ = load_grid(gp)
    assert grid.pinned == {0, 1}


def test_cubature_quadratic_two_point(tmp_path, capsys):
    gp = tmp_path / "g.json"
    save_grid(Grid([0.0, 1.0]), gp)
    code, doc, _ = run_json(capsys, "cubature", "--grid", str(gp), "--dist",
                            "uniform:0,1", "--f", "quadratic",
                            "--samples", "200000")
    assert code == 0
    assert abs(doc["cubature_error"] - 1 / 6) <= 4 * doc["error_std"]
    assert doc["satisfied"]
    assert sum(doc["weights"]) == pytest.approx(1.0, abs=1e-12)
    assert doc["weights"][0] == pytest.approx(0.5, abs=0.01)


def test_cubature_affine_poly_error_vanishes(tmp_path, capsys):
    gp = tmp_path / "g.json"
    save_grid(Grid([0.0, 0.4, 1.0]), gp)
    code, doc, _ = run_json(capsys, "cubature", "--grid", str(gp), "--dist",
                            "uniform:0,1", "--f", "custom-poly:1,2",
                            "--samples", "100000")
    assert code == 0
    assert doc["f_prime_lipschitz"] == 0.0
    assert doc["cubature_error"] <= 4 * doc["error_std"]


def test_cubature_seeded_and_thread_invariant_across_shards(tmp_path, capsys):
    gp = tmp_path / "g.json"
    save_grid(Grid([[0.2, 0.2], [0.9, 0.1], [0.5, 0.9], [0.5, 0.5]]), gp)
    argv = ("cubature", "--grid", str(gp), "--dist", "uniform2d", "--f",
            "cos", "--extended", "--samples", "70000", "--seed", "5")
    for extra in ((), ("--json",)):  # 70000 samples: two shards
        code, a, _ = run(capsys, *argv, *extra)
        _, b, _ = run(capsys, *argv, *extra, "--threads", "3")
        assert code == 0 and a == b


def test_cubature_one_sample_is_a_usage_error(tmp_path, capsys):
    gp = tmp_path / "g.json"
    save_grid(Grid([0.0, 1.0]), gp)
    code, _, err = run(capsys, "cubature", "--grid", str(gp), "--dist",
                       "uniform:0,1", "--f", "cos", "--samples", "1")
    assert code == 2 and "two samples" in err


def test_cubature_unknown_integrand(tmp_path, capsys):
    gp = tmp_path / "g.json"
    save_grid(Grid([0.0, 1.0]), gp)
    code, _, _ = run(capsys, "cubature", "--grid", str(gp), "--dist",
                     "uniform:0,1", "--f", "sinh")
    assert code == 2


def test_cubature_exp_needs_lip_without_support(tmp_path, capsys):
    gp = tmp_path / "g.json"
    save_grid(Grid([-1.0, 0.0, 1.0]), gp)
    code, _, _ = run(capsys, "cubature", "--grid", str(gp), "--dist",
                     "normal:0,1", "--f", "exp", "--extended",
                     "--samples", "1000")
    assert code == 2
    code, _, _ = run(capsys, "cubature", "--grid", str(gp), "--dist",
                     "normal:0,1", "--f", "exp", "--lip", "30",
                     "--extended", "--samples", "1000")
    assert code == 0


def test_rate_table_theoretical_slope(capsys):
    code, doc, _ = run_json(capsys, "rate-table", "--dist", "uniform:0,1",
                            "--sizes", "3,5,9,17")
    assert code == 0
    assert doc["slope"] == pytest.approx(-1.0, abs=1e-9)
    assert len(doc["rows"]) == 4


def test_rate_table_product_slope(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code, doc, _ = run_json(capsys, "rate-table", "--dist", "uniform2d",
                            "--kind", "product", "--sizes", "1,2,4",
                            "--samples", "20000", "--out", str(out))
    assert code == 0
    assert doc["slope"] == pytest.approx(-0.5, abs=0.1)
    text = out.read_text().splitlines()
    assert text[0] == "n,size,err_root,scaled"
    assert len(text) == 4


def test_rate_table_theoretical_needs_bounded_support(capsys):
    code, _, err = run(capsys, "rate-table", "--dist", "exponential:1",
                       "--sizes", "3,5,9")
    assert code == 2
    assert "bounded support" in err


def test_rate_table_single_row_errors(capsys):
    code, _, _ = run(capsys, "rate-table", "--dist", "uniform:0,1",
                     "--sizes", "5")
    assert code == 2


def test_export_svg_structure(tmp_path, capsys):
    grid = product_grid(([0.0, 0.0], [1.0, 1.0]), 3)
    gp = tmp_path / "g.json"
    save_grid(grid, gp)
    out = tmp_path / "fig.svg"
    code, doc, _ = run_json(capsys, "export-svg", "--grid", str(gp),
                            "--out", str(out))
    assert code == 0
    svg = out.read_text()
    assert svg.count("<circle") == grid.n == 16
    tri = triangulate(grid)
    edges = {(min(a, b), max(a, b)) for t in tri.triangles
             for a, b in zip(t, t[1:] + t[:1])}
    assert svg.count("<line") == len(edges)
    assert 'class="hull"' in svg
    csv_path = tmp_path / "fig.csv"
    assert csv_path.exists()
    re_grid, _ = load_grid(csv_path)
    assert np.array_equal(re_grid.points, grid.points)


def test_export_svg_rejects_non_planar(tmp_path, capsys):
    gp = tmp_path / "g.json"
    save_grid(Grid([0.0, 0.5, 1.0]), gp)
    code, _, _ = run(capsys, "export-svg", "--grid", str(gp), "--out",
                     str(tmp_path / "fig.svg"))
    assert code == 2


def test_export_svg_bmsup_trained_grid(tmp_path, capsys):
    gp = tmp_path / "bm.json"
    code, _, _ = run(capsys, "trainnd", "--dist", "bmsup", "--n", "12",
                     "--steps", "4000", "--seed", "1", "--samples", "5000",
                     "--out", str(gp))
    assert code == 0
    code, _, _ = run(capsys, "export-svg", "--grid", str(gp), "--out",
                     str(tmp_path / "bm.svg"))
    assert code == 0
    grid, _ = load_grid(gp)
    b, m = grid.points[:, 0], grid.points[:, 1]
    assert np.all(m >= np.maximum(b, 0.0))


def test_config_file_overlay(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=5\nmode=compact\n")
    code, doc, _ = run_json(capsys, "train1d", "--dist", "uniform:0,1",
                            "--config", str(cfg))
    assert code == 0
    assert len(doc["points"]) == 5
    # explicit flags after --config win
    code, doc, _ = run_json(capsys, "train1d", "--dist", "uniform:0,1",
                            "--config", str(cfg), "--n", "3")
    assert code == 0
    assert len(doc["points"]) == 3


def test_config_missing_file(capsys):
    code, _, _ = run(capsys, "train1d", "--dist", "uniform:0,1", "--n", "3",
                     "--config", "/nonexistent.cfg")
    assert code == 2


def test_effective_config_logged(tmp_path, capsys):
    gp = tmp_path / "g.json"
    save_grid(Grid([0.0, 1.0]), gp)
    code, _, err = run(capsys, "eval", "--grid", str(gp), "--dist",
                       "uniform:0,1", "--samples", "5000", "--seed", "3")
    assert code == 0
    line = next(l for l in err.splitlines() if l.startswith("config: "))
    cfg = json.loads(line[len("config: "):])
    assert cfg["command"] == "eval"
    assert cfg["seed"] == 3
    assert cfg["samples"] == 5000


def test_config_equals_form(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=4\n")
    code, doc, _ = run_json(capsys, "train1d", "--dist", "uniform:0,1",
                            f"--config={cfg}")
    assert code == 0
    assert len(doc["points"]) == 4


def test_config_without_file_is_usage_error(capsys):
    code, _, err = run(capsys, "train1d", "--dist", "uniform:0,1", "--n",
                       "3", "--config")
    assert code == 2
    assert "--config needs a file argument" in err


def test_config_with_empty_path_is_usage_error(capsys):
    code, _, err = run(capsys, "train1d", "--config=")
    assert code == 2
    assert "--config needs a file argument" in err


def test_config_line_without_equals_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=3\njust words\n")
    code, _, err = run(capsys, "train1d", "--dist", "uniform:0,1",
                       "--config", str(cfg))
    assert code == 2
    assert "not key=value" in err


def test_config_booleans_and_comments(tmp_path, capsys):
    gp = tmp_path / "g.json"
    save_grid(Grid([0.0, 0.5, 1.0]), gp)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# exact errors\n\ngrid = {gp}\ndist=uniform:0,1\n"
                   "mode=exact\nextended = TRUE\ncompare_voronoi=false\n"
                   "# compare_voronoi=true\n")
    code, doc, err = run_json(capsys, "eval", "--config", str(cfg))
    assert code == 0
    assert doc["dual"]["extended"] is True
    assert "voronoi" not in doc
    line = next(l for l in err.splitlines() if l.startswith("config: "))
    logged = json.loads(line[len("config: "):])
    assert logged["extended"] is True
    assert logged["compare_voronoi"] is False


@pytest.mark.parametrize("f, dist, lip", [
    ("quadratic", "uniform2d", 2.0),
    ("cos", "uniform2d", 2.0),
    ("exp", "uniform2d", 2.0 * np.exp(2.0)),
    ("custom-poly:1,2", "uniform2d", 0.0),
    ("custom-poly:1,2", "normal2d", 0.0),  # affine: no support needed
    ("custom-poly:1,2,3", "uniform2d", 12.0),
])
def test_cubature_derived_and_flagged_lipschitz(tmp_path, capsys, f, dist,
                                                lip):
    gp = tmp_path / "g.json"
    save_grid(product_grid((np.zeros(2), np.ones(2)), 3), gp)
    argv = ("cubature", "--grid", str(gp), "--dist", dist, "--f", f,
            "--samples", "2000", "--extended")
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0
    assert doc["f_prime_lipschitz"] == pytest.approx(lip, rel=1e-12)
    code, doc, _ = run_json(capsys, *argv, "--lip", "5")
    assert code == 0
    assert doc["f_prime_lipschitz"] == 5.0


def test_cubature_lip_flag_skips_the_support_box(tmp_path, capsys):
    gp = tmp_path / "g.json"
    save_grid(product_grid((np.zeros(2), np.ones(2)), 3), gp)
    argv = ("cubature", "--grid", str(gp), "--dist", "normal2d", "--f",
            "exp", "--samples", "2000", "--extended")
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "without --lip" in err
    code, doc, _ = run_json(capsys, *argv, "--lip", "5")
    assert code == 0
    assert doc["f_prime_lipschitz"] == 5.0


def test_eval_exact_records_have_no_sampling(tmp_path, capsys):
    gp = tmp_path / "g.json"
    save_grid(Grid([0.0, 0.3, 1.0]), gp)
    code, doc, _ = run_json(capsys, "eval", "--grid", str(gp), "--dist",
                            "normal:0,1", "--mode", "exact", "--extended",
                            "--compare-voronoi")
    assert code == 0
    for key, extended in (("dual", True), ("voronoi", True)):
        rec = doc[key]
        assert (rec["std_error"], rec["n_samples"]) == (0.0, 0)
        assert rec["extended"] is extended
        assert (rec["p"], rec["norm"]) == (2.0, "l2")


def test_trainnd_repeated_pins_are_usage_errors(capsys):
    code, _, err = run(capsys, "trainnd", "--dist", "uniform2d", "--pin",
                       "0,0;0,0;1,1", "--n", "8", "--steps", "50",
                       "--samples", "500")
    assert code == 2
    assert "anchor (0.0, 0.0) is repeated" in err


@pytest.mark.parametrize("suffix", [".json", ".csv"])
@pytest.mark.parametrize("bad", [[1.0, 0.0], [float("nan"), 0.5]],
                         ids=["repeated", "non-finite"])
def test_eval_grid_file_with_points_grid_rejects_is_a_usage_error(
        tmp_path, capsys, suffix, bad):
    points = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], bad]
    path = tmp_path / f"g{suffix}"
    if suffix == ".json":
        path.write_text(json.dumps({"dim": 2, "n": 4, "points": points}))
    else:
        path.write_text("x0,x1\n" + "".join(f"{x},{y}\n" for x, y in points))
    code, _, err = run(capsys, "eval", "--grid", str(path), "--dist",
                       "uniform2d", "--samples", "500")
    assert code == 2
    assert f"error: grid file {path}:" in err


@pytest.mark.parametrize("pin", ["0,0,0;1,1,1", "0,0;1"])
def test_trainnd_pins_of_the_wrong_dimension_are_usage_errors(capsys, pin):
    code, _, err = run(capsys, "trainnd", "--dist", "uniform2d", "--pin",
                       pin, "--n", "8", "--steps", "50", "--samples", "500")
    assert code == 2
    assert "every anchor needs d = 2 coordinates" in err
