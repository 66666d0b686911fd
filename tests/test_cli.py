"""CLI and grid I/O: round trips, determinism, exit codes, file contents."""

import ast
import concurrent.futures
import contextlib
import csv
import importlib
import io
import json
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cinar import (
    CinarParams,
    CountGrid,
    ModelOrder,
    NbMarginalInnovation,
    PoissonInnovation,
    SimConfig,
    ValidationError,
    cml_estimate,
    read_grid,
    run_study,
    sample_acf,
    simulate_cinar,
    stationary_moments,
    theoretical_acf,
    write_grid,
    yw_estimate,
)
from cinar import gridio
from cinar.cli import main
from cinar.simstudy import StudyArm, parse_arm, replication_seed, write_study_csv


def _simulate_csv(tmp_path, name="grid.csv", n=(30, 30), seed=42,
                  theta="0.1,0.1,0.1"):
    path = tmp_path / name
    rc = main(["simulate", "--order", "1,1", "--theta", theta,
               "--mu-eps", "1.0", "--n", f"{n[0]},{n[1]}",
               "--seed", str(seed), "--out", str(path)])
    assert rc == 0
    return path


# =============================================================================
# Grid I/O
# =============================================================================


class TestGridIo:
    def test_write_read_round_trip(self, tmp_path):
        """read_grid(write_grid(g)) reproduces the array exactly."""
        values = np.random.default_rng(3).poisson(2.0, size=(17, 9))
        grid = CountGrid(values)
        path = tmp_path / "g.csv"
        write_grid(grid, path)
        back = read_grid(path)
        np.testing.assert_array_equal(back.values, values)

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("c1,c2,c3\n1,2,3\n4,5,6\n")
        grid = read_grid(path, header=True)
        np.testing.assert_array_equal(grid.values, [[1, 2, 3], [4, 5, 6]])

    def test_non_integer_cell_located(self, tmp_path):
        """Rejection names the 1-based file row and column.  A cell is
        ASCII digits only: Python's ``int`` also reads digit separators,
        a plus sign and non-ASCII digits (U+0663 is an Arabic-Indic 3)."""
        path = tmp_path / "g.csv"
        for text, cell in [("1,2\n3,4.5\n", "4.5"), ("1,2\n3,1_0\n", "1_0"),
                           ("1,2\n3,+5\n", "+5"), ("1,2\n3,٣\n", "٣"),
                           ("1,2\n3,-0\n", "-0"), ("1,2\n3, \n", "")]:
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ValidationError, match=re.escape(
                    f"non-integer cell {cell!r} at row 2, column 2")):
                read_grid(path)

    def test_negative_cell_located(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("1,2\n-3,4\n")
        with pytest.raises(ValidationError, match=r"negative.*row 2, column 1"):
            read_grid(path)

    def test_count_beyond_int64_located(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("1,2\n3,99999999999999999999\n")
        with pytest.raises(ValidationError, match=r"int64 at row 2, column 2"):
            read_grid(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ValidationError, match="ragged"):
            read_grid(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("")
        with pytest.raises(ValidationError, match="empty"):
            read_grid(path)

    def test_missing_file_is_validation(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            read_grid(tmp_path / "absent.csv")

    def test_blank_trailing_line_ignored(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("1,2\n3,4\n\n")
        assert read_grid(path).values.shape == (2, 2)

    def test_undecodable_file_named(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_bytes(b"\xff\xfe1,2\n3,4\n")
        with pytest.raises(ValidationError, match="g.csv: not UTF-8"):
            read_grid(path)


# cells the plain path must read (True) or leave to the locating path
_PLAIN_CELLS = st.one_of(st.integers(0, 10**6).map(str),
                         st.integers(0, 10**6).map("{:07d}".format),
                         st.just(str(np.iinfo(np.int64).max)),
                         st.sampled_from([" 5", "6\t", "\t 7 "])).map(
                             lambda cell: (cell, True))
_ODD_CELLS = st.sampled_from(["", " ", str(2**63), "1" * 30, "-3", "+4", "1 2",
                              "4.5", '"5"', "\u0663", "\xe9", "\x00"]).map(
                                  lambda cell: (cell, False))


@st.composite
def _grid_file(draw):
    """(bytes of a grid file, header flag, whether it is plain): blank and
    whitespace-only records, CR, LF and CRLF line ends, tabs, leading
    zeros, int64 max and beyond, empty cells, trailing commas, ragged
    rows, quotes, non-ASCII and non-UTF-8 bytes."""
    plain = True
    header = draw(st.booleans())
    lines = []
    if header:
        text = draw(st.sampled_from(["c1,c2", "t,x\te", "\xe9,\xfc", '"a,b"',
                                     '"a\nb",c', "", "a\x00b"]))
        plain = '"' not in text and "\x00" not in text
        lines.append(text.encode())
        if draw(st.integers(0, 9)) == 0:
            lines[0] += b"\xff"
            plain = False
    width, widths = draw(st.integers(1, 4)), set()
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from([b"", b" ", b"\t", b" , ", b",,"])))
            continue
        n_cells = width + (draw(st.sampled_from([-1, 1]))
                           if draw(st.integers(0, 9)) == 0 else 0)
        cells = [draw(_PLAIN_CELLS if draw(st.integers(0, 19)) else _ODD_CELLS)
                 for _ in range(max(n_cells, 1))]
        line = ",".join(cell for cell, _ in cells)
        if draw(st.integers(0, 9)) == 0:
            line, cells = line + ",", cells + [("", False)]
        lines.append(line.encode())
        if line.strip(" \t,"):  # else a blank record, skipped
            plain = plain and all(ok for _, ok in cells)
            widths.add(len(cells))
    ends = [draw(st.sampled_from([b"\n", b"\r\n", b"\r"])) for _ in lines]
    data = b"".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        data = data[:-len(ends[-1])]
    return data, header, plain and len(widths) == 1


def _outcome(read):
    """The int64 array ``read()`` returns, or the message it refuses with."""
    try:
        return read()
    except ValidationError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(case=_grid_file())
def test_plain_and_located_reads_agree(case, tmp_path_factory):
    """read_grid, which tries one np.loadtxt first, gives the grid or the
    refusal that the locating CSV reader alone gives; and it takes the
    loadtxt path whenever the file is plain."""
    data, header, plain = case
    path = tmp_path_factory.mktemp("grid") / "g.csv"
    path.write_bytes(data)
    fast = gridio._plain_counts(data, header)
    assert (fast is not None) == plain
    located = _outcome(lambda: CountGrid(
        gridio._located_counts(path, data, header)).values)
    got = _outcome(lambda: read_grid(path, header=header).values)
    if isinstance(located, str):
        assert got == located
    else:
        assert got.dtype == located.dtype == np.int64
        np.testing.assert_array_equal(got, located)
    if fast is not None:
        assert fast.dtype == np.int64
        np.testing.assert_array_equal(fast, located)


# =============================================================================
# simulate command
# =============================================================================


class TestCmdSimulate:
    def test_rerun_is_bit_identical(self, tmp_path):
        """Same arguments and seed produce byte-identical grid files."""
        a = _simulate_csv(tmp_path, "a.csv")
        b = _simulate_csv(tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_grid_matches_library_call(self, tmp_path):
        path = _simulate_csv(tmp_path, seed=11, n=(20, 25))
        params = CinarParams(ModelOrder(1, 1), np.array([0.1, 0.1, 0.1]),
                             PoissonInnovation(1.0))
        direct = simulate_cinar(SimConfig(params, 20, 25, seed=11))
        np.testing.assert_array_equal(read_grid(path).values, direct.values)

    def test_metadata_records_full_config(self, tmp_path):
        path = _simulate_csv(tmp_path, seed=5)
        meta = json.loads((tmp_path / "grid.meta.json").read_text())
        assert meta["schema"] == "cinar.simulate.v1"
        cfg = meta["config"]
        assert cfg["order"] == [1, 1]
        assert cfg["theta"] == [0.1, 0.1, 0.1]
        assert cfg["seed"] == 5
        assert cfg["burn_in"] == 100
        assert cfg["family"] == "poisson"

    def test_nb_family_dispersion(self, tmp_path):
        """A big NB run shows the stationary dispersion index, +-0.05."""
        path = tmp_path / "nb.csv"
        rc = main(["simulate", "--order", "1,1", "--theta", "0.2,0.2,0.1",
                   "--family", "nb", "--mu-eps", "1.0", "--i-eps", "2.0",
                   "--n", "500,500", "--seed", "4", "--out", str(path)])
        assert rc == 0
        grid = read_grid(path)
        params = CinarParams(
            ModelOrder(1, 1), np.array([0.2, 0.2, 0.1]),
            NbMarginalInnovation.from_targets(1.0, 2.0, 0.5))
        mu, sigma2 = stationary_moments(params)
        empirical = np.var(grid.values) / np.mean(grid.values)
        assert empirical == pytest.approx(sigma2 / mu, abs=0.05)

    def test_validation_error_before_output(self, tmp_path):
        """An invalid model writes nothing at all, then exits 2."""
        out = tmp_path / "never.csv"
        rc = main(["simulate", "--order", "1,1", "--theta", "0.9,0.9,0.9",
                   "--mu-eps", "1.0", "--n", "5,5", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert not (tmp_path / "never.meta.json").exists()

    def test_tobit_signs(self, tmp_path):
        """--signs switches to the censored recursion (still deterministic)."""
        out = tmp_path / "tob.csv"
        args = ["simulate", "--order", "1,1", "--theta", "0.2,0.2,0.1",
                "--mu-eps", "1.0", "--signs", "+,-,+", "--n", "25,25",
                "--seed", "13", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first
        plain = _simulate_csv(tmp_path, "plain.csv", n=(25, 25), seed=13,
                              theta="0.2,0.2,0.1")
        assert plain.read_bytes() != first

    def test_bad_signs_token(self, tmp_path):
        rc = main(["simulate", "--order", "1,1", "--theta", "0.1,0.1,0.1",
                   "--mu-eps", "1.0", "--signs", "+,0,-", "--n", "5,5",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2


# =============================================================================
# fit command
# =============================================================================


class TestCmdFit:
    def test_wrapper_identity_with_library(self, tmp_path):
        """The JSON fit equals the corresponding library call exactly."""
        path = _simulate_csv(tmp_path, seed=9)
        out = tmp_path / "fit.json"
        rc = main(["fit", "--grid", str(path), "--order", "1,1",
                   "--method", "yw,cml", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "cinar.fit.v1"
        grid = read_grid(path)
        lib_yw = yw_estimate(grid, ModelOrder(1, 1))
        lib_cml = cml_estimate(grid, ModelOrder(1, 1))
        by_method = {f["method"]: f for f in payload["fits"]}
        np.testing.assert_array_equal(by_method["YW"]["estimates"],
                                      lib_yw.estimates)
        np.testing.assert_array_equal(by_method["CML"]["estimates"],
                                      lib_cml.estimates)
        assert by_method["CML"]["loglik"] == lib_cml.loglik
        np.testing.assert_array_equal(by_method["CML"]["std_errors"],
                                      lib_cml.std_errors)
        assert by_method["YW"]["std_errors"] is None

    def test_diagnostics_block_is_additive(self, tmp_path):
        """The fit JSON keeps its diagnostics keys and adds the new ones."""
        path = _simulate_csv(tmp_path, seed=9)
        out = tmp_path / "fit.json"
        assert main(["fit", "--grid", str(path), "--order", "1,1",
                     "--method", "cls,cml", "--out", str(out)]) == 0
        by_method = {f["method"]: f["diagnostics"]
                     for f in json.loads(out.read_text())["fits"]}
        lib = cml_estimate(read_grid(path), ModelOrder(1, 1)).diagnostics
        cml = by_method["CML"]
        assert list(cml) == ["n_iter", "converged", "grad_norm", "n_fev",
                             "n_grad", "message", "se_error", "at_bounds"]
        assert (cml["n_iter"], cml["converged"], cml["grad_norm"]) == (
            lib.n_iter, lib.converged, lib.grad_norm)
        assert (cml["n_fev"], cml["n_grad"], cml["message"]) == (
            lib.n_fev, lib.n_grad, lib.message)
        assert cml["n_fev"] >= cml["n_grad"] > 0
        assert cml["se_error"] is None
        assert cml["at_bounds"] == list(lib.at_bounds) == []
        assert by_method["CLS"] == {
            "n_iter": 0, "converged": True, "grad_norm": None, "n_fev": 0,
            "n_grad": 0, "message": None, "se_error": None, "at_bounds": []}

    def test_cml_starts_from_the_cls_fit(self, tmp_path, monkeypatch):
        """yw,cls,cml solves CLS once; its CML block equals a cml-only run's."""
        import cinar.cli as cli_module
        import cinar.estimate as estimate_module

        path = _simulate_csv(tmp_path, seed=9)
        solve = estimate_module.cls_estimate
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli_module, "cls_estimate", counting)
        monkeypatch.setattr(estimate_module, "cls_estimate", counting)
        blocks = {}
        for methods in ("yw,cls,cml", "cml"):
            out = tmp_path / f"{methods}.json"
            calls.clear()
            assert main(["fit", "--grid", str(path), "--order", "1,1",
                         "--method", methods, "--out", str(out)]) == 0
            assert len(calls) == 1
            blocks[methods] = json.loads(out.read_text())["fits"][-1]
        assert blocks["cml"]["method"] == "CML"
        assert blocks["yw,cls,cml"] == blocks["cml"]

    def test_fix_pins_coefficient_to_zero(self, tmp_path):
        path = _simulate_csv(tmp_path, seed=21, theta="0.25,0.35,0.0")
        out = tmp_path / "fit.json"
        rc = main(["fit", "--grid", str(path), "--order", "1,1",
                   "--method", "cml", "--fix", "theta11=0", "--out", str(out)])
        assert rc == 0
        fit = json.loads(out.read_text())["fits"][0]
        idx = fit["names"].index("theta_11")
        assert fit["estimates"][idx] == 0.0
        assert fit["std_errors"][idx] == 0.0
        assert fit["n_free_params"] == 3

    def test_fix_requires_cml(self, tmp_path):
        path = _simulate_csv(tmp_path, seed=2)
        rc = main(["fit", "--grid", str(path), "--order", "1,1",
                   "--method", "yw", "--fix", "theta11=0",
                   "--out", str(tmp_path / "f.json")])
        assert rc == 2

    def test_fix_to_nonzero_rejected(self, tmp_path):
        path = _simulate_csv(tmp_path, seed=2)
        rc = main(["fit", "--grid", str(path), "--order", "1,1",
                   "--fix", "theta11=0.5", "--out", str(tmp_path / "f.json")])
        assert rc == 2

    def test_fix_of_a_loose_name_exits_2(self, tmp_path, capsys):
        """'a1b1' holds two digits but names no coefficient: refused, not
        read as theta_11."""
        path = _simulate_csv(tmp_path, seed=3, theta="0.3,0.3,0.1")
        out = tmp_path / "f.json"
        rc = main(["fit", "--grid", str(path), "--order", "1,1",
                   "--method", "cml", "--fix", "a1b1=0", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "cannot parse fixed coefficient 'a1b1'" in err[0]
        assert not out.exists()

    def test_coefficient_fixed_twice_exits_2(self, tmp_path, capsys):
        """Two spellings of one lag are refused, not counted twice among
        the pinned coefficients."""
        path = _simulate_csv(tmp_path, seed=3, theta="0.3,0.3,0.1")
        rc = main(["fit", "--grid", str(path), "--order", "1,1",
                   "--method", "cml", "--fix", "theta11=0,theta_11=0",
                   "--out", str(tmp_path / "f.json")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "theta_11" in err[0] and "twice" in err[0]

    def test_start_on_the_wall_exits_3(self, tmp_path, capsys):
        """A grid with a 400 of all-zero past, whose conditional probability
        at the CML start is below the float range, fits: exit 0, nothing on
        stderr, and a converged fit with a finite log-likelihood."""
        values = np.ones((12, 12), dtype=int)
        values[5, 6] = values[6, 5] = values[5, 5] = 0
        values[6, 6] = 400
        path = tmp_path / "wall.csv"
        write_grid(CountGrid(values), path)
        rc = main(["fit", "--grid", str(path), "--order", "1,1",
                   "--method", "cml", "--out", str(tmp_path / "f.json")])
        assert rc == 0
        assert capsys.readouterr().err == ""
        (cml,) = json.loads((tmp_path / "f.json").read_text())["fits"]
        assert cml["diagnostics"]["converged"] and np.isfinite(cml["loglik"])

    def test_missing_grid_file_exits_2(self, tmp_path, capsys):
        rc = main(["fit", "--grid", str(tmp_path / "none.csv"),
                   "--order", "1,1", "--out", str(tmp_path / "f.json")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_count_beyond_int64_exits_2(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("1,2,3\n4,99999999999999999999,6\n7,8,9\n")
        rc = main(["fit", "--grid", str(path), "--order", "1,1",
                   "--out", str(tmp_path / "f.json")])
        assert rc == 2
        assert "row 2, column 2" in capsys.readouterr().err
        assert not (tmp_path / "f.json").exists()

    def test_fewer_sites_than_parameters_exits_2(self, tmp_path, capsys):
        path = tmp_path / "small.csv"
        path.write_text("300,412\n488,350\n317,500\n")
        rc = main(["fit", "--grid", str(path), "--order", "2,1",
                   "--method", "cml", "--out", str(tmp_path / "f.json")])
        assert rc == 2
        assert "1 interior site(s) for 6 free parameters" in capsys.readouterr().err

    def test_constant_grid_exits_2(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("\n".join(["2,2,2,2"] * 6) + "\n")
        rc = main(["fit", "--grid", str(path), "--order", "1,1",
                   "--method", "yw", "--out", str(tmp_path / "f.json")])
        assert rc == 2
        assert not (tmp_path / "f.json").exists()


# =============================================================================
# acf command
# =============================================================================


class TestCmdAcf:
    def test_sample_table_matches_library(self, tmp_path):
        """CSV equals AcfTable.to_csv of sample_acf on the same grid."""
        path = _simulate_csv(tmp_path, seed=33)
        out = tmp_path / "acf.csv"
        assert main(["acf", "--grid", str(path), "--window", "2,3",
                     "--out", str(out)]) == 0
        want = io.StringIO()
        sample_acf(read_grid(path), (2, 3)).to_csv(want)
        assert out.open(newline="").read() == want.getvalue()

    def test_theoretical_table_matches_library(self, tmp_path):
        out = tmp_path / "acf.csv"
        assert main(["acf", "--order", "1,1", "--theta", "0.2,0.2,0.1",
                     "--mu-eps", "1.0", "--window", "2,2",
                     "--out", str(out)]) == 0
        params = CinarParams(ModelOrder(1, 1), np.array([0.2, 0.2, 0.1]),
                             PoissonInnovation(1.0))
        want = io.StringIO()
        theoretical_acf(params, (2, 2)).to_csv(want)
        assert out.open(newline="").read() == want.getvalue()

    def test_zero_window_single_cell(self, tmp_path):
        """Window (0,0) emits the single trivial cell rho(0,0) = 1, from a
        grid and from model flags alike."""
        path = _simulate_csv(tmp_path, seed=3, n=(10, 10))
        sources = (["--grid", str(path)],
                   ["--order", "1,1", "--theta", "0.2,0.2,0.1",
                    "--mu-eps", "1.0"])
        for k, source in enumerate(sources):
            out = tmp_path / f"acf0-{k}.csv"
            assert main(["acf", *source, "--window", "0,0",
                         "--out", str(out)]) == 0
            assert out.read_bytes() == b"l\\k,0\r\n0,1.0\r\n"

    def test_needs_grid_or_model(self, tmp_path):
        rc = main(["acf", "--window", "1,1", "--out", str(tmp_path / "a.csv")])
        assert rc == 2


# =============================================================================
# diagnose command
# =============================================================================


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("diag")
    grid_path = _simulate_csv(tmp, seed=77, n=(40, 40), theta="0.2,0.2,0.1")
    fit_path = tmp / "fit.json"
    assert main(["fit", "--grid", str(grid_path), "--order", "1,1",
                 "--method", "cml", "--out", str(fit_path)]) == 0
    return tmp, grid_path, fit_path


class TestCmdDiagnose:
    def test_report_files_written(self, fitted):
        """Report JSON plus residual-ACF and PIT CSV side files appear."""
        tmp, grid_path, fit_path = fitted
        out = tmp / "report.json"
        rc = main(["diagnose", "--grid", str(grid_path), "--params",
                   str(fit_path), "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "cinar.diagnose.v1"
        report = payload["report"]
        assert abs(report["residual_mean"]) < 0.1
        assert 0.8 < report["residual_variance"] < 1.2
        assert len(report["pit_bins"]) == 10
        assert np.mean(report["pit_bins"]) == pytest.approx(1.0, abs=1e-10)
        fit = json.loads(fit_path.read_text())["fits"][0]
        assert report["aic"] == fit["aic"]
        assert report["bic"] == fit["bic"]
        assert (tmp / "report.residual_acf.csv").exists()
        pit_rows = list(csv.DictReader((tmp / "report.pit.csv").open()))
        heights = [float(r["height"]) for r in pit_rows]
        np.testing.assert_allclose(heights, report["pit_bins"], atol=1e-15)

    def test_explicit_model_flags(self, fitted):
        """Without --params, diagnosis runs at user-supplied parameters."""
        tmp, grid_path, _ = fitted
        out = tmp / "manual.json"
        rc = main(["diagnose", "--grid", str(grid_path), "--order", "1,1",
                   "--theta", "0.2,0.2,0.1", "--mu-eps", "1.0",
                   "--bins", "5", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())["report"]
        assert len(report["pit_bins"]) == 5
        assert report["aic"] is None  # no likelihood supplied
        assert report["bic"] is None

    def test_method_must_exist_in_fit_file(self, fitted):
        tmp, grid_path, fit_path = fitted
        rc = main(["diagnose", "--grid", str(grid_path), "--params",
                   str(fit_path), "--method", "cls",
                   "--out", str(tmp / "x.json")])
        assert rc == 2

    def test_corrupt_params_file(self, fitted, tmp_path):
        tmp, grid_path, _ = fitted
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["diagnose", "--grid", str(grid_path), "--params",
                   str(bad), "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_fit_entry_without_names_is_named(self, fitted, tmp_path, capsys):
        tmp, grid_path, fit_path = fitted
        payload = json.loads(fit_path.read_text())
        del payload["fits"][0]["names"]
        bad = tmp_path / "nonames.json"
        bad.write_text(json.dumps(payload))
        rc = main(["diagnose", "--grid", str(grid_path), "--params",
                   str(bad), "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "nonames.json: not a fit result file" in capsys.readouterr().err

    def test_interior_below_3x3_exits_2(self, tmp_path, capsys):
        """A 2x10 grid at order (1,1) has a 1x9 interior, too small for the
        residual ACF: one line naming the grid as given, and exit 2."""
        path = tmp_path / "thin.csv"
        write_grid(CountGrid(np.arange(1, 21).reshape(2, 10)), path)
        rc = main(["diagnose", "--grid", str(path), "--order", "1,1",
                   "--theta", "0.2,0.2,0.1", "--mu-eps", "1.0",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "a 2x10 grid at order (1,1) has 1x9" in err[0]

    def test_all_zero_grid_exits_2_naming_the_residuals(self, tmp_path, capsys):
        """Every residual of an all-zero grid is equal, so the residual ACF
        is undefined: one line naming the residuals, and exit 2."""
        path = tmp_path / "zeros.csv"
        write_grid(CountGrid(np.zeros((20, 30), dtype=int)), path)
        rc = main(["diagnose", "--grid", str(path), "--order", "1,1",
                   "--theta", "0.2,0.2,0.1", "--mu-eps", "1.0",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: Pearson residuals are all equal")
        assert "sample ACF is undefined" in err[0]


class TestNbPoissonFace:
    def test_simulate_accepts_the_face(self, tmp_path):
        """--i-eps 1 is the NB family's Poisson face; below it exits 2."""
        argv = ["simulate", "--order", "1,1", "--theta", "0.2,0.2,0.1",
                "--family", "nb", "--mu-eps", "1.0", "--n", "10,10"]
        assert main(argv + ["--i-eps", "1", "--out",
                            str(tmp_path / "face.csv")]) == 0
        assert main(argv + ["--i-eps", "0.99", "--out",
                            str(tmp_path / "below.csv")]) == 2
        assert not (tmp_path / "below.csv").exists()

    def test_face_fit_diagnoses_as_the_poisson_fit(self, tmp_path):
        """An NB fit of Poisson data that ends on i_eps = 1 (the seed-300
        grid of the estimator's oracle cases) gives the PIT heights of the
        Poisson fit within 1e-12."""
        grid = tmp_path / "grid.csv"
        assert main(["simulate", "--order", "1,1", "--theta", "0.3,0.4,0.1",
                     "--mu-eps", "1.0", "--n", "50,50", "--seed", "300",
                     "--out", str(grid)]) == 0
        heights = {}
        for family in ("nb", "poisson"):
            fit, report = tmp_path / f"{family}.json", tmp_path / f"{family}-r.json"
            assert main(["fit", "--grid", str(grid), "--order", "1,1",
                         "--family", family, "--out", str(fit)]) == 0
            assert main(["diagnose", "--grid", str(grid), "--params", str(fit),
                         "--out", str(report)]) == 0
            heights[family] = json.loads(report.read_text())["report"]["pit_bins"]
        nb_fit = json.loads((tmp_path / "nb.json").read_text())["fits"][0]
        assert nb_fit["names"][-1] == "i_eps" and nb_fit["estimates"][-1] == 1.0
        np.testing.assert_allclose(heights["nb"], heights["poisson"], rtol=0,
                                   atol=1e-12)


# =============================================================================
# malformed input files: refused with exit 2 and one error line
# =============================================================================


def _refused(argv_for, content, name):
    """Run the CLI on ``content`` written to ``name``; return the exit code,
    stderr, and whether the output file appeared."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / name, Path(tmp) / "out.json"
        path.write_bytes(content)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(argv_for(str(path)) + ["--out", str(out)])
        return rc, err.getvalue(), out.exists()


@st.composite
def _malformed_grid(draw):
    """Bytes of a grid file that no command may accept."""
    kind = draw(st.sampled_from(["ragged", "negative", "non-integer", "empty",
                                 "1x1", "non-utf8"]))
    if kind == "empty":
        return draw(st.sampled_from([b"", b"\n", b"\n\n", b" , \n"]))
    if kind == "1x1":
        return b"%d\n" % draw(st.integers(0, 50))
    width = draw(st.integers(2, 5))
    rows = draw(st.lists(st.lists(st.integers(0, 9).map(str), min_size=width,
                                  max_size=width), min_size=2, max_size=6))
    r = draw(st.integers(0, len(rows) - 1))
    c = draw(st.integers(0, width - 1))
    if kind == "ragged":
        rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["1"]
    elif kind == "negative":
        rows[r][c] = str(-draw(st.integers(1, 10**6)))
    elif kind == "non-integer":
        rows[r][c] = draw(st.one_of(st.floats().map(repr),
                                    st.text(alphabet="ab.e+-_ ", min_size=1)))
    content = "".join(",".join(row) + "\n" for row in rows).encode()
    if kind == "non-utf8":
        at = draw(st.integers(0, len(content)))
        bad = draw(st.sampled_from([b"\xff", b"\xfe", b"\x80", b"\xc3"]))
        content = content[:at] + bad + content[at:]
    return content


@pytest.mark.parametrize("argv_for", [
    lambda grid: ["fit", "--grid", grid, "--order", "1,1"],
    lambda grid: ["diagnose", "--grid", grid, "--order", "1,1",
                  "--theta", "0.2,0.2,0.1", "--mu-eps", "1.0"],
], ids=["fit", "diagnose"])
@settings(max_examples=60, deadline=None)
@given(content=_malformed_grid())
def test_malformed_grid_exits_2(argv_for, content):
    rc, err, wrote = _refused(argv_for, content, "grid.csv")
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not wrote


# the keys the fit reader needs, as paths into a fit result file
_NEEDED_KEYS = (("fits",), ("config",), ("config", "order"),
                ("fits", 0, "method"), ("fits", 0, "names"),
                ("fits", 0, "estimates"))


@st.composite
def _malformed_fit_file(draw, text):
    """A fit result file cut short, missing a needed key, or undecodable."""
    kind = draw(st.sampled_from(["truncated", "missing-key", "non-utf8"]))
    if kind == "truncated":
        return text.rstrip()[:draw(st.integers(0, len(text.rstrip()) - 1))].encode()
    if kind == "non-utf8":
        at = draw(st.integers(0, len(text)))
        return text[:at].encode() + b"\xff" + text[at:].encode()
    payload = json.loads(text)
    *parents, key = draw(st.sampled_from(_NEEDED_KEYS))
    node = payload
    for parent in parents:
        node = node[parent]
    del node[key]
    return json.dumps(payload).encode()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_malformed_fit_file_exits_2(fitted, data):
    _, grid_path, fit_path = fitted
    content = data.draw(_malformed_fit_file(fit_path.read_text()))
    rc, err, wrote = _refused(
        lambda params: ["diagnose", "--grid", str(grid_path), "--params", params],
        content, "fit.json")
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not wrote


# =============================================================================
# simstudy command and harness
# =============================================================================


@pytest.mark.parametrize("command", [
    ["fit", "--method", "cml"],
    ["diagnose", "--theta", "0.2,0.2,0.1", "--mu-eps", "1.0"],
], ids=["fit-cml", "diagnose"])
def test_count_too_large_for_a_table_exits_2_quickly(tmp_path, capsys, command):
    """A count of 1e12 would need a thinning table of 1e24 cells: refused
    with its count named before anything is allocated."""
    values = np.ones((5, 5), dtype=np.int64)
    values[2, 2] = 10**12
    path = tmp_path / "big.csv"
    write_grid(CountGrid(values), path)
    start = time.perf_counter()
    rc = main(command + ["--grid", str(path), "--order", "1,1",
                         "--out", str(tmp_path / "out.json")])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert "count 1000000000000 is too large" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


class TestSimstudy:
    def test_single_rep_equals_single_fit(self, tmp_path):
        """R = 1 with a fixed master seed reproduces one cmd_fit run."""
        out = tmp_path / "study.csv"
        rc = main(["simstudy", "--order", "1,1", "--theta", "0.2,0.2,0.1",
                   "--mu-eps", "1.0", "--sizes", "12,12", "--methods", "cml",
                   "--reps", "1", "--seed", "99", "--out", str(out)])
        assert rc == 0
        grid_path = tmp_path / "g.csv"
        seed = replication_seed(99, 0)
        assert main(["simulate", "--order", "1,1", "--theta", "0.2,0.2,0.1",
                     "--mu-eps", "1.0", "--n", "12,12", "--seed", str(seed),
                     "--out", str(grid_path)]) == 0
        fit_path = tmp_path / "f.json"
        assert main(["fit", "--grid", str(grid_path), "--order", "1,1",
                     "--method", "cml", "--out", str(fit_path)]) == 0
        fit = json.loads(fit_path.read_text())["fits"][0]
        means = {row["param"]: float(row["value"])
                 for row in csv.DictReader(out.open())
                 if row["stat"] == "mean"}
        assert means == dict(zip(fit["names"], fit["estimates"]))

    def test_thread_count_does_not_change_results(self, tmp_path):
        """Aggregates are identical for serial and pooled execution, and so
        is the study CSV, CML arm included."""
        params = CinarParams(ModelOrder(1, 1), np.array([0.15, 0.15, 0.1]),
                             PoissonInnovation(1.0))
        serial = run_study(params, [(12, 12)], ["yw", "cls", "cml"], reps=4,
                           master_seed=5, threads=1)
        pooled = run_study(params, [(12, 12)], ["yw", "cls", "cml"], reps=4,
                           master_seed=5, threads=2)
        for a, b in zip(serial, pooled):
            assert a.label == b.label and a.n_reps == b.n_reps
            np.testing.assert_array_equal(a.means, b.means)
            np.testing.assert_array_equal(a.sds, b.sds)
        tables = []
        for k, results in enumerate((serial, pooled)):
            write_study_csv(results, tmp_path / f"study-{k}.csv")
            tables.append((tmp_path / f"study-{k}.csv").read_bytes())
        assert tables[0] == tables[1]
        assert serial[2].label == "cml" and serial[2].n_reps == 4

    def test_thread_count_does_not_change_study_files(self, tmp_path,
                                                      monkeypatch):
        """cinar simstudy writes the same CSV and .meta.json, failure
        reasons included, for threads = 1 and 2; only the meta's record of
        the thread count differs."""
        files = []
        for threads in ("1", "2"):
            (tmp_path / threads).mkdir()
            monkeypatch.chdir(tmp_path / threads)
            assert main(["simstudy", "--order", "1,1", "--theta",
                         "1e-9,1e-9,1e-9", "--mu-eps", "0.01", "--sizes",
                         "4,4", "--methods", "yw,cls", "--reps", "6",
                         "--seed", "3", "--threads", threads,
                         "--out", "study.csv"]) == 0
            meta = json.loads(Path("study.meta.json").read_text())
            assert meta["config"].pop("threads") == int(threads)
            files.append((Path("study.csv").read_bytes(), meta))
        assert files[0] == files[1]
        assert [cell["reasons"] for cell in files[0][1]["failures"]] == [
            {"ValidationError: degenerate grid": 5},
            {"NumericalError: CLS normal equations singular": 6},
        ]

    def test_workers_capped_by_tasks(self, tmp_path, monkeypatch):
        """threads = 4 for 2 replications asks the pool for 2 workers (a
        pool that runs in-process stands in for it), and the study CSV is
        the serial one."""
        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InProcessPool)
        params = CinarParams(ModelOrder(1, 1), np.array([0.15, 0.15, 0.1]),
                             PoissonInnovation(1.0))
        tables = []
        for threads in (1, 4):
            results = run_study(params, [(12, 12)], ["yw", "cml"], reps=2,
                                master_seed=5, threads=threads)
            write_study_csv(results, tmp_path / f"study-{threads}.csv")
            tables.append((tmp_path / f"study-{threads}.csv").read_bytes())
        assert asked == [2]
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("arm, family", [("cml", "poisson"), ("n-cml", "nb")])
    def test_cml_arm_passes_serve_every_replication(self, monkeypatch, arm,
                                                    family):
        """A CML arm of 4 replications builds as many log tables as its
        slowest replication's n_fev, not their sum: each likelihood pass
        serves every replication still searching."""
        import cinar.estimate as estimate_module

        params = CinarParams(ModelOrder(1, 1), np.array([0.15, 0.15, 0.1]),
                             PoissonInnovation(1.0))
        n_fev = [cml_estimate(simulate_cinar(SimConfig(
            params, 20, 20, burn_in=100, seed=replication_seed(5, rep))),
            ModelOrder(1, 1), family=family).diagnostics.n_fev for rep in range(4)]
        builds = []
        build = estimate_module.log_thinning_table

        def counting(*args, **kwargs):
            builds.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(estimate_module, "log_thinning_table", counting)
        result, = run_study(params, [(20, 20)], [arm], reps=4, master_seed=5)
        assert result.n_reps == 4
        assert len(builds) == max(n_fev) < sum(n_fev)

    def test_same_grid_shared_across_arms(self):
        """All arms of one replication see the same simulated grid."""
        params = CinarParams(ModelOrder(1, 1), np.array([0.15, 0.15, 0.1]),
                             PoissonInnovation(1.0))
        results = run_study(params, [(15, 15)], ["cls", "cls"], reps=3,
                            master_seed=8)
        np.testing.assert_array_equal(results[0].means, results[1].means)

    def test_failures_counted_not_fatal(self):
        """A degenerate replication is excluded and counted, not raised,
        and its reason is counted with it."""
        params = CinarParams(ModelOrder(1, 1),
                             np.array([1e-9, 1e-9, 1e-9]),
                             PoissonInnovation(0.01))
        results = run_study(params, [(4, 4)], ["yw"], reps=6, master_seed=3)
        res = results[0]
        assert res.n_failed > 0
        assert res.n_reps + res.n_failed == 6
        assert res.failures == (("ValidationError: degenerate grid",
                                 res.n_failed),)

    def test_nonconverged_fits_counted_not_dropped(self, tmp_path,
                                                   monkeypatch):
        """Non-converged CML fits stay in the aggregates and are counted."""
        import cinar.simstudy as simstudy
        from cinar.estimate import FitDiagnostics, FitResult

        calls = []

        def stuck(grids, order, family="poisson", inits=None):
            fits = []
            for _ in grids:
                calls.append(1)
                fits.append(FitResult(
                    method="CML",
                    names=("theta_01", "theta_10", "theta_11", "mu_eps"),
                    estimates=np.array([0.1, 0.2, 0.1, 1.0 + len(calls)]),
                    admissible=True,
                    diagnostics=FitDiagnostics(n_iter=500, converged=False),
                ))
            return fits

        monkeypatch.setattr(simstudy, "_cml_fits", stuck)
        params = CinarParams(ModelOrder(1, 1), np.array([0.15, 0.15, 0.1]),
                             PoissonInnovation(1.0))
        cml, cls = run_study(params, [(12, 12)], ["cml", "cls"], reps=3,
                             master_seed=5)
        assert (cml.n_reps, cml.n_failed, cml.n_nonconverged) == (3, 0, 3)
        assert cls.n_nonconverged == 0
        assert cml.failures == cls.failures == ()
        np.testing.assert_allclose(cml.means, [0.1, 0.2, 0.1, 3.0], rtol=1e-12)
        np.testing.assert_allclose(cml.sds, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

        out = tmp_path / "study.csv"
        calls.clear()
        assert main(["simstudy", "--order", "1,1", "--theta", "0.15,0.15,0.1",
                     "--mu-eps", "1.0", "--sizes", "12,12", "--methods",
                     "cml,cls", "--reps", "3", "--seed", "5",
                     "--out", str(out)]) == 0
        meta = json.loads(out.with_suffix(".meta.json").read_text())
        assert meta["n_nonconverged"] == [
            {"n1": 12, "n2": 12, "estimator": "cml", "count": 3},
            {"n1": 12, "n2": 12, "estimator": "cls", "count": 0},
        ]
        assert [cell["reasons"] for cell in meta["failures"]] == [{}, {}]
        rows = list(csv.DictReader(out.open()))
        assert set(rows[0]) == {"n1", "n2", "estimator", "reps_ok",
                                "reps_failed", "stat", "param", "value"}

    def test_misspecified_arms_parse(self):
        """Arm tags carry order and family overrides."""
        arm = parse_arm("p-cml")
        assert arm.method == "cml" and arm.family == "poisson"
        arm = parse_arm("cls-1")
        assert arm.method == "cls" and arm.order == ModelOrder(1, 1)
        arm = parse_arm("n-cml-1")
        assert (arm.method, arm.family, arm.order) == (
            "cml", "nb", ModelOrder(1, 1))
        with pytest.raises(ValidationError):
            parse_arm("mle")
        with pytest.raises(ValidationError):
            StudyArm(label="x", method="yw", family="poisson")

    def test_study_csv_layout(self, tmp_path):
        params = CinarParams(ModelOrder(1, 1), np.array([0.15, 0.15, 0.1]),
                             PoissonInnovation(1.0))
        results = run_study(params, [(10, 10)], ["cls"], reps=2, master_seed=1)
        path = tmp_path / "t.csv"
        write_study_csv(results, path)
        rows = list(csv.DictReader(path.open()))
        assert {row["stat"] for row in rows} == {"mean", "sd"}
        assert {row["param"] for row in rows} == {
            "theta_01", "theta_10", "theta_11", "mu_eps"}
        assert all(row["n1"] == "10" and row["estimator"] == "cls"
                   for row in rows)

    @pytest.mark.parametrize("name, value", [
        ("reps", 2.5), ("reps", True), ("threads", 1.5), ("threads", np.True_)])
    def test_counts_are_checked_not_truncated(self, name, value):
        """A non-integral or bool count is refused with a ValidationError
        naming it, not truncated or left to fail inside the study."""
        params = CinarParams(ModelOrder(1, 1), np.array([0.15, 0.15, 0.1]),
                             PoissonInnovation(1.0))
        counts = {"reps": 1, "threads": 1, name: value}
        with pytest.raises(ValidationError, match=(
                f"^{name} must be an integer, got {re.escape(repr(value))}$")):
            run_study(params, [(10, 10)], ["cls"], **counts)

    @pytest.mark.parametrize("kwargs, message", [
        ({"master_seed": -1}, "master seed must be >= 0, got -1"),
        ({"master_seed": 1.5}, "master seed must be an integer, got 1.5"),
        ({"master_seed": True}, "master seed must be an integer, got True"),
        ({"sizes": [(20.7, 20)]}, "n1 must be an integer, got 20.7"),
        ({"sizes": [(True, 20)]}, "n1 must be an integer, got True"),
        ({"sizes": [(20, 0)]}, "n2 must be >= 1, got 0"),
    ])
    def test_seed_and_sizes_are_checked(self, kwargs, message):
        """The master seed and each grid size go through the same integer
        check as the counts: refused with a ValidationError naming them,
        not truncated or left to numpy."""
        params = CinarParams(ModelOrder(1, 1), np.array([0.15, 0.15, 0.1]),
                             PoissonInnovation(1.0))
        kwargs = {"sizes": [(10, 10)], **kwargs}
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            run_study(params, arms=["cls"], reps=1, **kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"burn_in": -1}, "burn_in must be >= 0, got -1"),
        ({"theta": [0.5, 0.5, 0.1]}, "invalid parameters: sum of theta must be"
                                     " < 1, got 1.1"),
    ])
    def test_inputs_are_checked_before_a_pool_starts(self, monkeypatch, kwargs,
                                                     message):
        """A negative burn-in or an invalid parameter point is refused before
        any replication runs: no process pool is built for it."""
        def no_pool(*args, **kw):
            pytest.fail("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        theta = np.array(kwargs.pop("theta", [0.15, 0.15, 0.1]))
        params = CinarParams(ModelOrder(1, 1), theta, PoissonInnovation(1.0))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            run_study(params, [(10, 10)], ["cls"], reps=2, threads=2, **kwargs)

    def test_negative_seed_exits_2_writing_nothing(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        rc = main(["simstudy", "--order", "1,1", "--theta", "0.2,0.2,0.1",
                   "--mu-eps", "1.0", "--sizes", "12,12", "--methods", "cls",
                   "--reps", "1", "--seed", "-1", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: master seed must be >= 0, got -1"]
        assert list(tmp_path.iterdir()) == []

    def test_replication_seed_is_stable(self):
        """Seed derivation is a pure function of (master, rep)."""
        assert replication_seed(0, 0) == replication_seed(0, 0)
        seeds = {replication_seed(7, r) for r in range(100)}
        assert len(seeds) == 100  # no collisions in a small sweep


# =============================================================================
# Entry point
# =============================================================================


class TestEntryPoint:
    def test_module_runs_as_script(self, tmp_path):
        """python -m cinar.cli works end to end in a subprocess."""
        out = tmp_path / "g.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "cinar.cli", "simulate", "--order", "1,1",
             "--theta", "0.1,0.1,0.1", "--mu-eps", "1.0", "--n", "8,8",
             "--seed", "0", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_unknown_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cinar.cli", "frobnicate"],
            capture_output=True, text=True)
        assert proc.returncode == 2

    @pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize", "scipy",
                                        "concurrent.futures.process"])
    def test_import_leaves_scipy_stats_out(self, module):
        """Importing the package and its CLI loads no scipy module, and not
        the process pool, which only a study with threads > 1 uses."""
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, cinar, cinar.cli;"
             f" print({module!r} in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_commands_run_without_scipy(self, tmp_path):
        """simulate, fit (YW, CLS and CML) and diagnose run in an
        interpreter where scipy cannot be imported: numpy is the only
        runtime dependency."""
        grid, fit, report = (str(tmp_path / name) for name in ("g.csv", "f.json",
                                                               "d.json"))
        commands = [
            ["simulate", "--order", "1,1", "--theta", "0.2,0.2,0.1",
             "--mu-eps", "1.0", "--n", "20,20", "--seed", "3", "--out", grid],
            ["fit", "--grid", grid, "--order", "1,1", "--method", "yw,cls,cml",
             "--out", fit],
            ["diagnose", "--grid", grid, "--params", fit, "--out", report],
        ]
        script = ("import sys; sys.modules['scipy'] = None\n"
                  "from cinar.cli import main\n"
                  f"for argv in {commands!r}:\n"
                  "    assert main(argv) == 0, argv\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        fits = json.loads(Path(fit).read_text())["fits"]
        assert [entry["method"] for entry in fits] == ["YW", "CLS", "CML"]
        assert Path(report).exists()

    def test_cli_imports_public_names_only(self):
        """Every name cli.py imports from a sibling module is in its __all__."""
        import cinar.cli as cli

        with open(cli.__file__) as fh:
            tree = ast.parse(fh.read())
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1]
        assert imports
        for node in imports:
            module = importlib.import_module(f"cinar.{node.module}")
            for alias in node.names:
                assert alias.name in module.__all__, (node.module, alias.name)
