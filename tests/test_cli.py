import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

import phmor
from phmor.cli import main
from phmor import PHDAESystem
from phmor.containers import load_phdae, load_reduced, read_manifest, save_phdae


def _run(argv, capsys=None):
    code = main([str(a) for a in argv])
    if capsys is not None:
        return code, capsys.readouterr()
    return code


class TestGenerateValidate:
    def test_generate_then_validate(self, tmp_path, capsys):
        model = tmp_path / "chain"
        assert _run(["generate", "--benchmark", "chain", "--k", 5, "--out", model]) == 0
        code, captured = _run(["validate", model], capsys)
        assert code == 0
        assert "pass" in captured.out.lower()

    def test_generate_all_benchmarks(self, tmp_path):
        cases = [
            ["--benchmark", "chain-b2", "--k", 4],
            ["--benchmark", "oseen", "--n-grid", 3],
            ["--benchmark", "random-index1", "--n1", 6, "--n2", 2, "--m", 1],
            ["--benchmark", "mixed", "--k", 4],
        ]
        for i, extra in enumerate(cases):
            out = tmp_path / f"m{i}"
            assert _run(["generate", *extra, "--out", out]) == 0
            assert _run(["validate", out]) == 0

    def test_generate_sparse_container(self, tmp_path):
        out = tmp_path / "sparse"
        assert _run(["generate", "--benchmark", "chain", "--k", 8,
                     "--sparse", "--out", out]) == 0
        manifest = read_manifest(out / "manifest.txt")
        assert manifest["format"] == "sparse"

    @pytest.mark.parametrize("name", ["chain-b2", "random-index1", "mixed"])
    def test_generate_sparse_without_sparse_builder_exits_1(self, tmp_path, capsys, name):
        out = tmp_path / "model"
        code, captured = _run(["generate", "--benchmark", name, "--k", 3,
                               "--sparse", "--out", out], capsys)
        assert code == 1
        assert captured.err.startswith(f"error [generate]: benchmark '{name}' "
                                       "has no sparse builder")
        assert not out.exists()

    def test_validate_flags_broken_skewness(self, tmp_path, capsys):
        model = tmp_path / "chain"
        _run(["generate", "--benchmark", "chain", "--k", 3, "--out", model])
        J = np.asarray(scipy.io.mmread(model / "J.mtx"))
        J[0, 1] += 0.5
        scipy.io.mmwrite(model / "J.mtx", J)
        code, captured = _run(["validate", model], capsys)
        assert code == 1
        assert "skew" in captured.out.lower()

    def test_validate_says_when_it_skips_the_diagnosis(self, tmp_path, capsys):
        model = tmp_path / "chain"
        _run(["generate", "--benchmark", "chain", "--k", 401, "--out", model], capsys)
        code, captured = _run(["validate", model], capsys)
        assert code == 0
        lines = captured.out.splitlines()
        assert lines[-1] == "diagnosis skipped: n = 803 > 801"
        assert "pencil regular" not in captured.out
        assert all(line.split()[1] == "pass" for line in lines[:-1])

    def test_missing_path_exits_2(self, tmp_path, capsys):
        code, captured = _run(["validate", tmp_path / "nope"], capsys)
        assert code == 2
        assert "nope" in captured.err


class TestReduce:
    def test_reduce_at_exact_point_matches_fixture(self, tmp_path, index2_fixture):
        model = tmp_path / "fixture"
        save_phdae(model, index2_fixture, extra={"index": "2", "n1": 2})
        out = tmp_path / "red"
        assert _run(["reduce", model, "--method", "index2", "--r", 1,
                     "--points", "1+0j", "--out", out]) == 0
        reduced = load_reduced(out)
        # full transfer is 1/(s+1); the order-1 interpolant reproduces it
        for s in (1j, 0.3 + 2j, 10.0):
            assert abs(reduced.transfer_eval(s)[0, 0] - 1.0 / (s + 1.0)) <= 1e-10
        rows = (out / "errors.csv").read_text().strip().splitlines()
        assert rows[0].startswith("r,interp_residual_max")
        assert float(rows[1].split(",")[1]) <= 1e-10

    def test_reduce_irka_writes_convergence_columns(self, tmp_path):
        model = tmp_path / "chain"
        _run(["generate", "--benchmark", "chain", "--k", 10, "--out", model])
        out = tmp_path / "red"
        assert _run(["reduce", model, "--method", "irka", "--r", 4,
                     "--h2", "--out", out]) == 0
        row = (out / "errors.csv").read_text().strip().splitlines()[1].split(",")
        assert row[4] != ""  # rel_h2 filled because of --h2
        assert row[5] in ("0", "1")
        assert int(row[6]) >= 1

    def test_reduce_h2_row_is_inf_for_pole_at_origin(self, tmp_path):
        # the chain-b2 H2 denominator (full model minus its polynomial part)
        # diverges at omega = 0; the row reads inf, the exit code is 0
        model = tmp_path / "chain-b2"
        _run(["generate", "--benchmark", "chain-b2", "--k", 6, "--out", model])
        out = tmp_path / "red"
        assert _run(["reduce", model, "--method", "index2", "--r", 2,
                     "--h2", "--out", out]) == 0
        row = (out / "errors.csv").read_text().strip().splitlines()[1].split(",")
        assert row[4] == "inf"

    def test_reduce_index2_with_constraint_inputs_writes_the_augmented_row(self, tmp_path):
        # --method index2 runs reduce_index2_augmented on chain-b2: the row
        # and the saved model are those of that reducer, byte for byte
        from phmor import cli
        from phmor.reducers import reduce_index2_augmented

        model = tmp_path / "chain-b2"
        _run(["generate", "--benchmark", "chain-b2", "--k", 6, "--out", model])
        out = tmp_path / "red"
        assert _run(["reduce", model, "--method", "index2", "--r", 2, "--h2",
                     "--out", out]) == 0
        part, _ = cli._load_partition(model)
        data = phmor.InterpolationData.log_spaced(2, part.parent.m)
        reduced = reduce_index2_augmented(part, data)
        row = cli._errors_row(part, reduced, data, cli._parse_freq_grid("1e-4:1e4:400"),
                              cli._h2_denominator(part))
        assert (out / "errors.csv").read_text() == cli.CSV_HEADER + row
        loaded = load_reduced(out)
        assert loaded.method == "index2-augmented" and loaded.augmented_input
        assert np.array_equal(loaded.system.E, reduced.system.E)

    @pytest.mark.parametrize("method", ["irka", "index2", "auto"])
    def test_reduce_points_of_wrong_size_exits_1(self, tmp_path, capsys, method):
        # a direct reduction rejects --points that do not hold --r points, as
        # IRKA does, instead of writing a row of another order
        model = tmp_path / "chain"
        _run(["generate", "--benchmark", "chain", "--k", 6, "--out", model])
        out = tmp_path / "red"
        code, captured = _run(["reduce", model, "--method", method, "--r", 4,
                               "--points", "1,2", "--out", out], capsys)
        assert code == 1
        assert captured.err == ("error [reduce]: 2 initial interpolation points for "
                                "reduced order 4\n")
        assert not out.exists()

    @pytest.mark.parametrize("method", ["mixed", "index2-galerkin", "index2-augmented",
                                        "irka-mixed", "irka-index2-galerkin",
                                        "mixed-blockdiag", "irka-mixed-blockdiag"])
    def test_removed_method_names_exit_2(self, tmp_path, capsys, method):
        model = tmp_path / "mixed"
        _run(["generate", "--benchmark", "mixed", "--k", 4, "--out", model])
        with pytest.raises(SystemExit) as exc:
            main(["reduce", str(model), "--method", method, "--out", str(tmp_path / "red")])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_reduce_sparse_shape_mismatch_exits_1(self, tmp_path, capsys):
        model = tmp_path / "chain"
        _run(["generate", "--benchmark", "chain", "--k", 6, "--sparse", "--out", model])
        n = int(read_manifest(model / "manifest.txt")["n"])
        scipy.io.mmwrite(model / "E.mtx", sp.identity(n - 1, format="coo"))
        code, captured = _run(["reduce", model, "--method", "index2", "--r", 2,
                               "--out", tmp_path / "red"], capsys)
        assert code == 1
        assert "E.mtx has shape" in captured.err

    @pytest.mark.parametrize("points", ["nan,1", "inf"])
    def test_reduce_non_finite_points_exits_1(self, tmp_path, index2_fixture, capsys,
                                              points):
        model = tmp_path / "fixture"
        save_phdae(model, index2_fixture, extra={"index": "2", "n1": 2})
        code, captured = _run(["reduce", model, "--method", "index2", "--points", points,
                               "--out", tmp_path / "red"], capsys)
        assert code == 1
        assert captured.err == ("error [reduce]: interpolation points and directions "
                                "must be finite\n")

    def test_reduce_unpartitioned_container_exits_1(self, tmp_path, index2_fixture,
                                                    capsys):
        model = tmp_path / "plain"
        save_phdae(model, index2_fixture)
        code, captured = _run(["reduce", model, "--r", 1], capsys)
        assert code == 1
        assert "index" in captured.err


def test_h2_reduce_does_not_import_scipy_integrate(tmp_path):
    # tests may import scipy.integrate themselves, so the reduce runs in a
    # fresh interpreter
    model, out = tmp_path / "ri1", tmp_path / "red"
    assert _run(["generate", "--benchmark", "random-index1", "--out", model]) == 0
    script = ("import sys\n"
              "from phmor.cli import main\n"
              f"assert main(['reduce', {str(model)!r}, '--method', 'index1-shifted', '--r', '4', "
              f"'--h2', '--out', {str(out)!r}]) == 0\n"
              "assert 'scipy.integrate' not in sys.modules\n")
    src = str(pathlib.Path(phmor.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert float(_rows(out / "errors.csv")[0]["rel_h2"]) > 0


class TestSweepRegularize:
    def test_sweep_is_deterministic(self, tmp_path):
        model = tmp_path / "chain"
        _run(["generate", "--benchmark", "chain", "--k", 12, "--out", model])
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert _run(["sweep", model, "--method", "irka", "--r-sweep", "2:6:2",
                         "--out", out]) == 0
            outs.append((out / "errors.csv").read_bytes())
        assert outs[0] == outs[1]
        rows = outs[0].decode().strip().splitlines()
        assert [int(r.split(",")[0]) for r in rows[1:]] == [2, 4, 6]
        assert (tmp_path / "s1" / "r004").is_dir()
        assert (tmp_path / "s1" / "trace_r004.csv").exists()

    def test_irka_runs_print_how_they_stopped(self, tmp_path, capsys):
        chain, oseen = tmp_path / "chain", tmp_path / "oseen"
        _run(["generate", "--benchmark", "chain", "--k", 12, "--out", chain])
        _run(["generate", "--benchmark", "oseen", "--n-grid", 8, "--out", oseen])
        code, captured = _run(["sweep", chain, "--method", "irka", "--r-sweep", "2:4:2",
                               "--out", tmp_path / "sw"], capsys)
        assert code == 0
        done = [line for line in captured.out.splitlines() if line.startswith("r=")]
        assert len(done) == 2 and all(line.endswith(": converged)") for line in done)
        with pytest.warns(RuntimeWarning, match="rounding floor"):
            code, captured = _run(["reduce", oseen, "--method", "irka", "--r", 10,
                                   "--out", tmp_path / "red"], capsys)
        assert code == 0
        row = _rows(tmp_path / "red" / "errors.csv")[0]
        assert row["converged"] == "0" and int(row["iterations"]) <= 20
        assert f"IRKA stopped after {row['iterations']} sweeps: rounding floor\n" in captured.out

    def test_sweep_rows_match_single_reduces(self, tmp_path):
        # the sweep evaluates the full model on the grid once and reuses it
        # for every order; each row must equal the one `reduce` writes alone
        model = tmp_path / "chain"
        _run(["generate", "--benchmark", "chain", "--k", 12, "--out", model])
        out = tmp_path / "sweep"
        assert _run(["sweep", model, "--method", "irka", "--r-sweep", "2:6:2",
                     "--out", out]) == 0
        swept = (out / "errors.csv").read_text().splitlines(keepends=True)[1:]
        assert len(swept) == 3
        for r, row in zip((2, 4, 6), swept):
            red = tmp_path / f"red{r}"
            assert _run(["reduce", model, "--method", "irka", "--r", r,
                         "--out", red]) == 0
            assert (red / "errors.csv").read_text().splitlines(keepends=True)[1] == row

    def test_sweep_empty_order_range_exits_1(self, tmp_path, capsys):
        model = tmp_path / "chain"
        _run(["generate", "--benchmark", "chain", "--k", 4, "--out", model])
        out = tmp_path / "sweep"
        code, captured = _run(["sweep", model, "--r-sweep", "2:1", "--out", out], capsys)
        assert code == 1
        assert captured.err == "error [sweep]: --r-sweep 2:1 requests no reduced order\n"
        assert not (out / "errors.csv").exists()

    def test_sweep_h2_denominator_integrated_once(self, tmp_path, monkeypatch):
        from phmor import cli

        calls = []
        h2_error = cli.h2_error
        monkeypatch.setattr(cli, "h2_error", lambda *a: calls.append(a[1]) or h2_error(*a))
        model = tmp_path / "chain"
        _run(["generate", "--benchmark", "chain", "--k", 6, "--out", model])
        assert _run(["sweep", model, "--r-sweep", "2:4:2", "--h2",
                     "--freq-grid", "1e-4:1e4:20", "--out", tmp_path / "sweep"]) == 0
        assert len(calls) == 3
        rows = _rows(tmp_path / "sweep" / "errors.csv")
        assert len(rows) == 2 and all(float(row["rel_h2"]) > 0 for row in rows)

    def test_sweep_errors_decay(self, tmp_path):
        model = tmp_path / "chain"
        _run(["generate", "--benchmark", "chain", "--k", 12, "--out", model])
        out = tmp_path / "sweep"
        _run(["sweep", model, "--method", "irka", "--r-sweep", "2:6:2", "--out", out])
        rows = (out / "errors.csv").read_text().strip().splitlines()[1:]
        hinf = [float(r.split(",")[3]) for r in rows]
        assert hinf[-1] < hinf[0]

    def test_regularize_drops_padded_states(self, tmp_path, index1_fixture, capsys):
        n, m = index1_fixture.n, index1_fixture.m
        pad = 2
        z = np.zeros((pad, pad))
        padded = type(index1_fixture)(
            E=np.block([[index1_fixture.E, np.zeros((n, pad))],
                        [np.zeros((pad, n)), z]]),
            J=np.block([[index1_fixture.J, np.zeros((n, pad))],
                        [np.zeros((pad, n)), z]]),
            R=np.block([[index1_fixture.R, np.zeros((n, pad))],
                        [np.zeros((pad, n)), z]]),
            B=np.vstack([index1_fixture.B, np.zeros((pad, m))]),
            P=np.vstack([index1_fixture.P, np.zeros((pad, m))]),
            S=index1_fixture.S, N=index1_fixture.N,
        )
        model = tmp_path / "padded"
        save_phdae(model, padded)
        out = tmp_path / "reg"
        code, captured = _run(["regularize", model, "--out", out], capsys)
        assert code == 0
        assert "dropped 2" in captured.out
        loaded, _ = load_phdae(out)
        assert loaded.n == n

    def test_regularize_feedback_yields_valid_closed_loop(self, tmp_path):
        model = tmp_path / "rand"
        _run(["generate", "--benchmark", "random-index1", "--n1", 8, "--n2", 3,
              "--m", 2, "--out", model])
        out = tmp_path / "fb"
        assert _run(["regularize", model, "--feedback", "0.5", "--out", out]) == 0
        assert _run(["validate", out]) == 0
        loaded, _ = load_phdae(out)
        assert loaded.m == 0


class TestRegularizeThenReduce:
    @pytest.mark.parametrize("model_args, index, n1, method", [
        (["chain", "--k", 5], "2", "10", "index2"),
        (["random-index1"], "1", "12", "index1-shifted"),
    ])
    def test_condensed_container_reduces_like_the_original(self, tmp_path, model_args,
                                                           index, n1, method):
        model, reg = tmp_path / "model", tmp_path / "reg"
        assert _run(["generate", "--benchmark", *model_args, "--out", model]) == 0
        assert _run(["regularize", model, "--condense", "--out", reg]) == 0
        manifest = read_manifest(reg / "manifest.txt")
        assert (manifest["index"], manifest["n1"]) == (index, n1)
        rows = []
        for name in (model, reg):
            out = tmp_path / f"out_{name.name}"
            assert _run(["reduce", name, "--method", method, "--r", 4, "--out", out]) == 0
            rows.append(_rows(out / "errors.csv")[0])
        direct, condensed = rows
        assert direct["r"] == condensed["r"]
        assert float(direct["interp_residual_max"]) <= 1e-12
        assert float(condensed["interp_residual_max"]) <= 1e-12
        assert float(direct["min_eig_W"]) == pytest.approx(float(condensed["min_eig_W"]),
                                                           rel=1e-10, abs=1e-12)
        # the chain's raw saddle basis gives a reduced E of condition ~4e12,
        # so the two coordinate systems agree to ~2e-10 here
        assert float(direct["rel_hinf"]) == pytest.approx(float(condensed["rel_hinf"]),
                                                          rel=1e-9)

    def test_condensed_container_without_partition_has_no_index(self, tmp_path, capsys):
        # four dynamic states, a skew algebraic pair and a multiplier: both
        # algebraic and index-2 blocks
        n = 7
        E, J, R = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
        E[:4, :4] = np.eye(4)
        J[0, 1], J[1, 0], J[4, 5], J[5, 4], J[6, 0], J[0, 6] = 1.0, -1.0, 2.0, -2.0, 1.0, -1.0
        R[:4, :4] = 0.1 * np.eye(4)
        model = tmp_path / "model"
        save_phdae(model, PHDAESystem(E=E, J=J, R=R, B=np.ones((n, 1)), P=np.zeros((n, 1)),
                                      S=np.eye(1), N=np.zeros((1, 1))))
        for flags in ([], ["--feedback", "0.5"]):
            out = tmp_path / f"reg{len(flags)}"
            code, captured = _run(["regularize", model, "--condense", *flags, "--out", out],
                                  capsys)
            assert code == 0
            assert "no index entry" in captured.out
            manifest = read_manifest(out / "manifest.txt")
            assert manifest["block_sizes"] == "4:0:2:1:0"
            assert "index" not in manifest and "n1" not in manifest


def test_load_partition_keeps_sparse_container_sparse(tmp_path):
    from phmor.cli import _load_partition

    for flag in ([], ["--sparse"]):
        model = tmp_path / f"chain{len(flag)}"
        _run(["generate", "--benchmark", "chain", "--k", 5, *flag, "--out", model])
        part, _ = _load_partition(model)
        assert sp.issparse(part.parent.E) == bool(flag)
        assert isinstance(part.parent.B, np.ndarray)


def _rows(csv_path):
    lines = csv_path.read_text().strip().splitlines()
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


@pytest.mark.parametrize("model_args, command", [
    (["chain", "--k", 20], ["sweep", "--method", "irka", "--r-sweep", "2:6:2"]),
    (["oseen", "--n-grid", 5], ["reduce", "--method", "index2", "--r", 6]),
])
def test_sparse_container_matches_dense(tmp_path, model_args, command):
    # reduce/sweep keep a --sparse container sparse (SuperLU solves); the
    # rows agree with the dense container's up to rounding
    rows = []
    for flag in ([], ["--sparse"]):
        model = tmp_path / f"model{len(flag)}"
        out = tmp_path / f"out{len(flag)}"
        assert _run(["generate", "--benchmark", *model_args, *flag, "--out", model]) == 0
        assert _run([command[0], model, *command[1:], "--out", out]) == 0
        rows.append(_rows(out / "errors.csv"))
    dense, sparse = rows
    assert len(dense) == len(sparse) > 0
    for d, s in zip(dense, sparse):
        for key in ("r", "converged", "iterations"):
            assert d[key] == s[key]
        assert abs(float(d["rel_hinf"]) - float(s["rel_hinf"])) <= 1e-6


@pytest.mark.parametrize("kind", ["index1", "mixed"])
def test_sparse_index1_and_mixed_containers_match_dense(tmp_path, kind):
    # no generator writes these sparse, but a sparse container of any index
    # kind reduces like its dense copy
    from phmor.benchmarks import MassSpringSpec, mixed_chain, random_ph_index1

    if kind == "index1":
        part = random_ph_index1(8, 3, 2, 0)
    else:
        part = mixed_chain(MassSpringSpec(k=6))
    extra = {"index": part.index_kind, "n1": part.n1}
    sparse = PHDAESystem(**{name: sp.csr_array(getattr(part.parent, name))
                            for name in "EJRBPSN"})
    rows = []
    for name, system in (("dense", part.parent), ("sparse", sparse)):
        save_phdae(tmp_path / name, system, extra=extra)
        assert _run(["reduce", tmp_path / name, "--r", 4,
                     "--out", tmp_path / f"out_{name}"]) == 0
        rows.append(_rows(tmp_path / f"out_{name}" / "errors.csv")[0])
    assert rows[0]["r"] == rows[1]["r"]
    assert abs(float(rows[0]["rel_hinf"]) - float(rows[1]["rel_hinf"])) <= 1e-9


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    from phmor.cli import build_parser

    parser = build_parser()
    model = tmp_path / "chain"
    assert _run(["generate", "--benchmark", "chain", "--k", 4, "--out", model]) == 0
    code, captured = _run(["validate", model], capsys)
    assert code == 0 and "E_symmetric" in captured.out
    assert _run(["reduce", model, "--r", 2, "--freq-grid", "1e-1:1e1:4",
                 "--out", tmp_path / "red"]) == 0
    assert build_parser() is parser
    # an argument error after successful calls still exits 2, and the next call runs
    with pytest.raises(SystemExit) as exc:
        _run(["reduce", model, "--no-such-flag"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    code, captured = _run(["validate", model], capsys)
    assert code == 0 and captured.err == ""
