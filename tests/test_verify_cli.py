import hashlib
import itertools
import os
import random
import tracemalloc

import numpy as np
import pytest

from boxcert import cli, netio, network, verify
from boxcert.cli import main
from boxcert.construct import build_certified_network
from boxcert.expr import parse_func
from boxcert.intervals import BoxRegion
from boxcert.network import Network, eval_abstract, eval_concrete
from boxcert.verify import RunConfig, network_delta, network_domain, sample_boxes, verify_network

from helpers import identity_network, reference_sample_boxes

CUBIC = "-x0*x0*x0 + 3*x0"


@pytest.fixture(scope="module")
def cubic_net(tmp_path_factory):
    f = parse_func(CUBIC, 1, BoxRegion.from_pairs([(-2, 2)]))
    net, report = build_certified_network(f, 8 / 5)
    path = tmp_path_factory.mktemp("nets") / "cubic.net"
    netio.save(net, str(path))
    return f, net, report, str(path)


def corrupt_output_bias(net: Network, shift: float) -> Network:
    out = net.nodes[net.output]
    assert out.kind == "affine"
    nodes = list(net.nodes)
    nodes[net.output] = type(out)(
        out.kind,
        preds=out.preds,
        weights=out.weights,
        bias=tuple(b + shift for b in out.bias),
    )
    return Network(tuple(nodes), net.output, net.input_dim, dict(net.metadata))


class TestMetadataAccess:
    def test_delta_and_domain(self, cubic_net):
        _, net, report, _ = cubic_net
        assert network_delta(net) == report.delta
        assert network_domain(net) == BoxRegion.from_pairs([(-2.0, 2.0)])

    def test_missing_metadata(self):
        from boxcert.fixtures import fig2_n1

        with pytest.raises(ValueError, match="metadata"):
            network_delta(fig2_n1())


class TestSampling:
    def test_specials_come_first(self):
        domain = BoxRegion.from_pairs([(-2.0, 2.0)])
        lo, hi = sample_boxes(domain, 10, seed=1)
        assert (lo[0].tolist(), hi[0].tolist()) == ([-2.0], [2.0])
        assert (lo[1].tolist(), hi[1].tolist()) == ([-1.0], [1.0])  # inner unit box
        assert lo.shape == hi.shape == (10, 1)

    def test_zero_boxes(self):
        lo, hi = sample_boxes(BoxRegion.from_pairs([(0, 1)]), 0, seed=1)
        assert lo.shape == hi.shape == (0, 1)

    def test_deterministic(self):
        domain = BoxRegion.from_pairs([(0.0, 1.0), (0.0, 1.0)])
        a = np.array(sample_boxes(domain, 50, seed=9))
        b = np.array(sample_boxes(domain, 50, seed=9))
        assert np.array_equal(a, b)
        c = np.array(sample_boxes(domain, 50, seed=10))
        assert not np.array_equal(a, c)

    def test_corner_points_follow_the_lattice(self):
        domain = BoxRegion.from_pairs([(0.0, 1.0), (-1.0, 3.0)])
        axes = [[0.0, 0.25, 0.5, 0.75, 1.0], [-1.0, 0.0, 1.0, 2.0, 3.0]]
        corners = [list(x) for x in itertools.product(*axes)]
        lo, hi = sample_boxes(domain, 27, seed=1)
        assert lo[1:26].tolist() == hi[1:26].tolist() == corners
        lo, hi = sample_boxes(domain, 4, seed=1)
        assert lo.tolist() == [[0.0, -1.0]] + corners[:3]
        assert hi.tolist() == [[1.0, 3.0]] + corners[:3]

    def test_boxes_stay_in_domain(self):
        domain = BoxRegion.from_pairs([(-1.0, 3.0)])
        lo, hi = sample_boxes(domain, 200, seed=3)
        assert ((-1.0 <= lo) & (lo <= hi) & (hi <= 3.0)).all()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_arrays_equal_the_per_box_reference(self, dim):
        # bit for bit, on the [-2,2]^m box (which adds the inner unit box) and
        # on boxes with a -0.0 end, for counts below and past the specials
        # and the 5^m corners
        for domain in (
            BoxRegion.from_pairs([(-2.0, 2.0)] * dim),
            BoxRegion.from_pairs([(0.0, 1.0), (-1.0, 3.0), (-0.0, 0.1)][:dim]),
            BoxRegion.from_pairs([(-0.0, 5e-324), (-2.0, 2.0), (-7.5, -0.0)][:dim]),
        ):
            for seed in range(50):
                for count in [*range(31), 100]:
                    lo, hi = sample_boxes(domain, count, seed)
                    got = [[(a.hex(), b.hex()) for a, b in zip(row_lo, row_hi)]
                           for row_lo, row_hi in zip(lo.tolist(), hi.tolist())]
                    want = [[(b.lo.hex(), b.hi.hex()) for b in box.bounds]
                            for box in reference_sample_boxes(domain, count, seed)]
                    assert got == want

    @pytest.mark.parametrize("count", [1, 2, 40])
    def test_domain_beyond_the_finite_doubles_is_a_value_error(self, count):
        # the width 2e308 overflows, so the lattice and the random draws are not finite
        domain = BoxRegion.from_pairs([(-1e308, 1e308)])
        if count == 1:  # the domain alone is finite
            assert sample_boxes(domain, count, seed=0)[0].tolist() == [[-1e308]]
            return
        with pytest.raises(ValueError, match=r"domain -1e\+308,1e\+308"):
            sample_boxes(domain, count, seed=0)

    def test_cli_reports_an_unsampleable_domain_as_a_usage_error(self, tmp_path, capsys, cubic_net):
        _, net, _, _ = cubic_net
        wide = Network(net.nodes, net.output, net.input_dim, dict(net.metadata, domain="-1e308,1e308"))
        path = tmp_path / "wide.net"
        netio.save(wide, str(path))
        code = main(["verify", "--net", str(path), "--expr", CUBIC, "--boxes", "5", "--out", str(tmp_path / "r.txt")])
        assert code == cli.EXIT_USAGE
        assert "domain -1e+308,1e+308" in capsys.readouterr().err


class TestVerify:
    @pytest.mark.parametrize("tolerance", [-1e-9, float("nan"), float("inf")])
    def test_config_rejects_bad_tolerance(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            RunConfig(boxes=1, seed=0, tolerance=tolerance)

    def test_clean_network_passes(self, cubic_net):
        f, net, _, _ = cubic_net
        report = verify_network(net, f, RunConfig(boxes=150, seed=42))
        assert report.failures == 0
        assert report.inconclusive == 0
        assert report.max_violation == 0.0

    def test_point_boxes_reduce_to_uat(self, cubic_net):
        f, net, report, _ = cubic_net
        rng = random.Random(17)
        for _ in range(100):
            x = rng.uniform(-2, 2)
            n_x = eval_concrete(net, [x])[0]
            assert abs(n_x - f.eval([x])) <= report.delta + 1e-9

    def test_corrupted_network_fails(self, cubic_net):
        f, net, report, _ = cubic_net
        bad = corrupt_output_bias(net, 2 * report.delta)
        out = verify_network(bad, f, RunConfig(boxes=100, seed=42))
        assert out.failures >= 1
        assert out.max_violation > 0

    def test_grossly_corrupted_network_has_matching_violation(self, cubic_net):
        f, net, _, _ = cubic_net
        bad = corrupt_output_bias(net, 10.0)
        out = verify_network(bad, f, RunConfig(boxes=50, seed=42))
        assert out.failures >= 1
        assert out.max_violation == pytest.approx(10.0, abs=2.5)

    def test_report_document_shape(self, cubic_net):
        f, net, _, _ = cubic_net
        report = verify_network(net, f, RunConfig(boxes=5, seed=0))
        doc = report.to_document()
        assert doc.startswith("boxcert-verify 1\n")
        assert doc.count("\nbox ") == 5
        assert "summary boxes 5 failures 0" in doc
        assert "runtime" not in doc  # byte-determinism: wall time stays out

    def test_zero_boxes_gives_empty_passing_report(self, cubic_net):
        f, net, _, _ = cubic_net
        report = verify_network(net, f, RunConfig(boxes=0, seed=0))
        assert report.records == ()
        assert report.failures == 0

    def test_starved_oracle_marks_boxes_inconclusive(self, cubic_net):
        f, net, _, _ = cubic_net
        report = verify_network(net, f, RunConfig(boxes=10, seed=0, oracle_budget=4))
        assert report.inconclusive > 0
        assert "inconclusive" in report.to_document()


class TestCli:
    def test_fixtures_and_propagate(self, tmp_path, capsys):
        out = tmp_path / "n1.net"
        assert main(["fixtures", "--name", "fig2-n1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["propagate", "--net", str(out), "--box", "0,1"]) == 0
        assert capsys.readouterr().out.strip() == "[0.0, 1.5]"

        out2 = tmp_path / "n2.net"
        main(["fixtures", "--name", "fig2-n2", "--out", str(out2)])
        capsys.readouterr()
        assert main(["propagate", "--net", str(out2), "--box", "0,1"]) == 0
        assert capsys.readouterr().out.strip() == "[0.0, 1.0]"

    def test_propagate_point_box(self, tmp_path, capsys):
        out = tmp_path / "n1.net"
        main(["fixtures", "--name", "fig2-n1", "--out", str(out)])
        capsys.readouterr()
        main(["propagate", "--net", str(out), "--box", "0.25,0.25"])
        assert capsys.readouterr().out.strip() == "[0.75, 0.75]"

    def test_repeated_calls_in_one_process(self, tmp_path, capsys):
        out = tmp_path / "n1.net"
        main(["fixtures", "--name", "fig2-n1", "--out", str(out)])
        for box, want in [("0,1", "[0.0, 1.5]"), ("0.25,0.25", "[0.75, 0.75]")] * 2:
            assert main(["propagate", "--net", str(out)]) == 3
            capsys.readouterr()
            assert main(["propagate", "--net", str(out), "--box", box]) == 0
            assert capsys.readouterr().out.strip() == want

    def test_unknown_fixture_is_usage_error(self, tmp_path):
        assert main(["fixtures", "--name", "nope", "--out", str(tmp_path / "x")]) == 3

    def test_build_verify_cycle(self, tmp_path, capsys):
        net_path = tmp_path / "id.net"
        code = main(
            [
                "build",
                "--expr",
                "x0",
                "--domain",
                "0,1",
                "--delta",
                "0.5",
                "--out",
                str(net_path),
            ]
        )
        assert code == 0
        assert os.path.exists(net_path)
        assert os.path.exists(str(net_path) + ".report")
        report_path = tmp_path / "verify.txt"
        code = main(
            [
                "verify",
                "--net",
                str(net_path),
                "--expr",
                "x0",
                "--boxes",
                "60",
                "--seed",
                "5",
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        text = report_path.read_text()
        assert "failures 0" in text

    def test_verify_determinism(self, tmp_path, cubic_net):
        _, _, _, net_path = cubic_net
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        args = ["verify", "--net", net_path, "--expr", CUBIC, "--boxes", "40", "--seed", "11"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_verify_detects_corruption(self, tmp_path, cubic_net):
        f, net, report, _ = cubic_net
        bad = corrupt_output_bias(net, 2 * report.delta)
        bad_path = tmp_path / "bad.net"
        netio.save(bad, str(bad_path))
        code = main(
            ["verify", "--net", str(bad_path), "--expr", CUBIC, "--boxes", "80", "--seed", "42",
             "--out", str(tmp_path / "r.txt")]
        )
        assert code == 1

    def test_zero_delta_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["build", "--expr", "x0", "--domain", "0,1", "--delta", "0",
             "--out", str(tmp_path / "x.net")]
        )
        assert code == 3
        assert "delta must be positive" in capsys.readouterr().err

    def test_nan_delta_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["build", "--expr", "x0", "--domain", "0,1", "--delta", "nan",
             "--out", str(tmp_path / "x.net")]
        )
        assert code == 3
        assert "delta must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["-1e-9", "nan", "inf"])
    def test_bad_tolerance_is_usage_error(self, tmp_path, capsys, cubic_net, tolerance):
        _, _, _, net_path = cubic_net
        code = main(
            ["verify", "--net", net_path, "--expr", CUBIC, "--boxes", "20", "--tolerance", tolerance,
             "--out", str(tmp_path / "r.txt")]
        )
        assert code == 3
        assert "tolerance must be nonnegative" in capsys.readouterr().err

    def test_infinite_tolerance_cannot_pass_a_wrong_network(self, tmp_path, capsys):
        # x0*x1's network checked against x0 + x1 fails on most boxes; an
        # infinite tolerance would let every box hold, so it is a usage error.
        net_path = str(tmp_path / "product.net")
        assert main(["build", "--expr", "x0*x1", "--domain", "0,1;0,1", "--delta", "0.5", "--out", net_path]) == 0
        args = ["verify", "--net", net_path, "--expr", "x0 + x1", "--boxes", "20", "--out", str(tmp_path / "r.txt")]
        assert main(args) == 1
        assert "failures 14" in capsys.readouterr().out
        assert main(args + ["--tolerance", "inf"]) == 3
        assert "tolerance must be nonnegative and finite, got inf" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path):
        code = main(
            ["build", "--expr", "x9 +", "--domain", "0,1", "--delta", "0.5",
             "--out", str(tmp_path / "x.net")]
        )
        assert code == 3

    def test_box_dimension_mismatch(self, tmp_path):
        out = tmp_path / "n1.net"
        main(["fixtures", "--name", "fig2-n1", "--out", str(out)])
        assert main(["propagate", "--net", str(out), "--box", "0,1;0,1"]) == 3

    def test_budget_exit_code(self, tmp_path):
        code = main(
            ["build", "--expr", CUBIC, "--domain", "-2,2", "--delta", "1.6",
             "--out", str(tmp_path / "x.net"), "--budget", "10"]
        )
        assert code == 2

    def test_unbounded_grid_exit_code(self, tmp_path, capsys):
        code = main(
            ["build", "--expr", "x0*x1", "--domain", "0,5e-324;0,1", "--delta", "0.25",
             "--out", str(tmp_path / "x.net")]
        )
        assert code == cli.EXIT_BUDGET
        err = capsys.readouterr().err
        assert err.startswith("error: axis 0 ") and err.count("\n") == 1
        assert not (tmp_path / "x.net").exists()

    def test_astronomical_candidate_count_prints_short(self, tmp_path, capsys):
        # a 1e-300-wide axis asks for about 1.5e600 candidates, once a 604-digit integer
        code = main(
            ["build", "--expr", "x0*x1", "--domain", "0,1e-300;0,1", "--delta", "0.25",
             "--out", str(tmp_path / "x.net")]
        )
        assert code == cli.EXIT_BUDGET
        err = capsys.readouterr().err
        assert err.startswith("error: 1.500e+600 candidate rectangles exceed the budget 5000000;")
        assert err.count("\n") == 1 and len(err) < 200

    def test_oracle_budget_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "DEFAULT_BUDGET", cli.BuildBudget(max_oracle_samples=200))
        code = main(
            ["build", "--expr", CUBIC, "--domain", "-2,2", "--delta", "1.6",
             "--out", str(tmp_path / "x.net")]
        )
        assert code == cli.EXIT_BUDGET
        assert "sample budget" in capsys.readouterr().err
        assert not (tmp_path / "x.net").exists()

    def test_budget_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BOXCERT_BUDGET", "10")
        code = main(
            ["build", "--expr", CUBIC, "--domain", "-2,2", "--delta", "1.6",
             "--out", str(tmp_path / "x.net")]
        )
        assert code == 2
        # explicit flag overrides the environment
        code = main(
            ["build", "--expr", CUBIC, "--domain", "-2,2", "--delta", "1.6",
             "--out", str(tmp_path / "y.net"), "--budget", "100000"]
        )
        assert code == 0

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_non_positive_budget_flag_is_a_usage_error(self, tmp_path, capsys, budget):
        code = main(
            ["build", "--expr", CUBIC, "--domain", "-2,2", "--delta", "1.6",
             "--out", str(tmp_path / "x.net"), "--budget", budget]
        )
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: --budget must be at least 1, got {budget}\n"
        assert not (tmp_path / "x.net").exists()

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_non_positive_budget_env_var_is_a_usage_error(self, tmp_path, monkeypatch, capsys, budget):
        monkeypatch.setenv("BOXCERT_BUDGET", budget)
        code = main(
            ["build", "--expr", CUBIC, "--domain", "-2,2", "--delta", "1.6",
             "--out", str(tmp_path / "x.net")]
        )
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: BOXCERT_BUDGET must be at least 1, got {budget}\n"
        assert not (tmp_path / "x.net").exists()

    def test_missing_subcommand_usage(self):
        assert main([]) == 3

    def test_expr_file_and_report_contents(self, tmp_path, capsys):
        expr_path = tmp_path / "f.expr"
        expr_path.write_text(CUBIC + "\n")
        net_path = tmp_path / "c.net"
        code = main(
            ["build", "--expr-file", str(expr_path), "--domain", "-2,2", "--delta", "1.6",
             "--out", str(net_path)]
        )
        assert code == 0
        report_text = (tmp_path / "c.net.report").read_text()
        assert report_text.startswith("boxcert-report 1\n")
        assert "slices 5" in report_text

    def test_zero_boxes_cli_exit_zero(self, tmp_path, cubic_net):
        _, _, _, net_path = cubic_net
        out = tmp_path / "empty.txt"
        code = main(
            ["verify", "--net", net_path, "--expr", CUBIC, "--boxes", "0", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 0
        assert "summary boxes 0 failures 0" in out.read_text()

    def test_plot_data_1d(self, tmp_path, cubic_net):
        _, _, report, net_path = cubic_net
        out = tmp_path / "plot.csv"
        code = main(
            ["plot-data", "--net", net_path, "--expr", CUBIC, "--samples", "401",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x0,f,n,box_lo,box_hi"
        assert len(lines) == 402
        worst = 0.0
        for ln in lines[1:]:
            x, fv, nv, blo, bhi = (float(t) for t in ln.split(","))
            worst = max(worst, abs(fv - nv))
            assert blo <= nv + 1e-9 and nv <= bhi + 1e-9
        assert worst <= report.delta + 1e-9

    def test_plot_data_constant_network(self, tmp_path):
        net_path = tmp_path / "const.net"
        main(["build", "--expr", "1", "--domain", "0,1", "--delta", "0.1",
              "--out", str(net_path)])
        out = tmp_path / "const.csv"
        assert main(
            ["plot-data", "--net", str(net_path), "--expr", "1", "--samples", "21",
             "--out", str(out)]
        ) == 0
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        assert {row[2] for row in rows} == {"1.0"}

    def test_plot_data_2d_shape(self, tmp_path):
        net_path = tmp_path / "m.net"
        main(["build", "--expr", "min(x0, x1)", "--domain", "0,1;0,1", "--delta", "0.5",
              "--out", str(net_path)])
        out = tmp_path / "plot2.csv"
        code = main(
            ["plot-data", "--net", str(net_path), "--expr", "min(x0, x1)", "--samples", "11",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x0,x1,f,n,box_lo,box_hi"
        assert len(lines) == 1 + 11 * 11

    @pytest.mark.parametrize("boxes_per_pass", [7, network.PASS_BOXES])
    def test_plot_data_rows_match_per_cell_evaluation(self, tmp_path, cubic_net, monkeypatch, boxes_per_pass):
        # Passes of 7 boxes split rows of the 2-d grid across passes.
        monkeypatch.setattr(network, "PASS_BOXES", boxes_per_pass)
        square = BoxRegion.from_pairs([(0.0, 1.0), (0.0, 1.0)])
        prod = parse_func("x0*x1", 2, square)
        prod_net, _ = build_certified_network(prod, 0.5)
        prod_path = tmp_path / "prod.net"
        netio.save(prod_net, str(prod_path))
        f1, net1, _, path1 = cubic_net
        for f, net, path, expr, samples in (
            (f1, net1, path1, CUBIC, 41),
            (prod, prod_net, str(prod_path), "x0*x1", 9),
        ):
            out = tmp_path / "rows.csv"
            assert main(["plot-data", "--net", path, "--expr", expr, "--samples", str(samples),
                         "--out", str(out)]) == 0
            axes = []
            for b in f.domain.bounds:
                step = (b.hi - b.lo) / (samples - 1)
                axes.append([b.lo + i * step for i in range(samples)])
            want = []
            for idx in itertools.product(range(samples), repeat=len(axes)):
                x = [axis[i] for axis, i in zip(axes, idx)]
                cell = BoxRegion.from_pairs(
                    [(axis[i], axis[min(i + 1, samples - 1)]) for axis, i in zip(axes, idx)]
                )
                prop = eval_abstract(net, cell).bounds[0]
                coords = ",".join(repr(v) for v in x)
                want.append(f"{coords},{f.eval(x)!r},{eval_concrete(net, x)[0]!r},"
                            f"{prop.lo!r},{prop.hi!r}")
            assert out.read_text().splitlines()[1:] == want

    def test_plot_data_rejects_3d(self, tmp_path):
        path = tmp_path / "id3.net"
        netio.save(identity_network(3), str(path))
        code = main(
            ["plot-data", "--net", str(path), "--expr", "x0", "--out", str(tmp_path / "p.csv")]
        )
        assert code == 3

    def test_stats_lists_every_node_and_the_stage_count(self, cubic_net, capsys):
        _, net, report, path = cubic_net
        assert main(["stats", "--net", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "node kind width relus terms"
        rows = [line.split() for line in lines[1:-1]]
        assert [(int(r[0]), r[1], int(r[2])) for r in rows] == [
            (i, node.kind, net.arity(i)) for i, node in enumerate(net.nodes)
        ]
        assert sum(int(r[3]) for r in rows) == report.relu_count
        assert rows[-1][1:] == ["affine", "1", "0", str(report.slice_count)]  # the sum over the slices
        assert lines[-1] == f"stages {len(net.program.stages)}"


# sha256 of `boxcert stats` on the served networks, as the version-3 code
# printed it when it counted terms row by row.
SERVED_STATS = (
    ("-x0*x0*x0 + 3*x0", [(-2.0, 2.0)], 0.4, "4bae306c2d24c74c84bb4ffacf7d5cafe830cdc7f22385b25b9d15ad392a9d04"),
    ("x0*x1", [(0.0, 1.0), (0.0, 1.0)], 0.5, "8f1fe22ccb65349b93c685847df12b5a003d8c8551cfd2a53f80e3fe90d1bfe1"),
    ("abs(x0 - 0.5)*relu(x1)", [(0.0, 1.0), (0.0, 1.0)], 0.25,
     "3a8d93013596f8c3eeb3a8cf2648ac37b805b19898fa48bdd30a4c7df81220dd"),
)


@pytest.mark.parametrize("expr, domain, delta, stats_sha", SERVED_STATS, ids=["cubic", "product", "abs-relu"])
def test_stats_output_is_pinned(tmp_path, capsys, expr, domain, delta, stats_sha):
    net, _ = build_certified_network(parse_func(expr, len(domain), BoxRegion.from_pairs(domain)), delta)
    path = tmp_path / "served.net"
    netio.save(net, str(path))
    assert main(["stats", "--net", str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stats_sha


def test_report_lines_stream_in_chunks(cubic_net, tmp_path, monkeypatch, capsys):
    f, net, _, path = cubic_net
    report = verify_network(net, f, RunConfig(boxes=10, seed=3, oracle_budget=64))
    assert 0 < report.inconclusive < 10
    whole = report.to_document()
    monkeypatch.setattr(verify, "LINE_BOXES", 3)
    lines = list(report.lines())
    assert "".join(lines) == whole
    assert all(line.count("\n") == 1 and line.endswith("\n") for line in lines)
    report.save(str(tmp_path / "report"))
    assert (tmp_path / "report").read_text() == whole
    capsys.readouterr()
    main(["verify", "--net", path, "--expr", CUBIC, "--boxes", "10", "--seed", "3"])
    assert capsys.readouterr().out == verify_network(net, f, RunConfig(boxes=10, seed=3)).to_document()


def test_saving_a_report_does_not_hold_its_document(tmp_path):
    f = parse_func("x0*x1", 2, BoxRegion.from_pairs([(0.0, 1.0), (0.0, 1.0)]))
    net, _ = build_certified_network(f, 0.5)
    report = verify_network(net, f, RunConfig(boxes=10_000, seed=0))
    path = tmp_path / "report"
    tracemalloc.start()
    try:
        report.save(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the lines of LINE_BOXES boxes at a time (0.5 MB), not the 2.4 MB document
    assert peak < path.stat().st_size / 3
