"""End-to-end checks of the command line interface."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import nerfcert
from nerfcert import (
    FrameMatrix,
    GeneratorSpec,
    bounds,
    orbit_signed_permutations,
    verify_group_invariance,
    verify_untf,
    write_frame,
)
from nerfcert import cli
from nerfcert.cli import (
    EXIT_INFEASIBLE,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_USAGE_IO,
    main,
)


def _header(**edits):
    """The 4x12 eps^2 1/2 bounds-CSV header line with keys replaced, or
    dropped where the new value is None."""
    meta = {"M": 4, "N": 12, "epsilon_sq": 0.5, "L": 6,
            "delta": 0.7790778080544442, "net_points_used": 44, **edits}
    return "# " + json.dumps({k: v for k, v in meta.items() if v is not None})


def _moved(column, by):
    """An edit of a bounds-CSV row: the cell in ``column`` plus ``by``."""
    def edit(row):
        cells = row.split(",")
        cells[column] = repr(float(cells[column]) + by)
        return ",".join(cells)
    return edit


@pytest.fixture()
def frame_file(tmp_path):
    path = tmp_path / "frame.txt"
    assert main(["gen-frame", "-M", "4", "-k", "2", "-o", str(path)]) == EXIT_OK
    return path


@pytest.fixture()
def broken_pair(frame_file, tmp_path, capsys):
    """A random unit-norm 4x12 frame, whose exact bounds leave the 4x12
    orbit's eps^2 1/2 intervals from K=9 on, and that orbit's bounds CSV."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 12))
    write_frame(FrameMatrix(a / np.linalg.norm(a, axis=0)), tmp_path / "rand.txt")
    assert main(["estimate", "-f", str(frame_file), "--eps-sq", "0.5",
                 "-o", str(tmp_path / "b.csv")]) == EXIT_OK
    capsys.readouterr()
    return tmp_path / "rand.txt", tmp_path / "b.csv"


class TestGenFrame:
    def test_header_4_12(self, frame_file):
        assert frame_file.read_text().splitlines()[0] == "4 12"

    def test_header_8_560(self, tmp_path):
        path = tmp_path / "f8.txt"
        code = main(["gen-frame", "-M", "8", "-k", "4", "-o", str(path)])
        assert code == EXIT_OK
        assert path.read_text().splitlines()[0] == "8 560"

    @pytest.mark.parametrize("M, k, digest", [
        (3, 1, "6e119be3425fd0e38152c8c6ef714a4a3033d37e32e856002e1d9f053f6ba985"),
        (4, 2, "f5387066c8cf1ac482f0459e355eda5c49eba5928672d6df3182719bb172228a"),
        (5, 5, "799e75ac815853c20b7fba2cb8970c522a115df2ccf19d97a14467740a7a700f"),
        (7, 7, "7025131bc8f23d97a55062a7bb88cd84c3d1b4e5f68f2865858bfad7cfaa1a40"),
        (8, 4, "ac26838413ffb34bc11b221373f2fef42abcd54964439c69c40f229c6d0bc883"),
    ])
    def test_file_bytes_pinned(self, tmp_path, M, k, digest):
        path = tmp_path / "frame.txt"
        assert main(["gen-frame", "-M", str(M), "-k", str(k),
                     "-o", str(path)]) == EXIT_OK
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_reports_size(self, frame_file, capsys):
        main(["gen-frame", "-M", "6", "-k", "3", "-o", str(frame_file)])
        out = capsys.readouterr().out
        assert "N=80" in out

    def test_bad_support(self, tmp_path, capsys):
        code = main(
            ["gen-frame", "-M", "4", "-k", "9", "-o", str(tmp_path / "x")]
        )
        assert code == EXIT_USAGE_IO
        assert "error" in capsys.readouterr().err


class TestBuildNet:
    def test_json_payload(self, tmp_path):
        path = tmp_path / "net.json"
        code = main(
            ["build-net", "-M", "4", "--eps-sq", "0.5", "-o", str(path)]
        )
        assert code == EXIT_OK
        payload = json.loads(path.read_text())
        assert payload["L"] == 6
        assert payload["cardinality_full"] == "126"
        assert isinstance(payload["cardinality_pruned"], int)


class TestEstimate:
    def test_csv_and_report(self, frame_file, tmp_path):
        csv = tmp_path / "bounds.csv"
        rep = tmp_path / "run.json"
        code = main(
            [
                "estimate", "-f", str(frame_file), "--eps-sq", "0.5",
                "-o", str(csv), "--report", str(rep),
            ]
        )
        assert code == EXIT_OK
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("# {")
        assert len(lines) == 2 + 12
        payload = json.loads(rep.read_text())
        assert payload["status"] == "ok"
        assert payload["config"]["M"] == 4
        assert "rng_seed" not in payload["config"]
        assert "cap_mode" not in payload["config"]
        assert payload["results"]["min_spanning_K"] == 10
        assert payload["timings_s"]["sweep"] >= 0
        assert payload["counts"]["chunk_rows"] == 4096
        rate = payload["rates"]["sweep_points_per_s"]
        assert rate == pytest.approx(
            payload["counts"]["net_points_used"] / payload["timings_s"]["sweep"]
        )
        peak = payload["memory"]["peak_rss_mb"]
        assert isinstance(peak, float) and peak > 0

    def test_peak_rss_not_inherited_from_launcher(self, frame_file, tmp_path):
        # On Linux ru_maxrss starts at the launching process's resident
        # size; the reported peak must be the child's own.
        hold = np.ones(26 * 2**20)  # 208 MiB, touched
        rep = tmp_path / "run.json"
        src = str(Path(nerfcert.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [
                sys.executable, "-m", "nerfcert.cli", "estimate",
                "-f", str(frame_file), "--eps-sq", "0.5",
                "-o", str(tmp_path / "bounds.csv"), "--report", str(rep),
            ],
            env=env, capture_output=True, timeout=120,
        )
        del hold
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(rep.read_text())["memory"]["peak_rss_mb"] < 150

    def test_peak_rss_fallback_units(self, monkeypatch):
        # Without /proc/self/status the peak is ru_maxrss, which macOS
        # gives in bytes and Linux in KiB: 50 MiB must read 50 on both.
        def no_proc(*args, **kwargs):
            raise OSError("no /proc")

        monkeypatch.setattr(cli, "open", no_proc, raising=False)
        peaks = {}
        for platform, maxrss in (("linux", 50 * 2**10), ("darwin", 50 * 2**20)):
            monkeypatch.setattr(sys, "platform", platform)
            monkeypatch.setattr(cli.resource, "getrusage",
                                lambda who, r=maxrss: SimpleNamespace(ru_maxrss=r))
            peaks[platform] = cli._peak_rss_mb()
        assert peaks == {"linux": 50.0, "darwin": 50.0}

    def test_byte_identical_across_threads(self, frame_file, tmp_path):
        out = {}
        for threads in ("1", "8"):
            csv = tmp_path / f"bounds{threads}.csv"
            code = main(
                [
                    "estimate", "-f", str(frame_file), "--eps-sq", "0.25",
                    "--threads", threads, "-o", str(csv),
                ]
            )
            assert code == EXIT_OK
            out[threads] = csv.read_bytes()
        assert out["1"] == out["8"]

    def test_threads_above_16_per_cpu_refused(
        self, frame_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(bounds.os, "cpu_count", lambda: 2)
        csv = tmp_path / "x.csv"
        code = main(["estimate", "-f", str(frame_file), "--eps-sq", "0.5",
                     "--threads", "33", "-o", str(csv)])
        assert code == EXIT_USAGE_IO
        assert capsys.readouterr().err.startswith("error: threads must be")
        assert not csv.exists()

    def test_missing_frame_args(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["estimate", "--eps-sq", "0.5", "-o", str(tmp_path / "x.csv")])
        assert err.value.code == EXIT_USAGE_IO

    def test_non_finite_frame_rejected(self, frame_file, tmp_path, capsys):
        lines = frame_file.read_text().splitlines()
        lines[1] = " ".join(["nan"] * 4)
        frame_file.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "estimate", "-f", str(frame_file), "--eps-sq", "0.5",
                "-o", str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_USAGE_IO
        assert "non-finite" in capsys.readouterr().err

    def test_invariant_violation_exit_code(
        self, frame_file, tmp_path, monkeypatch, capsys
    ):
        kernel = bounds._chunk_accumulate

        def lose_witnesses(phi, psi_rows, offset, alpha, argmin, buf):
            kernel(phi, psi_rows, offset, alpha, argmin, buf)
            argmin[:] = bounds._NO_RANK

        monkeypatch.setattr(bounds, "_chunk_accumulate", lose_witnesses)
        csv = tmp_path / "x.csv"
        code = main(
            ["estimate", "-f", str(frame_file), "--eps-sq", "0.5", "-o", str(csv)]
        )
        assert code == EXIT_INVARIANT
        assert "no witness" in capsys.readouterr().err
        assert not csv.exists()

    def _estimate_frame(self, phi, tmp_path):
        """Exit code of ``estimate`` on the frame phi, and its CSV path."""
        path, csv = tmp_path / "frame.txt", tmp_path / "x.csv"
        write_frame(FrameMatrix(phi), path)
        code = main(
            ["estimate", "-f", str(path), "--eps-sq", "0.5", "-o", str(csv)]
        )
        return code, csv

    def test_non_invariant_frame_refused(self, tmp_path, capsys):
        # Unit norm but neither invariant nor tight: the sweep would print
        # false intervals for it.
        phi = np.random.default_rng(0).normal(size=(4, 12))
        phi /= np.linalg.norm(phi, axis=0)
        code, csv = self._estimate_frame(phi, tmp_path)
        assert code == EXIT_USAGE_IO
        assert "not invariant" in capsys.readouterr().err
        assert not csv.exists()

    def test_scaled_column_refused(self, tmp_path):
        phi = orbit_signed_permutations(GeneratorSpec(4, 2)).matrix.copy()
        phi[:, 0] *= 1.1
        code, csv = self._estimate_frame(phi, tmp_path)
        assert code == EXIT_USAGE_IO
        assert not csv.exists()

    def test_invariant_but_not_unit_norm_refused(self, tmp_path, capsys):
        phi = 1.1 * orbit_signed_permutations(GeneratorSpec(4, 2)).matrix
        code, csv = self._estimate_frame(phi, tmp_path)
        assert code == EXIT_USAGE_IO
        assert "not unit norm" in capsys.readouterr().err
        assert not csv.exists()

    def test_invariant_within_tol_but_not_tight_refused(self, tmp_path, capsys):
        # Row 0 stretched by 9e-10 and the columns renormalised: every entry
        # moves by under 4e-10, so the invariance check passes, but the
        # frame-operator defect (about 3e-9) would shift the derived beta_eps.
        phi = orbit_signed_permutations(GeneratorSpec(4, 2)).matrix.copy()
        phi[0] *= 1.0 + 9e-10
        phi /= np.linalg.norm(phi, axis=0)
        frame = FrameMatrix(phi)
        assert verify_group_invariance(frame)
        assert verify_untf(frame).is_unit_norm
        assert not verify_untf(frame).is_tight
        code, csv = self._estimate_frame(phi, tmp_path)
        assert code == EXIT_USAGE_IO
        assert "not tight" in capsys.readouterr().err
        assert not csv.exists()

    def test_relabelled_orbit_accepted(self, tmp_path):
        rng = np.random.default_rng(7)
        phi = orbit_signed_permutations(GeneratorSpec(4, 2)).matrix
        phi = phi[:, rng.permutation(12)] * rng.choice((-1.0, 1.0), size=12)
        code, csv = self._estimate_frame(phi, tmp_path)
        assert code == EXIT_OK
        assert csv.exists()

    def test_orbit_union_accepted(self, tmp_path):
        # Two orbits side by side: invariant, unit norm and tight (N/M = 4).
        phi = np.hstack([
            orbit_signed_permutations(GeneratorSpec(4, k)).matrix
            for k in (1, 2)
        ])
        code, csv = self._estimate_frame(phi, tmp_path)
        assert code == EXIT_OK
        assert csv.exists()

    @pytest.mark.parametrize("mode", ["general", "combined"])
    def test_removed_cap_mode_is_usage_error(self, frame_file, tmp_path, mode):
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "estimate", "-f", str(frame_file), "--eps-sq", "0.5",
                    "--cap-mode", mode, "-o", str(tmp_path / "x.csv"),
                ]
            )
        assert err.value.code == EXIT_USAGE_IO

    def test_default_cap_is_untf(self, frame_file, tmp_path):
        # eps^2 = 1/2 is where the former default cap moved alpha_lower
        # (at K = 1, 2).
        out = []
        for extra in ([], ["--cap-mode", "untf"]):
            csv = tmp_path / f"bounds{len(extra)}.csv"
            argv = ["estimate", "-f", str(frame_file), "--eps-sq", "0.5",
                    "-o", str(csv)]
            assert main(argv + extra) == EXIT_OK
            out.append(csv.read_bytes())
        assert out[0] == out[1]

    def test_unreadable_frame(self, tmp_path):
        code = main(
            [
                "estimate", "-f", str(tmp_path / "missing.txt"),
                "--eps-sq", "0.5", "-o", str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_USAGE_IO


class TestOracle:
    def test_csv(self, frame_file, tmp_path):
        out = tmp_path / "oracle.csv"
        code = main(
            [
                "oracle", "-f", str(frame_file), "--k-min", "10",
                "--k-max", "12", "-o", str(out),
            ]
        )
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 4

    def test_budget_exit_code(self, frame_file, tmp_path):
        code = main(
            [
                "oracle", "-f", str(frame_file), "--budget", "10",
                "-o", str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_INFEASIBLE

    @pytest.mark.parametrize(
        "k_min, k_max, named",
        [("6", "6", "C(12,6) = 924 "), ("5", "7", "K in [5, 7] = 2508 ")],
    )
    def test_budget_message_names_K(
        self, frame_file, tmp_path, capsys, k_min, k_max, named
    ):
        code = main(
            [
                "oracle", "-f", str(frame_file), "--k-min", k_min,
                "--k-max", k_max, "--budget", "100",
                "-o", str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert named in err
        assert "-1" not in err

    def test_sandwich_check_passes(self, frame_file, tmp_path, capsys):
        est = tmp_path / "bounds.csv"
        main(
            [
                "estimate", "-f", str(frame_file), "--eps-sq", "0.5",
                "-o", str(est),
            ]
        )
        code = main(
            [
                "oracle", "-f", str(frame_file), "--k-min", "7",
                "--k-max", "12", "--check", str(est),
                "-o", str(tmp_path / "oracle.csv"),
            ]
        )
        assert code == EXIT_OK
        assert "sandwich verified" in capsys.readouterr().out

    def test_sandwich_violation_exit_code(self, broken_pair, tmp_path, capsys):
        rand, est = broken_pair
        code = main(["oracle", "-f", str(rand), "--k-min", "9", "--check",
                     str(est), "-o", str(tmp_path / "o.csv")])
        assert code == EXIT_INVARIANT
        out, err = capsys.readouterr()
        assert err.startswith("error: sandwich violated at K=9:")
        assert "Traceback" not in err
        assert "sandwich verified" not in out

    @pytest.mark.parametrize("M, k", [("5", "2"), ("12", "1")])
    def test_check_from_another_frame_refused(
        self, frame_file, tmp_path, capsys, M, k
    ):
        # A 4x12 estimate against a 5x20 frame (N differs) and against the
        # 12x12 frame of the standard basis (N matches, M does not).
        est, other = tmp_path / "bounds.csv", tmp_path / "other.txt"
        main(["estimate", "-f", str(frame_file), "--eps-sq", "0.5",
              "-o", str(est)])
        main(["gen-frame", "-M", M, "-k", k, "-o", str(other)])
        capsys.readouterr()
        code = main(
            [
                "oracle", "-f", str(other), "--k-min", "12", "--check",
                str(est), "-o", str(tmp_path / "oracle.csv"),
            ]
        )
        assert code == EXIT_USAGE_IO
        err = capsys.readouterr().err
        assert err.startswith("error:") and "4x12 frame" in err
        assert "Traceback" not in err


class TestMalformedInput:
    """Unparseable input files exit 2 with a message naming the file."""

    @pytest.fixture()
    def estimate_csv(self, frame_file, tmp_path):
        path = tmp_path / "bounds.csv"
        main(["estimate", "-f", str(frame_file), "--eps-sq", "0.5",
              "-o", str(path)])
        return path

    def assert_refused(self, argv, path, capsys):
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE_IO
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert "Traceback" not in err
        return err

    def test_non_numeric_frame_entry(self, frame_file, tmp_path, capsys):
        lines = frame_file.read_text().splitlines()
        lines[1] = "1 0 0 x"
        frame_file.write_text("\n".join(lines) + "\n")
        argv = ["estimate", "-f", str(frame_file), "--eps-sq", "0.5",
                "-o", str(tmp_path / "x.csv")]
        self.assert_refused(argv, frame_file, capsys)

    def test_non_utf8_frame(self, frame_file, tmp_path, capsys):
        lines = frame_file.read_bytes().splitlines(keepends=True)
        lines[1] = b"\xff" + lines[1]
        frame_file.write_bytes(b"".join(lines))
        argv = ["estimate", "-f", str(frame_file), "--eps-sq", "0.5",
                "-o", str(tmp_path / "x.csv")]
        self.assert_refused(argv, frame_file, capsys)

    @pytest.mark.parametrize("command", ["oracle", "report"])
    def test_non_utf8_bounds_csv(
        self, frame_file, estimate_csv, tmp_path, capsys, command
    ):
        lines = estimate_csv.read_bytes().splitlines(keepends=True)
        lines[2] = b"\xff" + lines[2]
        estimate_csv.write_bytes(b"".join(lines))
        out = str(tmp_path / "out.csv")
        argv = {
            "oracle": ["oracle", "-f", str(frame_file), "--k-min", "12",
                       "--check", str(estimate_csv), "-o", out],
            "report": ["report", "--estimate", str(estimate_csv), "-o", out],
        }[command]
        self.assert_refused(argv, estimate_csv, capsys)

    @pytest.mark.parametrize(
        "line, text",
        [
            (0, '# {"M": 4'),
            (0, _header(N=None)),
            (2, "1,0.5,x,0,0,0,0"),
            (2, "1,0.5"),
            (0, _header(N=12.0)),
            (0, _header(M=True)),
            (2, "1,nan,0,-1.5,0,-8,3"),
            (2, "1,inf,0,-1.5,0,-8,3"),
            (2, "1,0,0,nan,0,-8,3"),
            (0, _header(L=None)),
            (0, _header(delta=None)),
            (0, _header(net_points_used=None)),
            (0, _header(epsilon_sq="abc")),
            (0, _header(L=7.0)),
            (0, _header(delta="x")),
            (0, _header(net_points_used=None)[:-1] + ', "net_points_used": null}'),
            (0, _header(net_points_used=-3)),
            (0, _header(L=2)),
            (0, _header(delta=0.5)),
            (1, "K,beta_eps,alpha_eps,alpha_lower,beta_upper,trivial_lower,"
                "trivial_upper"),
            (1, "bounds of the 4x12 orbit"),
            (2, _moved(2, 0.5)),
            (5, _moved(5, 0.5)),
        ],
        ids=[
            "truncated_header", "header_without_N", "non_numeric_cell",
            "short_row", "float_N", "bool_M", "nan_alpha_eps",
            "inf_alpha_eps", "nan_alpha_lower_cell", "header_without_L",
            "header_without_delta", "header_without_net_points_used",
            "text_epsilon_sq", "float_L", "text_delta",
            "null_net_points_used", "negative_net_points_used",
            "L_below_min_levels", "delta_not_of_L", "columns_reordered",
            "columns_replaced_by_text", "beta_eps_cell_moved",
            "trivial_lower_cell_moved",
        ],
    )
    def test_malformed_bounds_csv(
        self, estimate_csv, tmp_path, capsys, line, text
    ):
        # A line is replaced by ``text``, or edited by it.  The last four
        # cases parse: they are refused because the writer would not write
        # them for the table the file's header and read columns give.
        lines = estimate_csv.read_text().splitlines()
        lines[line] = text(lines[line]) if callable(text) else text
        estimate_csv.write_text("\n".join(lines) + "\n")
        argv = ["report", "--estimate", str(estimate_csv),
                "-o", str(tmp_path / "merged.csv")]
        self.assert_refused(argv, estimate_csv, capsys)

    @pytest.mark.parametrize("command", ["oracle", "report"])
    def test_net_that_does_not_cover_refused(
        self, frame_file, estimate_csv, tmp_path, capsys, command
    ):
        # At eps^2 0.05 two levels do not cover (min_levels gives 144): a
        # header naming that net would certify bounds the frame breaks.
        lines = estimate_csv.read_text().splitlines()
        lines[0] = _header(epsilon_sq=0.05, L=2, delta=nerfcert.delta_for(4, 2))
        estimate_csv.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "out.csv")
        argv = {
            "oracle": ["oracle", "-f", str(frame_file), "--check",
                       str(estimate_csv), "-o", out],
            "report": ["report", "--estimate", str(estimate_csv), "-o", out],
        }[command]
        err = self.assert_refused(argv, estimate_csv, capsys)
        assert "L is below min_levels" in err

    @pytest.mark.parametrize(
        "row", ["1,nan,0,-1.5,0,-8,3", "1,0,-inf,-1.5,0,-8,3"],
        ids=["nan_alpha_eps", "neg_inf_beta_eps"],
    )
    def test_non_finite_bounds_csv_refused_by_check(
        self, frame_file, estimate_csv, tmp_path, capsys, row
    ):
        lines = estimate_csv.read_text().splitlines()
        lines[2] = row
        estimate_csv.write_text("\n".join(lines) + "\n")
        argv = ["oracle", "-f", str(frame_file), "--k-min", "12", "--check",
                str(estimate_csv), "-o", str(tmp_path / "oracle.csv")]
        self.assert_refused(argv, estimate_csv, capsys)

    @pytest.mark.parametrize("command", ["oracle", "report"])
    def test_nan_endpoints_refused(
        self, frame_file, estimate_csv, tmp_path, capsys, command
    ):
        # NaN alpha_lower and beta_upper in every row, the retired format
        # of a table with no certificate: refused like any non-finite cell.
        lines = estimate_csv.read_text().splitlines()
        for i in range(2, len(lines)):
            cells = lines[i].split(",")
            cells[3] = cells[4] = "nan"
            lines[i] = ",".join(cells)
        estimate_csv.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "out.csv")
        argv = {
            "oracle": ["oracle", "-f", str(frame_file), "--k-min", "12",
                       "--check", str(estimate_csv), "-o", out],
            "report": ["report", "--estimate", str(estimate_csv), "-o", out],
        }[command]
        self.assert_refused(argv, estimate_csv, capsys)

    @pytest.mark.parametrize("command", ["oracle", "report"])
    def test_reordered_bounds_csv(
        self, frame_file, estimate_csv, tmp_path, capsys, command
    ):
        # Rows in reverse: K runs 12..1, so row K=1 would read the K=12
        # values.  Refused as malformed input, not a broken sandwich.
        lines = estimate_csv.read_text().splitlines()
        estimate_csv.write_text("\n".join(lines[:2] + lines[:1:-1]) + "\n")
        out = str(tmp_path / "out.csv")
        argv = {
            "oracle": ["oracle", "-f", str(frame_file), "--k-min", "10",
                       "--check", str(estimate_csv), "-o", out],
            "report": ["report", "--estimate", str(estimate_csv), "-o", out],
        }[command]
        self.assert_refused(argv, estimate_csv, capsys)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: lines[:2] + ["# a comment"] + lines[2:],
            lambda lines: lines[:3] + ["0.5 0.5 0.5"] + lines[4:],
            lambda lines: lines[:1],
        ],
        ids=["comment_line", "short_column", "empty_body"],
    )
    def test_malformed_frame_body(self, frame_file, tmp_path, capsys, edit):
        # A '#' line is data, not a comment: refused, never skipped.  An
        # empty body is refused without a parser warning.
        lines = frame_file.read_text().splitlines()
        frame_file.write_text("\n".join(edit(lines)) + "\n")
        argv = ["estimate", "-f", str(frame_file), "--eps-sq", "0.5",
                "-o", str(tmp_path / "x.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_refused(argv, frame_file, capsys)

    def test_non_numeric_oracle_csv(self, estimate_csv, tmp_path, capsys):
        oracle = tmp_path / "oracle.csv"
        oracle.write_text("K,alpha,beta\n12,3.0,oops\n")
        argv = ["report", "--estimate", str(estimate_csv), "--oracle",
                str(oracle), "-o", str(tmp_path / "merged.csv")]
        self.assert_refused(argv, oracle, capsys)

    @pytest.mark.parametrize(
        "row",
        [
            "12,3.0", "0,0,0,1,1,1,4", "13,3,3,1,1,1,4", "12,3,3,1,1,1,4",
            "11,nan,3,1,1,12,4",
        ],
        ids=["short_row", "K_zero", "K_above_N", "duplicate_K", "nan_alpha"],
    )
    def test_malformed_oracle_csv(self, estimate_csv, tmp_path, capsys, row):
        oracle = tmp_path / "oracle.csv"
        oracle.write_text(
            "K,alpha_exact,beta_exact,witness_alpha,witness_beta,"
            f"subsets_examined,M\n12,3,3,1,1,1,4\n{row}\n"
        )
        argv = ["report", "--estimate", str(estimate_csv), "--oracle",
                str(oracle), "-o", str(tmp_path / "merged.csv")]
        self.assert_refused(argv, oracle, capsys)

    def test_oracle_csv_of_another_M_refused(
        self, estimate_csv, tmp_path, capsys
    ):
        # The 12x12 frame of the standard basis has the estimate's N but
        # not its M; its exact alpha_11 = 0 is no bound of the 4x12 frame.
        other, oracle = tmp_path / "other.txt", tmp_path / "oracle.csv"
        main(["gen-frame", "-M", "12", "-k", "1", "-o", str(other)])
        assert main(["oracle", "-f", str(other), "--k-min", "11",
                     "-o", str(oracle)]) == EXIT_OK
        argv = ["report", "--estimate", str(estimate_csv), "--oracle",
                str(oracle), "-o", str(tmp_path / "merged.csv")]
        self.assert_refused(argv, oracle, capsys)

    def test_oracle_csv_of_another_N_refused(self, tmp_path, capsys):
        # The 5x20 orbit's exact bounds at K=15..20 against the 5x40
        # orbit's estimate: same M, K in range, but no bounds of that
        # frame.  Each row examined C(20, K) subsets, not C(40, K).
        f20, f40 = tmp_path / "f20.txt", tmp_path / "f40.txt"
        oracle, est = tmp_path / "o20.csv", tmp_path / "b40.csv"
        main(["gen-frame", "-M", "5", "-k", "2", "-o", str(f20)])
        main(["gen-frame", "-M", "5", "-k", "3", "-o", str(f40)])
        assert main(["oracle", "-f", str(f20), "--k-min", "15",
                     "-o", str(oracle)]) == EXIT_OK
        assert main(["estimate", "-f", str(f40), "--eps-sq", "0.25",
                     "-o", str(est)]) == EXIT_OK
        argv = ["report", "--estimate", str(est), "--oracle", str(oracle),
                "-o", str(tmp_path / "merged.csv")]
        err = self.assert_refused(argv, oracle, capsys)
        assert "not C(40, 15)" in err


def _subcommands():
    """The parser of each subcommand, by name."""
    sub, = (a for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _output_actions():
    """(command, dest) of every output option of every subcommand."""
    return [(name, action.dest) for name, p in _subcommands().items()
            for action in p._actions if action.dest in ("output", "report")]


class TestOutputPaths:
    """Every output path a command names is checked in ``main`` before the
    command starts: one that cannot be written, or that is one of the
    command's inputs or its other output, is refused with exit 2, so no
    work runs and no file is made or overwritten."""

    @pytest.mark.parametrize(
        "detector, argv",
        [("read_frame",
          ["estimate", "-f", "FRAME", "--eps-sq", "0.5", "-o", "OUT"]),
         ("read_frame",
          ["estimate", "-f", "FRAME", "--eps-sq", "0.5", "-o", "x.csv",
           "--report", "OUT"]),
         ("read_frame", ["oracle", "-f", "FRAME", "-o", "OUT"]),
         ("orbit_signed_permutations",
          ["gen-frame", "-M", "4", "-k", "2", "-o", "OUT"]),
         ("pruned_cardinality",
          ["build-net", "-M", "10", "--eps-sq", "0.25", "-o", "OUT"]),
         ("read_bounds_csv", ["report", "--estimate", "FRAME", "-o", "OUT"])],
        ids=["estimate_output", "estimate_report", "oracle_output",
             "gen_frame_output", "build_net_output", "report_output"],
    )
    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_refused_before_the_frame_is_read(
        self, frame_file, tmp_path, capsys, monkeypatch, detector, argv, where
    ):
        def work(*args, **kwargs):
            raise AssertionError(f"{detector} was called")

        monkeypatch.setattr(cli, detector, work)
        monkeypatch.chdir(tmp_path)
        out = {"missing_dir": "missing/out.csv", "directory": str(tmp_path)}[where]
        before = sorted(tmp_path.rglob("*"))
        names = {"OUT": out, "FRAME": str(frame_file)}
        assert main([names.get(a, a) for a in argv]) == EXIT_USAGE_IO
        err = capsys.readouterr().err
        assert err.startswith("error:") and out in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "command, dest",
        [pytest.param(c, d, id=f"{c}-{d}") for c, d in _output_actions()],
    )
    def test_every_output_is_checked(
        self, frame_file, tmp_path, capsys, monkeypatch, command, dest
    ):
        """A missing directory is refused for each output option the parser
        has, before the command's function is called, so no command can
        skip the check."""
        def work(args):
            raise AssertionError(f"{command} started")

        monkeypatch.setattr(cli, "_COMMANDS", dict.fromkeys(cli._COMMANDS, work))
        monkeypatch.chdir(tmp_path)
        argv = [command]
        for action in _subcommands()[command]._actions:
            if action.dest == dest:
                argv += [action.option_strings[0], "missing/out"]
            elif action.required:
                value = {int: "4", float: "0.5"}.get(action.type, str(frame_file))
                if action.dest in ("output", "report"):
                    value = f"{action.dest}.out"
                argv += [action.option_strings[0], value]
        assert main(argv) == EXIT_USAGE_IO
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing/out" in err

    @pytest.mark.parametrize(
        "argv, path",
        [(["estimate", "-f", "frame.txt", "--eps-sq", "0.5", "-o", "frame.txt"],
          "frame.txt"),
         (["estimate", "-f", "frame.txt", "--eps-sq", "0.5", "-o", "b.csv",
           "--report", "b.csv"], "b.csv"),
         (["oracle", "-f", "frame.txt", "--check", "b.csv", "-o", "b.csv"],
          "b.csv"),
         (["oracle", "-f", "frame.txt", "-o", "frame.txt"], "frame.txt"),
         (["report", "--estimate", "b.csv", "-o", "./b.csv"], "./b.csv")],
        ids=["estimate_frame", "estimate_report", "oracle_check",
             "oracle_frame", "report_estimate"],
    )
    def test_output_naming_an_input_refused(
        self, frame_file, tmp_path, capsys, monkeypatch, argv, path
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["estimate", "-f", "frame.txt", "--eps-sq", "0.5",
                     "-o", "b.csv"]) == EXIT_OK
        capsys.readouterr()
        target = tmp_path / Path(path).name
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        assert main(argv) == EXIT_USAGE_IO
        err = capsys.readouterr().err
        assert err.startswith("error:") and path in err
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


class TestReport:
    def test_merged_csv(self, frame_file, tmp_path, capsys):
        est = tmp_path / "bounds.csv"
        ora = tmp_path / "oracle.csv"
        merged = tmp_path / "merged.csv"
        main(
            [
                "estimate", "-f", str(frame_file), "--eps-sq", "0.5",
                "-o", str(est),
            ]
        )
        main(
            [
                "oracle", "-f", str(frame_file), "--k-min", "11",
                "--k-max", "12", "-o", str(ora),
            ]
        )
        code = main(
            [
                "report", "--estimate", str(est), "--oracle", str(ora),
                "-o", str(merged),
            ]
        )
        assert code == EXIT_OK
        lines = merged.read_text().splitlines()
        assert lines[0].split(",")[0] == "K"
        assert len(lines) == 13
        # Rows without oracle data carry NaN placeholders.
        assert "nan" in lines[1]
        assert "nan" not in lines[-1]

    def test_stdout_is_the_output_file(self, frame_file, tmp_path, capsys):
        est, ora, merged = (tmp_path / n for n in ("b.csv", "o.csv", "m.csv"))
        assert main(["estimate", "-f", str(frame_file), "--eps-sq", "0.5",
                     "-o", str(est)]) == EXIT_OK
        assert main(["oracle", "-f", str(frame_file), "--k-min", "11",
                     "-o", str(ora)]) == EXIT_OK
        args = ["report", "--estimate", str(est), "--oracle", str(ora)]
        assert main(args + ["-o", str(merged)]) == EXIT_OK
        capsys.readouterr()
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out.encode() == merged.read_bytes()

    def test_sandwich_violation_refused(self, broken_pair, tmp_path, capsys):
        rand, est = broken_pair
        ora, merged = tmp_path / "o.csv", tmp_path / "m.csv"
        assert main(["oracle", "-f", str(rand), "--k-min", "9",
                     "-o", str(ora)]) == EXIT_OK
        capsys.readouterr()
        code = main(["report", "--estimate", str(est), "--oracle", str(ora),
                     "-o", str(merged)])
        assert code == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert err.startswith("error: sandwich violated at K=9:")
        assert "Traceback" not in err
        assert not merged.exists()


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0


class TestImport:
    def test_no_executor_import_chain(self):
        # The sweep starts plain threads, so importing the command line
        # loads neither concurrent.futures nor the logging it pulls in.
        src = str(Path(nerfcert.__file__).resolve().parents[1])
        code = (
            "import sys, nerfcert.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
