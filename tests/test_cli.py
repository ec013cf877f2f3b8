import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dipolepair import BasisTag, DensityMatrix, checks, cli, dynamics, entanglement
from dipolepair.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def inject_failures(monkeypatch, failures):
    """Make the grid engine fail with the dynamics._FAILURES code failures[k]
    at point k of each stack."""
    solve = entanglement._solve_blocks

    def failing(terms):
        states, codes, quoted = solve(terms)
        for k, code in failures.items():
            states[k] = np.nan
            codes[k] = code
        return states, codes, quoted

    monkeypatch.setattr(entanglement, "_solve_blocks", failing)


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


# ------------------------------------------------------- steady


def test_steady_undriven_is_ground_state(capsys):
    rc, out, _ = run(capsys, "steady", "--efield", "0", "--omega", "5")
    assert rc == 0
    assert "concurrence = 0" in out
    assert "-1=1" in out  # all population in the ground state


def test_steady_lamb_dicke_peak(capsys):
    rc, out, _ = run(capsys, "steady", "--tau", "9.21", "--lamb-dicke")
    assert rc == 0
    line = [ln for ln in out.splitlines() if ln.startswith("concurrence")][0]
    assert abs(float(line.split("=")[1]) - 0.434258541936) < 1e-9


def test_steady_rejects_negative_drive(capsys):
    rc, _, err = run(capsys, "steady", "--efield", "-1", "--omega", "5")
    assert rc == 2
    assert "drive must be >= 0" in err


def test_steady_rejects_conflicting_flags(capsys):
    rc, _, err = run(capsys, "steady", "--efield", "1", "--omega", "5",
                     "--k0r", "0.5")
    assert rc == 2
    rc, _, err = run(capsys, "steady", "--efield", "1")
    assert rc == 2


def test_steady_rejects_non_finite_input(capsys):
    for argv, message in ((("--efield", "nan", "--k0r", "1"), "error: inputs must be finite"),
                          (("--efield", "1", "--k0r", "inf"), "error: k0r must be finite")):
        rc, out, err = run(capsys, "steady", *argv)
        assert rc == 2 and out == ""
        assert err.startswith(message) and err.count("\n") == 1
    # a non-finite coupling reaches the solver, which fails its point with OutOfRange
    rc, out, err = run(capsys, "steady", "--efield", "1", "--omega", "nan")
    assert rc == 2 and out == ""
    assert err == "error: inputs must be finite\n"


def test_steady_at_a_non_unique_steady_state_names_it(capsys):
    # D = 0: no drive, gamma12 = -1, delta = -omega, on the dark line; a
    # package error, so the line carries no "linear algebra failed"
    rc, out, err = run(capsys, "steady", "--efield", "0", "--omega", "2",
                       "--gamma12", "-1", "--delta", "-2")
    assert rc == 2 and out == ""
    assert err == "error: steady state not unique: |0> is dark at drive 0, gamma12 = -1\n"
    # a tiny drive next to it has a unique state, diag(0, 1/2, 1/2, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "steady", "--efield", "1e-160", "--omega", "2",
                           "--gamma12", "-1", "--delta", "-2")
    assert rc == 0 and err == ""
    assert "concurrence = 0.5\n" in out and "populations: +1=" in out


def test_steady_json_format(capsys):
    rc, out, _ = run(capsys, "steady", "--efield", "1", "--k0r", "0.5",
                     "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert abs(sum(payload["populations"]) - 1.0) < 1e-8
    assert 0.0 <= payload["concurrence"] <= 1.0


# ------------------------------------------------------- spectrum


def test_spectrum_undriven_roots(capsys):
    rc, out, _ = run(capsys, "spectrum", "--delta", "0.5", "--omega", "2",
                     "--efield", "0", "--gamma12", "0.3", "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    triplet = sorted(r["energy"] for r in rows if r["branch"] == "triplet")
    assert np.allclose(triplet, [-0.5, 0.5, 2.0], atol=1e-10)
    singlet = [r for r in rows if r["branch"] == "singlet"][0]
    assert abs(singlet["energy"] + 2.0) < 1e-12
    assert abs(singlet["decay"] - 0.7) < 1e-12


@pytest.mark.parametrize("point", [("--efield", "1e-4", "--omega", "1e-4"),
                                   ("--delta", "0.5", "--omega", "2", "--efield", "1")])
def test_spectrum_triplet_energies_are_the_cubics_roots(capsys, point):
    # the roots of eps^3 - omega eps^2 - (delta^2 + 4 E^2) eps + delta^2 omega,
    # descending, at a small-scale and an order-one point; each Vieta
    # relation of degree k holds to 1e-12 S^k, S the largest |root|
    rc, out, _ = run(capsys, "spectrum", *point, "--format", "json")
    assert rc == 0
    flags = dict(zip(point[::2], map(float, point[1::2])))
    delta, omega, drive = (flags.get(f, 0.0) for f in ("--delta", "--omega", "--efield"))
    r = [row["energy"] for row in json.loads(out) if row["branch"] == "triplet"]
    assert len(r) == 3 and r[0] >= r[1] >= r[2]
    scale = max(map(abs, r))
    assert abs(sum(r) - omega) <= 1e-12 * scale
    assert abs(r[0] * r[1] + r[0] * r[2] + r[1] * r[2]
               + delta**2 + 4 * drive**2) <= 1e-12 * scale**2
    assert abs(r[0] * r[1] * r[2] + delta**2 * omega) <= 1e-12 * scale**3


def test_spectrum_singlet_decay_vanishes_in_lamb_dicke(capsys):
    rc, out, _ = run(capsys, "spectrum", "--omega", "2", "--efield", "1",
                     "--lamb-dicke", "--format", "json")
    assert rc == 0
    singlet = [r for r in json.loads(out) if r["branch"] == "singlet"][0]
    assert singlet["decay"] == 0.0


# ------------------------------------------------------- fig1


def test_fig1_reference_point(capsys):
    rc, out, _ = run(capsys, "fig1", "--tau", "9.21", "--q", "1e6",
                     "--nbar-min", "10", "--nbar-max", "1e4", "--points", "4")
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["nbar_v", "k0r"]
    assert abs(rows[0][0] - 10.0) < 1e-9
    assert abs(rows[0][1] - 7.08e-3) < 1e-5
    # thousandfold photons -> one tenth the distance, and monotone decrease
    assert abs(rows[3][1] - rows[0][1] / 10.0) < 1e-12
    ks = [r[1] for r in rows]
    assert all(a > b for a, b in zip(ks, ks[1:]))


def test_fig1_rejects_nonpositive(capsys):
    rc, _, err = run(capsys, "fig1", "--nbar-min", "-5")
    assert rc == 2


@pytest.mark.parametrize("argv, message", [
    (("--tau", "1e-320"), "k0r overflows"),
    (("--q", "1e300", "--nbar-max", "1e300"), "k0r underflows to 0"),
])
def test_fig1_distance_outside_the_doubles_is_one_error_line(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "fig1", *argv, "--points", "3")
    assert rc == 2 and out == ""
    assert err == f"error: {message} at this tau Q nbarV\n"


# ------------------------------------------------------- fig2


def test_fig2_zero_drive_column_unentangled(capsys):
    rc, out, _ = run(capsys, "fig2", "--k0r-range", "0.1:1.0",
                     "--efield-range", "0:4", "--points", "3")
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["k0r", "efield", "omega", "gamma12", "concurrence"]
    for row in rows:
        if row[1] == 0.0:
            assert row[4] == 0.0
        assert not math.isnan(row[4])


def test_fig2_byte_identical_and_formats_agree(tmp_path, capsys):
    args = ["fig2", "--k0r-range", "0.2:1.0", "--efield-range", "0.5:3",
            "--points", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    rc, out, _ = run(capsys, *args, "--format", "json")
    assert rc == 0
    header, rows = parse_csv(a.read_text())
    payload = json.loads(out)
    assert len(payload) == len(rows)
    for row, obj in zip(rows, payload):
        for name, value in zip(header, row):
            assert obj[name] == value  # identical after shared rounding
    # fig2 is the geometric sweep over its two axes: same k0r, efield, C
    rc, out, _ = run(capsys, "sweep", "--axis", "k0r=0.2:1:3", "--axis", "efield=0.5:3:3")
    assert rc == 0
    assert [r[:2] + r[4:] for r in rows] == [r[:2] + r[6:7] for r in parse_csv(out)[1]]


def test_fig2_near_degenerate_distance_matches_closed_form(capsys):
    from dipolepair import closed_form_concurrence

    rc, out, _ = run(capsys, "fig2", "--k0r-range", "0.001:0.002",
                     "--efield-range", "4:5", "--points", "2")
    assert rc == 0
    _, rows = parse_csv(out)
    for k0r, efield, omega, _, conc in rows:
        expected = closed_form_concurrence(omega / efield**2)
        assert abs(conc - expected) < 1e-2


def test_fig2_failure_warning_names_error_classes(capsys, monkeypatch):
    # a band where SVD kernel thresholds misfire (InvalidState, NotPSD);
    # the block solve has none and solves every point
    band = ("fig2", "--k0r-range", "0.0095:0.0125", "--efield-range", "1:5",
            "--points", "12")
    rc, out, err = run(capsys, *band)
    assert rc == 0 and err == ""
    _, rows = parse_csv(out)
    assert len(rows) == 144 and not any(math.isnan(r[4]) for r in rows)
    # failures at known points: NaN concurrence there, a breakdown by class
    inject_failures(monkeypatch, {3: dynamics._NEGATIVE_EIGENVALUE,
                                  7: dynamics._OVERFLOW, 8: dynamics._NOT_HERMITIAN})
    rc, out, err = run(capsys, *band)
    assert rc == 0
    _, failed_rows = parse_csv(out)
    assert [k for k, r in enumerate(failed_rows) if math.isnan(r[4])] == [3, 7, 8]
    assert all(a == b for k, (a, b) in enumerate(zip(rows, failed_rows))
               if k not in (3, 7, 8))
    assert err == ("warning: 3 grid point(s) failed, recorded as NaN "
                   "(InvalidState: 2, OutOfRange: 1)\n")


def test_unwritable_out_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "fig2.csv"
    rc, out, err = run(capsys, "fig2", "--points", "3", "--out", str(path))
    assert rc == 2 and out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"


@pytest.mark.parametrize("message, err", [
    ("Unable to allocate 74.5 GiB for an array with shape (10000000000,) and data type float64",
     "error: Unable to allocate 74.5 GiB for an array with shape (10000000000,) and data type "
     "float64\n"),
    ("", "error: out of memory\n"),
], ids=["numpy_message", "no_message"])
def test_a_grid_too_large_for_memory_is_one_error_line(monkeypatch, capsys, message, err):
    # fig2 --points 100000 asks _mesh for a 10^10-point mesh, whose
    # allocation raises MemoryError; raised here without allocating
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "_mesh", out_of_memory)
    assert run(capsys, "fig2", "--points", "100000") == (2, "", err)


def test_out_is_rewritten_in_place_without_a_stale_tail(tmp_path, capsys):
    path = tmp_path / "fig2.csv"
    assert main(["fig2", "--points", "20", "--out", str(path)]) == 0
    longer = path.read_bytes()
    rc, out, _ = run(capsys, "fig2", "--points", "3")
    assert rc == 0
    assert main(["fig2", "--points", "3", "--out", str(path)]) == 0
    assert len(longer) > len(out) and path.read_bytes() == out.encode()
    # and a longer output over a shorter file
    assert main(["fig2", "--points", "20", "--out", str(path)]) == 0
    assert path.read_bytes() == longer


def test_out_to_a_device_exits_0(capsys):
    rc, out, err = run(capsys, "fig2", "--points", "3", "--out", "/dev/null")
    assert (rc, out, err) == (0, "", "")


def test_new_out_file_gets_the_mode_of_open_for_writing(tmp_path, capsys):
    reference = tmp_path / "reference"
    with open(reference, "w"):
        pass
    path = tmp_path / "fig2.csv"
    assert main(["fig2", "--points", "3", "--out", str(path)]) == 0
    assert path.stat().st_mode == reference.stat().st_mode


def test_out_to_a_directory_is_a_usage_error(tmp_path, capsys):
    rc, out, err = run(capsys, "fig2", "--points", "3", "--out", str(tmp_path))
    assert rc == 2 and out == ""
    assert err.startswith(f"error: cannot write {tmp_path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [("check",), ("fig2", "--points", "40")],
                         ids=["check", "fig2"])
def test_closed_pipe_exits_quietly(argv):
    # the reader closes standard output before anything is written, as
    # `dipolepair check | head -2` does once it has its lines
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "dipolepair.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


def test_fig2_rejects_bad_range(capsys):
    rc, _, err = run(capsys, "fig2", "--k0r-range", "1.0:0.1")
    assert rc == 2
    rc, _, err = run(capsys, "fig2", "--k0r-range", "oops")
    assert rc == 2


# ------------------------------------------------------- sweep


def test_sweep_populations_normalized(capsys):
    rc, out, _ = run(capsys, "sweep", "--axis", "efield=0.5:4:6",
                     "--k0r", "0.8")
    assert rc == 0
    header, rows = parse_csv(out)
    i = header.index("pop_plus1")
    for row in rows:
        assert abs(sum(row[i:i + 4]) - 1.0) < 1e-8


def test_sweep_two_axes_row_major(capsys):
    rc, out, _ = run(capsys, "sweep", "--axis", "omega=1:2:2",
                     "--axis", "efield=0.5:1:2", "--gamma12", "0.5")
    assert rc == 0
    header, rows = parse_csv(out)
    assert header[:2] == ["omega", "efield"]
    assert [r[0] for r in rows] == [1.0, 1.0, 2.0, 2.0]
    assert [r[1] for r in rows] == [0.5, 1.0, 0.5, 1.0]
    # the mesh columns are np.meshgrid(..., indexing="ij") ravelled, bit for bit
    parse = cli._build_parser().parse_args
    one, two = parse(["sweep", "--omega", "1.5"]), parse(["sweep", "--gamma12", "0.5"])
    for m in range(2, 8):
        for k in range(2, 8):
            omega = ("omega", np.linspace(1.0, 2.3, m))
            efield = ("efield", np.linspace(0.1, 0.7, k))
            for ns, axes in ((one, [efield]), (two, [omega, efield]), (two, [efield, omega])):
                columns, _ = cli._mesh(ns, {}, axes)
                grids = np.meshgrid(*(values for _, values in axes), indexing="ij")
                for (name, _), grid in zip(axes, grids):
                    assert columns[name].tobytes() == grid.ravel().tobytes()


def test_sweep_tau_axis_matches_closed_form(capsys):
    from dipolepair import closed_form_concurrence

    rc, out, _ = run(capsys, "sweep", "--axis", "tau=3:20:5",
                     "--efield", "200", "--lamb-dicke")
    assert rc == 0
    header, rows = parse_csv(out)
    i = header.index("concurrence")
    for row in rows:
        assert abs(row[i] - closed_form_concurrence(row[0])) < 1e-4


def test_sweep_usage_errors(capsys):
    rc, _, _ = run(capsys, "sweep")  # no axis
    assert rc == 2
    rc, _, _ = run(capsys, "sweep", "--axis", "efield=2:1:5", "--omega", "1")
    assert rc == 2  # start >= stop
    rc, _, _ = run(capsys, "sweep", "--axis", "efield=1:2:1", "--omega", "1")
    assert rc == 2  # count < 2
    rc, _, _ = run(capsys, "sweep", "--axis", "efield=1:2:4",
                   "--efield", "3", "--omega", "1")
    assert rc == 2  # axis also fixed
    rc, _, _ = run(capsys, "sweep", "--axis", "bogus=1:2:4")
    assert rc == 2


def test_csv_body_renders_like_the_per_value_format():
    values = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16,
              -1e16, 0.1 + 0.2, 123456789012.5, 999999999999.5, 9.999999999995e-5,
              1.0000000000005, 12345678901234567.0, 1.5e300]
    rows = np.array(values).reshape(8, 2)
    buf = io.StringIO()
    cli._write_rows(("a", "b"), rows, "csv", buf)
    expected = "a,b\n" + "".join(
        ",".join(cli._fmt(float(v)) for v in row) + "\n" for row in rows)
    assert buf.getvalue() == expected
    buf = io.StringIO()
    cli._write_rows(("x",), [(v,) for v in values], "csv", buf)
    assert buf.getvalue() == "x\n" + "".join(cli._fmt(v) + "\n" for v in values)


def test_sweep_lamb_dicke_at_a_distance_matches_steady(capsys):
    rc, out, _ = run(capsys, "sweep", "--axis", "efield=1:2:2", "--k0r", "0.2",
                     "--delta", "0.4", "--lamb-dicke")
    assert rc == 0
    header, rows = parse_csv(out)
    assert header[:4] == ["efield", "k0r", "delta", "gamma12"]
    rc, steady, _ = run(capsys, "steady", "--efield", "1", "--k0r", "0.2",
                        "--lamb-dicke", "--format", "csv")
    assert rc == 0
    steady_header, (steady_row,) = parse_csv(steady)
    expected = dict(zip(steady_header, steady_row))
    got = dict(zip(header, rows[0]))
    for key in ("delta", "gamma12", "pop_plus1", "singlet_weight", "concurrence", "eof"):
        assert got[key] == expected[key]
    assert got["singlet_weight"] == 0.0 and got["gamma12"] == 1.0


def test_fig2_lamb_dicke_fixes_unit_cross_decay_and_zero_detuning(capsys):
    args = ("fig2", "--k0r-range", "0.1:1", "--efield-range", "1:3", "--points", "3")
    rc, out, _ = run(capsys, *args, "--lamb-dicke", "--delta", "0.5")
    assert rc == 0
    header, rows = parse_csv(out)
    assert all(row[3] == 1.0 for row in rows)
    rc, sweep, _ = run(capsys, "sweep", "--axis", "k0r=0.1:1:3", "--axis", "efield=1:3:3",
                       "--lamb-dicke")
    assert rc == 0
    assert [row[4] for row in rows] == [row[-2] for row in parse_csv(sweep)[1]]
    rc, plain, _ = run(capsys, *args)
    assert [row[4] for row in rows] != [row[4] for row in parse_csv(plain)[1]]


@pytest.mark.parametrize("argv, message", [
    (("fig2", "--points", "3", "--omega", "1"), "--k0r conflicts with --omega/--gamma12"),
    (("fig2", "--points", "3", "--gamma12", "0.5"), "--k0r conflicts with --omega/--gamma12"),
    (("sweep", "--axis", "efield=1:2:2", "--k0r", "0.2", "--gamma12", "0.5"),
     "--k0r conflicts with --omega/--gamma12"),
    (("sweep", "--axis", "efield=1:2:2", "--k0r", "0.2", "--gamma12", "0.5", "--lamb-dicke"),
     "--k0r conflicts with --omega/--gamma12"),
    (("sweep", "--axis", "k0r=0.1:1:2", "--efield", "1", "--omega", "2"),
     "--k0r conflicts with --omega/--gamma12"),
    (("sweep", "--axis", "tau=2:9:2", "--efield", "1", "--k0r", "0.3"),
     "tau conflicts with --k0r/--omega/--gamma12"),
    (("sweep", "--axis", "efield=1:2:2", "--omega", "1", "--k0r", "0.2"),
     "--k0r conflicts with --omega/--gamma12"),
    (("steady", "--efield", "1", "--omega", "5", "--k0r", "0.5"),
     "--k0r conflicts with --omega/--gamma12"),
    (("fig2", "--points", "2", "--efield", "7", "--tau", "3"),
     "efield is an axis and cannot also be fixed"),
    (("fig2", "--points", "2", "--k0r", "0.3"), "k0r is an axis and cannot also be fixed"),
    (("fig2", "--points", "2", "--tau", "3"), "tau conflicts with --k0r/--omega/--gamma12"),
    (("sweep", "--axis", "delta=0:1:2", "--efield", "1", "--omega", "1", "--lamb-dicke"),
     "delta is an axis and cannot also be fixed"),
    (("steady", "--tau", "3", "--efield", "1", "--omega", "2"),
     "tau conflicts with --k0r/--omega/--gamma12"),
    (("steady", "--tau", "9.21", "--efield", "1", "--omega", "2", "--lamb-dicke"),
     "tau conflicts with --k0r/--omega/--gamma12"),
    (("spectrum", "--tau", "3", "--omega", "1", "--efield", "1"),
     "tau conflicts with --k0r/--omega/--gamma12"),
    (("steady", "--tau", "9.21", "--delta", "0.5"), "tau requires delta = 0"),
    (("spectrum", "--tau", "3"), "supply --efield"),
    (("steady", "--omega", "1"), "supply --efield"),
    (("steady", "--efield", "1", "--gamma12", "0.3"), "supply one of --k0r, --omega or --tau"),
    (("steady", "--efield", "1", "--k0r", "1", "--mu-dot-rhat", "1.5"),
     "--mu-dot-rhat must lie in [0, 1]"),
    (("spectrum", "--efield", "1", "--k0r", "1", "--mu-dot-rhat", "1.5"),
     "--mu-dot-rhat must lie in [0, 1]"),
    (("fig2", "--k0r-range", "0:1", "--points", "2"), "k0r must be finite and > 0"),
    (("steady", "--efield", "1", "--omega", "2", "--mu-dot-rhat", "0.7"),
     "--mu-dot-rhat conflicts with --omega/tau"),
    (("steady", "--tau", "9.21", "--mu-dot-rhat", "0.7"),
     "--mu-dot-rhat conflicts with --omega/tau"),
], ids=["fig2_omega", "fig2_gamma12", "sweep_gamma12", "sweep_gamma12_lamb_dicke",
        "sweep_omega_geometric", "sweep_tau_k0r", "sweep_k0r_omega", "steady_k0r_omega",
        "fig2_efield_tau", "fig2_k0r", "fig2_tau", "sweep_delta_axis_lamb_dicke",
        "steady_tau_omega", "steady_tau_omega_lamb_dicke", "spectrum_tau_omega",
        "steady_tau_delta", "spectrum_tau_without_drive", "steady_omega_without_drive",
        "steady_no_coupling",
        "steady_mu", "spectrum_mu", "fig2_k0r_range", "steady_mu_omega", "steady_mu_tau"])
def test_grid_commands_reject_couplings_fixed_next_to_a_distance(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("check", "--efield", "3", "--format", "json"),
    ("fig1", "--k0r", "5", "--efield", "9"),
    ("sweep", "--mode", "direct", "--axis", "efield=1:2:2", "--omega", "1"),
], ids=["check", "fig1", "sweep_mode"])
def test_commands_reject_flags_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "error: unrecognized arguments: " + " ".join(argv[1:3]) in captured.err


@pytest.mark.parametrize("flags", [
    ("--k0r", "0.2"),
    ("--k0r", "0.2", "--lamb-dicke"),
    ("--omega", "5", "--gamma12", "0.3", "--delta", "0.2"),
    ("--omega", "5", "--lamb-dicke"),
    ("--tau", "9.21"),
], ids=["k0r", "k0r_lamb_dicke", "omega_gamma12_delta", "omega_lamb_dicke", "tau"])
def test_point_flags_mean_the_same_in_steady_and_sweep(capsys, flags):
    rc, out, err = run(capsys, "sweep", "--axis", "efield=1:2:2", *flags)
    assert rc == 0 and err == ""
    header, rows = parse_csv(out)
    for row in rows:
        point = dict(zip(header, row))
        rc, out, err = run(capsys, "steady", "--efield", repr(point["efield"]), *flags,
                           "--format", "csv")
        assert rc == 0 and err == ""
        steady_header, (steady_row,) = parse_csv(out)
        steady = dict(zip(steady_header, steady_row))
        assert point == {key: steady[key] for key in point}


@pytest.mark.parametrize("flags", [(), ("--lamb-dicke",), ("--delta", "0.3"),
                                   ("--mu-dot-rhat", "1")],
                         ids=["plain", "lamb_dicke", "delta", "mu"])
def test_fig2_is_the_two_axis_sweep(capsys, flags):
    rc, fig2, _ = run(capsys, "fig2", "--k0r-range", "0.1:1", "--efield-range", "0.5:3",
                      "--points", "3", *flags)
    assert rc == 0
    rc, sweep, _ = run(capsys, "sweep", "--axis", "k0r=0.1:1:3", "--axis", "efield=0.5:3:3",
                       *flags)
    assert rc == 0
    (fig2_header, fig2_rows), (sweep_header, sweep_rows) = parse_csv(fig2), parse_csv(sweep)
    shared = [k for k in fig2_header if k in sweep_header]
    assert {"k0r", "efield", "concurrence"} <= set(shared)
    for a, b in zip(fig2_rows, sweep_rows, strict=True):
        a, b = dict(zip(fig2_header, a)), dict(zip(sweep_header, b))
        assert [a[k] for k in shared] == [b[k] for k in shared]


def test_steady_tau_alone_is_the_strong_drive_limit(capsys):
    rc, alone, _ = run(capsys, "steady", "--tau", "9.21")
    assert rc == 0
    rc, lamb_dicke, _ = run(capsys, "steady", "--tau", "9.21", "--lamb-dicke")
    assert rc == 0 and alone == lamb_dicke


def test_steady_at_the_shortest_distance_follows_the_short_distance_law(capsys):
    # k0r = 1e-8 rounds the cross decay within an ulp of gamma; the singlet
    # still takes p_A = 16 / (tau^2 + 64) and C = (8 tau - 32) / (tau^2 + 64)
    rc, out, err = run(capsys, "steady", "--efield", "2.85e11", "--k0r", "1e-8",
                       "--format", "csv")
    assert rc == 0 and err == ""
    header, (row,) = parse_csv(out)
    point = dict(zip(header, row))
    tau = point["omega"] / point["efield"] ** 2
    assert point["singlet_weight"] == pytest.approx(16.0 / (tau**2 + 64.0), abs=1e-4)
    assert point["concurrence"] == pytest.approx((8.0 * tau - 32.0) / (tau**2 + 64.0),
                                                 abs=1e-4)


def test_readme_command_line_examples_run(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line.split("#", 1)[0])[1:] for line in block.splitlines()
                if line.startswith("dipolepair ")]
    assert len(commands) >= 7
    for argv in commands:
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        rc, _, err = run(capsys, *argv)
        assert (rc, err) == (0, ""), argv


def test_sweep_rejects_nan_distance(capsys):
    rc, out, err = run(capsys, "sweep", "--axis", "efield=0:1:3", "--k0r", "nan")
    assert rc == 2 and out == ""
    assert err == "error: k0r must be finite and > 0\n"


def test_sweep_rejects_infinite_distance(capsys):
    # the geometry factors reject k0r = inf before any point is solved
    rc, out, err = run(capsys, "sweep", "--axis", "efield=1:2:2", "--k0r", "inf")
    assert rc == 2 and out == ""
    assert err == "error: k0r must be finite and > 0\n"


@pytest.mark.parametrize("k0r", ["nan", "-1", "0", "inf"])
@pytest.mark.parametrize("command", [("sweep", "--axis", "efield=1:2:2"),
                                     ("steady", "--efield", "1"),
                                     ("spectrum", "--efield", "1")])
def test_every_invalid_distance_gets_the_one_message(capsys, command, k0r):
    # the geometry factors hold the one k0r check of the CLI
    rc, out, err = run(capsys, *command, "--k0r", k0r)
    assert (rc, out, err) == (2, "", "error: k0r must be finite and > 0\n")


@pytest.mark.parametrize("argv", [
    ("steady", "--efield", "2", "--k0r", "1e-120"),
    ("sweep", "--axis", "k0r=1e-110:1e-100:3", "--efield", "1"),
    ("fig2", "--k0r-range", "1e-120:1e-100", "--points", "2"),
], ids=["steady", "sweep", "fig2"])
def test_distance_where_the_dipole_coupling_overflows_is_one_error(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(capsys, *argv)
    assert (rc, out, caught) == (2, "", [])
    assert err == "error: k0r below about 2e-103: the dipole coupling overflows\n"


def test_steady_at_a_huge_distance_runs_without_warning(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(capsys, "steady", "--efield", "1", "--k0r", "1e103")
    assert (rc, err, caught) == (0, "", [])
    assert "omega = -2.78528196807e-105" in out and "concurrence = 0" in out


def test_sweep_records_failed_point_as_nan_row(capsys, monkeypatch):
    # at k0r = 0.01, efield = 2 SVD kernel thresholds reject the state;
    # the block solve takes it, with p_A = rho_{+1,+1}
    sweep = ("sweep", "--axis", "efield=0.5:3:6", "--k0r", "0.01")
    rc, out, err = run(capsys, *sweep)
    assert rc == 0 and err == ""
    header, rows = parse_csv(out)
    i = header.index("pop_plus1")
    assert not np.isnan(rows).any()
    assert all(row[i + 3] == row[i] > 0.0 for row in rows)
    # a failure at the efield = 2 point: a NaN row, named in the warning
    inject_failures(monkeypatch, {3: dynamics._NOT_HERMITIAN})
    rc, out, err = run(capsys, *sweep)
    assert rc == 0
    assert "1 grid point(s) failed, recorded as NaN (InvalidState: 1)" in err
    header, rows = parse_csv(out)
    assert [r[0] for r in rows] == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    for row in rows:
        assert row[1] == 0.01
        outputs = row[header.index("pop_plus1"):]
        assert len(outputs) == 6
        assert all(map(math.isnan, outputs)) == (row[0] == 2.0)
        assert any(map(math.isnan, outputs)) == (row[0] == 2.0)


def test_sweep_exits_1_only_when_every_point_failed(capsys):
    rc, out, err = run(capsys, "sweep", "--axis", "efield=1:2:2", "--omega", "1",
                       "--delta", "nan")
    assert rc == 1
    assert out == ""
    assert "2 grid point(s) failed, recorded as NaN (OutOfRange: 2)" in err


@pytest.mark.parametrize("argv", [
    ("steady", "--efield", "inf", "--k0r", "1", "--lamb-dicke"),
    ("steady", "--tau", "nan", "--lamb-dicke"),
    ("fig1", "--tau", "nan", "--points", "3"),
    ("fig2", "--k0r-range", "0.1:inf", "--points", "3"),
    ("sweep", "--axis", "efield=1:inf:2", "--omega", "1"),
    ("spectrum", "--omega", "inf", "--efield", "1"),
    ("spectrum", "--omega", "nan", "--efield", "1"),
    # finite options, but sqrt 2 E overflows in the triplet block
    ("spectrum", "--omega", "1", "--efield", "1.5e308"),
], ids=["steady_lamb_dicke_efield", "steady_lamb_dicke_tau", "fig1_tau",
        "fig2_range", "sweep_axis", "spectrum_omega_inf", "spectrum_omega_nan",
        "spectrum_efield_overflow"])
def test_non_finite_option_is_a_usage_error(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == "" and caught == []
    assert err.startswith("error: ") and "must be finite" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("spectrum", "--omega", "1", "--efield", "1e308"),
     "eigenvalues are not finite: matrix entries too large"),
    (("steady", "--efield", "1e308", "--omega", "1e308"), "non-finite steady state"),
], ids=["spectrum", "steady"])
def test_finite_options_that_overflow_are_one_package_error(capsys, argv, message):
    # the triplet energies are +-inf, or 4 omega overflows in the state
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(capsys, *argv)
    assert (rc, out, caught) == (2, "", [])
    assert err == f"error: {message}\n"


def test_sweep_non_finite_fixed_value_fails_per_point_without_warning(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(capsys, "sweep", "--axis", "efield=1:2:2", "--omega", "inf")
    assert rc == 1 and out == "" and caught == []
    assert err == "warning: 2 grid point(s) failed, recorded as NaN (OutOfRange: 2)\n"


def test_grid_commands_reject_dipole_projection_out_of_range(capsys):
    rc, _, err = run(capsys, "fig2", "--mu-dot-rhat", "1.5", "--points", "3")
    assert rc == 2 and "--mu-dot-rhat" in err
    rc, _, err = run(capsys, "sweep", "--axis", "efield=1:2:2", "--omega", "1",
                     "--mu-dot-rhat", "-0.1")
    assert rc == 2 and "--mu-dot-rhat" in err


def test_argument_parser_is_built_once():
    from dipolepair import cli

    assert cli._build_parser() is cli._build_parser()


# ------------------------------------------------------- config file


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# defaults\nefield = 1.0\nomega = 2.0\ngamma12 = 0.5\n")
    rc, out_cfg, _ = run(capsys, "steady", "--config", str(cfgfile))
    assert rc == 0
    assert "omega = 2" in out_cfg
    rc, out_override, _ = run(capsys, "steady", "--config", str(cfgfile),
                              "--omega", "7")
    assert rc == 0
    assert "omega = 7" in out_override


@pytest.mark.parametrize("command, line, message", [
    ("steady", "efield = abc", "config key efield expects a number, got 'abc'"),
    ("fig2", "points = many", "config key points expects an integer, got 'many'"),
    ("fig2", "format = xml", "config key format expects one of text/csv/json, got 'xml'"),
    ("steady", "format = xml", "config key format expects one of text/csv/json, got 'xml'"),
    ("fig2", "fromat = json", "unknown config key 'fromat'"),
    ("check", "fromat = json", "unknown config key 'fromat'"),
    ("steady", "config = other.cfg", "unknown config key 'config'"),
], ids=["steady_efield", "fig2_points", "fig2_format", "steady_format", "fig2_typo", "check_typo",
        "steady_config"])
def test_config_value_of_the_wrong_kind_is_a_usage_error(tmp_path, capsys, command, line,
                                                         message):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"k0r_range = 0.1:1\n{line}\n")
    rc, out, err = run(capsys, command, "--config", str(cfgfile))
    assert rc == 2 and out == ""
    assert err == f"error: {message}\n"


def test_config_keys_of_other_commands_are_accepted(tmp_path, capsys):
    # one file for several commands: each reads its keys and leaves the others
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("k0r = 0.3\nefield = 1\npoints = 2\nq = 1e6\nnbar-max = 10\n"
                       "axis = delta=-1:1:2\nk0r_range = 0.1:1\nformat = json\n")
    rc, out, err = run(capsys, "steady", "--config", str(cfgfile))
    assert (rc, err) == (0, "") and json.loads(out)
    rc, out, err = run(capsys, "fig1", "--config", str(cfgfile))
    assert (rc, err) == (0, "") and len(json.loads(out)) == 2
    rc, out, err = run(capsys, "check", "--config", str(cfgfile))
    assert (rc, err) == (0, "")


@pytest.mark.parametrize("tau, omega", [("1e-200", "1e+200"), ("0", "0")])
def test_steady_takes_a_representable_tau_e2_where_e2_overflows(capsys, tau, omega):
    # omega = (tau E) E where E^2 alone is beyond the doubles
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(capsys, "steady", "--tau", tau, "--efield", "1e200")
    assert (rc, err, caught) == (0, "", [])
    assert f"omega = {omega}\n" in out


def test_sweep_keeps_tau_e2_bits_and_takes_the_drives_whose_square_overflows(capsys):
    argv = ["sweep", "--axis", "efield=1e150:1e200:3", "--tau", "1e-200"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(capsys, *argv)
    assert (rc, err, caught) == (0, "", []) and "NaN" not in out
    columns, _ = cli._mesh(cli._build_parser().parse_args(argv), {},
                           [cli._parse_axis(argv[2])])
    tau, efield = 1e-200, columns["efield"]
    assert columns["omega"][0] == (tau * efield[:1] ** 2)[0]  # E^2 finite: the bits of tau E^2
    assert list(columns["omega"][1:]) == [tau * e * e for e in efield[1:]]
    assert np.isfinite(columns["omega"]).all()


@pytest.mark.parametrize("word, switch", [
    ("true", True), ("yes", True), ("1", True), ("Yes", True),
    ("false", False), ("no", False), ("0", False), ("NO", False),
])
def test_config_switch_takes_true_false_yes_no_1_0(tmp_path, capsys, word, switch):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"lamb_dicke = {word}\n")
    point = ("steady", "--efield", "1", "--k0r", "0.3")
    rc, out, err = run(capsys, *point, "--config", str(cfgfile))
    assert (rc, err) == (0, "")
    assert out == run(capsys, *point, *(("--lamb-dicke",) if switch else ()))[1]
    assert ("gamma12 = 1\n" in out) == switch


def test_config_switch_rejects_any_other_word(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("lamb_dicke = maybe\n")
    rc, out, err = run(capsys, "steady", "--efield", "1", "--k0r", "0.3",
                       "--config", str(cfgfile))
    assert rc == 2 and out == ""
    assert err == ("error: config key lamb_dicke expects one of "
                   "true/false/yes/no/1/0, got 'maybe'\n")


def test_config_value_of_a_text_key_stays_text(tmp_path, monkeypatch, capsys):
    # a number-like value of a key that takes text, here the output path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("out = 5\n")
    rc, out, err = run(capsys, "fig2", "--points", "3", "--config", "run.cfg")
    assert (rc, out, err) == (0, "", "")
    assert (tmp_path / "5").read_text() == run(capsys, "fig2", "--points", "3")[1]


def test_config_file_missing(capsys):
    rc, _, err = run(capsys, "steady", "--config", "/nonexistent.cfg",
                     "--efield", "1", "--omega", "1")
    assert rc == 2


# ------------------------------------------------------- check


def test_check_passes_and_reports(capsys):
    rc, out, _ = run(capsys, "check")
    assert rc == 0
    # every line of every criterion in the table, then the verdict
    assert out.splitlines() == [str(line) for line in checks.all_lines()] + [
        "all checks passed"]
    cmax_lines = [ln for ln in out.splitlines() if ln.startswith("C_max")]
    assert cmax_lines == ["C_max: computed 0.4343 expected 0.4343 tol 1e-06 PASS"]


def test_every_criterion_has_an_acceptance_test():
    acceptance = (Path(__file__).parent / "test_acceptance.py").read_text()
    for num in checks.CRITERIA:
        test = rf"^def test_criterion_{num:02d}_\w+\(\):\n    run_criterion\({num}\)$"
        assert re.search(test, acceptance, re.M), num


def test_check_detects_perturbed_steady_state(monkeypatch, capsys):
    # mutation check: mix 1e-3 of |+1><+1| into every closed-form state;
    # the full generator no longer annihilates it, so check must fail
    exact = checks.analytic_steady_state

    def perturbed(omega, drive):
        m = 0.999 * exact(omega, drive).matrix + 1e-3 * np.diag([1.0, 0.0, 0.0, 0.0])
        return DensityMatrix(m, BasisTag.COUPLED)

    monkeypatch.setattr(checks, "analytic_steady_state", perturbed)
    rc, out, _ = run(capsys, "check")
    assert rc == 1
    line = [ln for ln in out.splitlines() if ln.startswith("kernel_residual_max")][0]
    assert line.endswith(" FAIL")
    assert out.endswith("check(s) failed\n")
