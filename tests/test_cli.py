import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpgabor import cli, tpmatrix
from tpgabor import zak as zakmod
from tpgabor.lattice import reduce, select_perturbation
from tpgabor.pipeline import effective_window, zak_anchor
from tpgabor.tpmatrix import TPMatrixError, alternating_witness, build_G
from tpgabor.windows import TAIL_TOL, OneSidedExp, window_from_config
from tpgabor.zak import ZakError, zak_bank
from tpgabor.zibulski import ZibulskiError, a_landscape

GAUSS = '{"kind": "gaussian", "gamma": 3.141592653589793}'
OSE = '{"kind": "one_sided_exp", "gamma": 1.0}'


def run(argv, tmp_path, name="out"):
    out = tmp_path / name
    code = cli.main(argv + ["--output", str(out)])
    return code, out.read_text() if out.exists() else None


# ---------------------------------------------------------------- diagnose

def test_diagnose_gaussian_frame(tmp_path):
    code, text = run(["diagnose", "--window", GAUSS, "--alpha", "1/2"],
                     tmp_path)
    payload = json.loads(text)
    assert code == 0
    assert payload["verdict"] == "Frame"
    assert payload["alpha_beta"] == "1/2"
    kinds = [e["kind"] for e in payload["evidence"]]
    assert "zak_zero" in kinds and "sigma_ladder" in kinds
    assert "injectivity" in kinds and "alternating_witness" in kinds


def test_diagnose_gaussian_critical(tmp_path):
    code, text = run(["diagnose", "--window", GAUSS, "--alpha", "1"],
                     tmp_path)
    payload = json.loads(text)
    assert code == 1
    assert payload["verdict"] == "NotFrame"
    assert payload["evidence"][0]["kind"] == "density"


def test_diagnose_density_short_circuit(tmp_path):
    code, text = run(["diagnose", "--window", GAUSS, "--alpha", "3/2"],
                     tmp_path)
    payload = json.loads(text)
    assert code == 1
    # no numerics beyond the density certificate
    assert all(e["kind"] == "density" for e in payload["evidence"])


def test_diagnose_one_sided_exception(tmp_path):
    code, text = run(["diagnose", "--window", OSE, "--alpha", "1"],
                     tmp_path)
    payload = json.loads(text)
    assert payload["verdict"] in ("Frame", "Inconclusive")
    assert code in (0, 2)


def test_diagnose_beta_reduction(tmp_path):
    code, text = run(["diagnose", "--window", GAUSS,
                      "--alpha", "1/4", "--beta", "2"], tmp_path)
    payload = json.loads(text)
    assert payload["alpha_beta"] == "1/2"
    assert code == 0


# -------------------------------------------------------------------- scan

def test_scan_csv_schema(tmp_path):
    code, text = run(["scan", "--window", GAUSS,
                      "--alphas", "1/2,1,3/2"], tmp_path)
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0].startswith("# schema=")
    assert lines[1].split(",")[:4] == ["alpha", "beta", "alphabeta", "verdict"]
    verdicts = [ln.split(",")[3] for ln in lines[2:]]
    assert verdicts == ["Frame", "NotFrame", "NotFrame"]


def test_scan_empty_grid(tmp_path, capsys):
    # a list with no value is bad input, not a header-only CSV
    for alphas in (",", " , ,", ""):
        code, text = run(["scan", "--window", GAUSS, "--alphas", alphas],
                         tmp_path)
        assert code == 64 and text is None
        assert "--alphas needs at least one value" in capsys.readouterr().err


def test_scan_rejects_out_of_range(tmp_path):
    code, _ = run(["scan", "--window", GAUSS, "--alphas", "5/2"],
                  tmp_path)
    assert code == 64


def test_scan_parallel_matches_serial(tmp_path):
    args = ["scan", "--window", GAUSS, "--alphas", "1/2,1"]
    _, serial = run(args + ["--jobs", "1"], tmp_path, "a")
    _, parallel = run(args + ["--jobs", "2"], tmp_path, "b")
    assert serial == parallel


@pytest.mark.parametrize("jobs, alphas, processes", [
    ("64", "1/2,3/2", [2]), ("2", "1/2,2/3,3/4", [2]), ("8", "1/2", []),
    ("1", "1/2,3/2", []),
])
def test_scan_pool_has_at_most_one_worker_per_alpha(tmp_path, monkeypatch,
                                                    jobs, alphas, processes):
    # a stand-in for multiprocessing.Pool (and for a module-level import of
    # it) records the worker count it is asked for and maps in process, so
    # no worker is ever started
    import multiprocessing

    asked = []

    class RecordingPool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, jobs):
            return [func(j) for j in jobs]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(cli, "Pool", RecordingPool, raising=False)
    monkeypatch.setattr(cli, "_scan_point", lambda job: list(job[1:4]))
    code, text = run(["scan", "--window", GAUSS, "--alphas", alphas,
                      "--jobs", jobs], tmp_path)
    assert code == 0
    assert asked == processes
    assert len(text.splitlines()) == 2 + len(alphas.split(","))


def test_scan_records_domain_errors_only(tmp_path, monkeypatch):
    def fail(exc):
        def diagnose(*args, **kwargs):
            raise exc
        return diagnose

    args = ["scan", "--window", GAUSS, "--alphas", "1/2", "--jobs", "1"]
    monkeypatch.setattr(cli, "diagnose", fail(ZibulskiError("no certificate")))
    code, text = run(args, tmp_path)
    assert code == 0
    row = text.strip().split("\n")[2].split(",")
    assert row[3] == "Error"
    assert row[6] == "ZibulskiError: no certificate"
    # a programming error is not a scan result
    monkeypatch.setattr(cli, "diagnose", fail(TypeError("bug")))
    with pytest.raises(TypeError):
        run(args, tmp_path)


# ------------------------------------------------------------------ bounds

def test_bounds_json(tmp_path):
    code, text = run(["bounds", "--window", GAUSS, "--alpha", "1/2"],
                     tmp_path)
    payload = json.loads(text)
    assert code == 0
    assert payload["verdict"] == "Frame"
    assert payload["A_est"] > 0
    assert payload["B_est"] > payload["A_est"]
    assert payload["ladder_trace"]["kind"] == "sigma_ladder"


def test_bounds_rejects_out_of_range(tmp_path):
    # same (0, 2] density guard as diagnose and scan
    for alpha in ("3", "5/2"):
        code, text = run(["bounds", "--window", GAUSS, "--alpha", alpha],
                         tmp_path)
        assert code == 64
        assert text is None


# ----------------------------------------------------------- data commands

def test_zak_row_count(tmp_path):
    code, text = run(["zak", "--window", GAUSS, "--grid-n", "128"], tmp_path)
    assert code == 0
    lines = text.strip().split("\n")
    assert len(lines) == 2 + 128 * 128  # schema + header + 16384 rows
    assert lines[1] == "x,xi,re,im,abs"


def test_zzdet_domain(tmp_path):
    code, text = run(["zzdet", "--window", GAUSS, "--alpha", "2/3",
                      "--xi-grid-n", "128"], tmp_path)
    assert code == 0
    rows = [ln for ln in text.strip().split("\n") if not ln.startswith("#")][1:]
    xis = [float(r.split(",")[0]) for r in rows]
    assert xis[0] == 0.0 and xis[-1] == pytest.approx(0.5)  # p=2 -> [0, 1/2]
    assert all(float(r.split(",")[2]) > 0 for r in rows)


def test_zzdet_columns_are_a_landscape(tmp_path, gauss):
    code, text = run(["zzdet", "--window", GAUSS, "--alpha", "2/3",
                      "--x", "0.1", "--xi-grid-n", "128"], tmp_path)
    assert code == 0
    rows = np.array([[float(v) for v in ln.split(",")]
                     for ln in text.strip().split("\n")[2:]])
    lat = reduce("2/3", 1)
    pert = select_perturbation(lat, 0.1, zak_anchor(gauss)[0])
    xis = np.linspace(0.0, 0.5, 129)
    # A(1/p - xi) = conj A(xi): row i holds the values of row min(i, 128 - i)
    sig, dets = a_landscape(gauss, lat, pert, xis[:65], 1e-10)
    mirror = np.minimum(np.arange(129), 128 - np.arange(129))
    assert np.array_equal(rows[:, 0], xis)
    assert np.array_equal(rows[:, 1], dets[mirror])
    assert np.array_equal(rows[:, 2], sig[mirror])


def test_witness_output(tmp_path):
    code, text = run(["witness", "--window", GAUSS, "--alpha", "2/3",
                      "--x", "0.1"], tmp_path)
    assert code == 0
    nu_line = next(ln for ln in text.split("\n") if ln.startswith("# nu="))
    assert float(nu_line.split("=")[1]) > 0
    assert "# alternating=True" in text
    us = [float(ln.split(",")[1]) for ln in text.strip().split("\n")
          if "," in ln and not ln.startswith(("#", "k,"))]
    assert all(a * b < 0 for a, b in zip(us, us[1:]))


def test_witness_without_zak_zero(tmp_path):
    # the one-sided exponential has no Zak zero: the anchor is the |Zg|
    # minimizer, the same one diagnose uses
    code, text = run(["witness", "--window", OSE, "--alpha", "2/3",
                      "--x", "0.25"], tmp_path)
    assert code == 0
    g = OneSidedExp(gamma=1.0)
    x0, record = zak_anchor(g)
    assert record["x0"] is None
    pert = select_perturbation(reduce("2/3", 1), 0.25, x0)
    nu_line = next(ln for ln in text.split("\n") if ln.startswith("# nu="))
    assert float(nu_line.split("=")[1]) == alternating_witness(g, pert, K=16).nu


def test_audit_passes(tmp_path):
    code, text = run(["audit", "--window", GAUSS, "--alpha", "1/2",
                      "--trials", "2000"], tmp_path)
    payload = json.loads(text)
    assert code == 0
    assert payload["passed"] is True
    assert payload["min_scaled_det"] >= -1e-10


def _per_row_zak(w, n):
    # Zg(x, 1 - xi) = conj Zg(x, xi): block j > n/2 is block n - j conjugated
    grid = np.arange(n) / n
    half = zak_bank(w, 1.0, grid, grid[:n // 2 + 1], TAIL_TOL)
    lines = ["# schema=tpgabor-zak-v1", "x,xi,re,im,abs"]
    for j, xi in enumerate(grid):
        zs = half[:, j] if j <= n // 2 else np.conj(half[:, n - j])
        for x, z in zip(grid, zs):
            lines.append(f"{float(x)!r},{float(xi)!r},{float(z.real)!r},"
                         f"{float(z.imag)!r},{float(abs(z))!r}")
    return "\n".join(lines) + "\n"


def _data_perturbation(w, alpha, x):
    lat = reduce(alpha, 1)
    g = effective_window(w, lat)
    return g, lat, select_perturbation(lat, x, zak_anchor(g)[0])


def _per_row_zzdet(w, alpha, x, xi_grid_n):
    g, lat, pert = _data_perturbation(w, alpha, x)
    xis = np.linspace(0.0, 1.0 / lat.p, xi_grid_n + 1)
    # A(1/p - xi) = conj A(xi): row i > N/2 repeats the values of row N - i
    sig, dets = a_landscape(g, lat, pert, xis[:xi_grid_n // 2 + 1], TAIL_TOL)
    lines = ["# schema=tpgabor-zzdet-v1", "xi,abs_det,sigma_min"]
    for i, xi in enumerate(xis):
        m = min(i, xi_grid_n - i)
        lines.append(f"{float(xi)!r},{float(dets[m])!r},{float(sig[m])!r}")
    return "\n".join(lines) + "\n"


def _per_row_witness(w, alpha, x, K):
    g, _, pert = _data_perturbation(w, alpha, x)
    wit = alternating_witness(g, pert, K=K)
    lines = ["# schema=tpgabor-witness-v1", "k,u"]
    for k, u in zip(wit.ks, wit.u):
        lines.append(f"{int(k)},{float(u)!r}")
    lines.append(f"# nu={wit.nu!r}")
    lines.append("# alternating=True")
    return "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("error")  # a warning would go to stderr
def test_audit_prints_nothing_on_stderr(tmp_path, capfd, gauss):
    # these draws meet minors with an all-zero row, whose stacked det is 0
    g, _, pert = _data_perturbation(gauss, "1/2", 0.375)
    A = build_G(g, pert, K=16).entries
    assert any(np.any(np.all(A[rows[:, :, None], cols[:, None, :]] == 0, axis=2))
               for rows, cols in tpmatrix._minor_draws(
                   *A.shape, 6, 10000, np.random.default_rng(987654321)))
    code, text = run(["audit", "--window", GAUSS, "--alpha", "1/2", "--x", "0.375",
                      "--K", "16", "--seed", "987654321"], tmp_path)
    assert code == 0 and json.loads(text)["passed"] is True
    assert capfd.readouterr().err == ""


PLOT_WINDOWS = {"gauss": '{"kind": "gaussian"}',
                "sech": '{"kind": "sech", "a": 1.0}',
                "tsexp": '{"kind": "two_sided_exp", "rate": 1.0}',
                "ose": OSE}


@pytest.mark.parametrize("name", sorted(PLOT_WINDOWS))
def test_csv_bytes_match_per_row_formatting(tmp_path, name):
    # the per-row f-string formatters are the reference, byte for byte
    spec = PLOT_WINDOWS[name]
    w = window_from_config(json.loads(spec))
    for n in (8, 9, 256):
        code, text = run(["zak", "--window", spec, "--grid-n", str(n)], tmp_path)
        assert code == 0 and text == _per_row_zak(w, n)
    for N in (256, 129):
        code, text = run(["zzdet", "--window", spec, "--alpha", "15/16",
                          "--x", "0.375", "--xi-grid-n", str(N)], tmp_path)
        assert code == 0 and text == _per_row_zzdet(w, "15/16", 0.375, N)
    for K in (0, 64):
        code, text = run(["witness", "--window", spec, "--alpha", "2/3",
                          "--x", "0.625", "--K", str(K)], tmp_path)
        assert code == 0 and text == _per_row_witness(w, "2/3", 0.625, K)


@pytest.mark.parametrize("name", sorted(PLOT_WINDOWS))
def test_mirrored_half_matches_full_period(tmp_path, name):
    # the printed half-period mirror against a direct evaluation of every
    # xi: the Zak values to 1e-14 absolute, the zzdet columns to 1e-12
    # relative (p = 1 takes the single-point bank, p = 15 the stacked SVD)
    spec = PLOT_WINDOWS[name]
    w = window_from_config(json.loads(spec))
    for n in (9, 128):
        code, text = run(["zak", "--window", spec, "--grid-n", str(n)], tmp_path)
        rows = np.array([[float(v) for v in ln.split(",")]
                         for ln in text.splitlines()[2:]])
        grid = np.arange(n) / n
        full = zak_bank(w, 1.0, grid, grid, TAIL_TOL).T.ravel()
        assert code == 0
        assert np.max(np.abs(rows[:, 2] - full.real)) <= 1e-14
        assert np.max(np.abs(rows[:, 3] - full.imag)) <= 1e-14
        assert np.max(np.abs(rows[:, 4] - np.abs(full))) <= 1e-14
    for alpha, N in (("1/2", 128), ("15/16", 129)):
        code, text = run(["zzdet", "--window", spec, "--alpha", alpha,
                          "--x", "0.375", "--xi-grid-n", str(N)], tmp_path)
        rows = np.array([[float(v) for v in ln.split(",")]
                         for ln in text.splitlines()[2:]])
        g, lat, pert = _data_perturbation(w, alpha, 0.375)
        xis = np.linspace(0.0, 1.0 / lat.p, N + 1)
        sig, dets = a_landscape(g, lat, pert, xis, TAIL_TOL)
        assert code == 0 and np.array_equal(rows[:, 0], xis)
        np.testing.assert_allclose(rows[:, 1], dets, rtol=1e-12, atol=0)
        np.testing.assert_allclose(rows[:, 2], sig, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [8, 9])
def test_zak_mirror_blocks_share_text(tmp_path, n):
    # block n - j repeats block j's x, re and abs text and negates its im text
    code, text = run(["zak", "--window", PLOT_WINDOWS["tsexp"],
                      "--grid-n", str(n)], tmp_path)
    rows = [ln.split(",") for ln in text.splitlines()[2:]]
    blocks = [rows[j * n:(j + 1) * n] for j in range(n)]
    assert code == 0 and len(rows) == n * n
    for j in range(1, (n + 1) // 2):  # block n/2 (xi = 1/2) is its own mirror
        for (x, xi, re, im, ab), mx in zip(blocks[n - j], blocks[j]):
            assert xi == repr((n - j) / n)
            assert [x, re, ab] == [mx[0], mx[2], mx[4]]
            assert im == (mx[3][1:] if mx[3].startswith("-") else "-" + mx[3])


@settings(max_examples=500, deadline=None)
@given(vs=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                   min_size=1, max_size=8))
@example(vs=[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-05,
             -1e-05, 1e+16, -1e+16, 1.5e-300, -1.7976931348623157e+308])
def test_negated_text_is_repr_of_negation(vs):
    for v in vs:
        assert cli._negated(repr(v)) == repr(-v)
    assert cli._negated(", ".join(map(repr, vs))) == ", ".join(
        repr(-v) for v in vs)


def test_reprs_match_element_repr():
    for a in (np.array([-0.0, 5e-324, 1e16, np.nan, np.inf, -np.inf, 0.1, 1 / 3]),
              np.array([-3, 0, 2 ** 62], dtype=np.int64), np.array([])):
        assert cli._reprs(a) == [repr(v) for v in a.tolist()]


@pytest.mark.parametrize("argv, patch", [
    (["witness", "--alpha", "2/3"],
     ("alternating_witness", TPMatrixError("witness degenerate"))),
    (["zzdet", "--alpha", "2/3"],
     ("a_landscape", ZibulskiError("perturbation period does not match"))),
    (["zak", "--grid-n", "8"], ("zak_bank", ZakError("period p must be positive"))),
    (["audit", "--alpha", "1/2", "--trials", "10"],
     ("tp_minor_audit", TPMatrixError("section too small"))),
], ids=["witness", "zzdet", "zak", "audit"])
def test_failed_certificate_exits_2(tmp_path, capfd, monkeypatch, argv, patch):
    # valid input with no certificate is Inconclusive: one error line, no
    # traceback and no data file
    def fail(*args, **kwargs):
        raise patch[1]
    monkeypatch.setattr(cli, patch[0], fail)
    code, text = run(argv + ["--window", '{"kind": "gaussian"}'], tmp_path)
    err = capfd.readouterr().err
    assert code == 2 and text is None
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_out_of_memory_exits_2(tmp_path, capfd, monkeypatch):
    # an allocation too large for the machine (zak --grid-n 100000 asks for
    # a 100000 x 50001 complex Zak bank) ends in one error line and exit 2,
    # and a scan records an Error row; the refusal is simulated here, in
    # the Zak bank of zak and of diagnose's zero location
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(zakmod, "zak_bank", refuse)
    monkeypatch.setattr(cli, "zak_bank", refuse)
    code, text = run(["zak", "--window", GAUSS, "--grid-n", "8"], tmp_path)
    err = capfd.readouterr().err
    assert code == 2 and text is None
    assert err == "error: MemoryError: Unable to allocate 74.5 GiB for an array\n"
    code, text = run(["diagnose", "--window", GAUSS, "--alpha", "1/2"],
                     tmp_path)
    err = capfd.readouterr().err
    assert code == 2 and text is None
    assert err == "error: MemoryError: Unable to allocate 74.5 GiB for an array\n"
    code, text = run(["scan", "--window", GAUSS, "--alphas", "1/2,3/2"],
                     tmp_path)
    rows = [r.split(",") for r in text.strip().split("\n")[2:]]
    assert code == 0
    assert rows[0][3:] == ["Error", "", "",
                           "MemoryError: Unable to allocate 74.5 GiB for an array"]
    assert rows[1][3] == "NotFrame"


# ----------------------------------------------------------- configuration

def test_bad_configs_exit_64(tmp_path, monkeypatch):
    cases = [
        ["diagnose", "--alpha", "1/2"],                       # missing window
        ["diagnose", "--window", "{not json", "--alpha", "1/2"],
        ["diagnose", "--window", GAUSS, "--alpha", "0"],
        ["diagnose", "--window", GAUSS, "--alpha=-1/2"],
        ["diagnose", "--window", '{"kind": "haar"}', "--alpha", "1/2"],
        ["zzdet", "--window", GAUSS, "--alpha", "3/2"],       # not a candidate
        ["diagnose", "--window", '{"kind": "gaussian", "gamma": "abc"}'],
        ["diagnose", "--window", '{"kind": "dilated", "base": {"kind": "sech"}}'],
        ["diagnose", "--window", '{"kind": "finite_product", "nus": "ab"}'],
        ["diagnose", "--window", '{"kind": ["gaussian"]}'],
    ]
    for argv in cases:
        assert cli.main(argv + ["--output", str(tmp_path / "x")]) == 64
    monkeypatch.setenv("TPGABOR_JOBS", "abc")
    assert cli.main(["scan", "--window", GAUSS, "--alphas", "1/2",
                     "--output", str(tmp_path / "x")]) == 64


@pytest.mark.parametrize("command", ["zzdet", "witness", "audit"])
@pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
def test_non_finite_x_exits_64(tmp_path, command, x):
    argv = [command, "--window", GAUSS, "--alpha", "2/3", f"--x={x}",
            "--output", str(tmp_path / "x")]
    assert cli.main(argv) == 64
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"x": x}))
    assert cli.main([command, "--window", GAUSS, "--alpha", "2/3",
                     "--config", str(cfg), "--output", str(tmp_path / "x")]) == 64


def test_malformed_arguments_exit_64(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"xi_grid_n": "abc"}))
    cfg_float = tmp_path / "cfg_float.json"
    cfg_float.write_text(json.dumps({"xi_grid_n": 128.5}))
    cfg_jobs = tmp_path / "cfg_jobs.json"
    cfg_jobs.write_text(json.dumps({"jobs": 0}))
    cases = [
        ["zzdet", "--window", GAUSS, "--xi-grid-n", "abc"],
        ["scan", "--window", GAUSS],                          # no --alphas
        ["diagnose", "--window", GAUSS, "--no-such-flag"],
        ["no-such-command"],
        ["zzdet", "--window", GAUSS, "--config", str(cfg)],
        ["zzdet", "--window", GAUSS, "--config", str(cfg_float)],
        ["audit", "--window", GAUSS, "--trials", "0"],
        ["audit", "--window", GAUSS, "--trials=-5"],
        ["audit", "--window", GAUSS, "--n-max", "0"],
        ["audit", "--window", GAUSS, "--n-max", "9"],
        ["audit", "--window", GAUSS, "--alpha", "1/2", "--K", "0"],
        ["audit", "--window", GAUSS, "--alpha", "1/2", "--K=-3"],
        ["witness", "--window", GAUSS, "--K=-4"],
        ["scan", "--window", GAUSS, "--alphas", "1/2,3/2", "--jobs", "0"],
        ["scan", "--window", GAUSS, "--alphas", "1/2,3/2", "--jobs=-1"],
        ["scan", "--window", GAUSS, "--alphas", "1/2,3/2", "--config",
         str(cfg_jobs)],
    ]
    for argv in cases:
        assert cli.main(argv + ["--output", str(tmp_path / "x")]) == 64
    monkeypatch.setenv("TPGABOR_JOBS", "0")
    assert cli.main(["scan", "--window", GAUSS, "--alphas", "1/2,3/2",
                     "--output", str(tmp_path / "x")]) == 64
    with pytest.raises(SystemExit) as exc:
        cli.main(["diagnose", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("command", ["bounds", "diagnose", "scan"])
def test_j_ladder_flag_exits_64(tmp_path, command):
    # the ladder's rungs are derived from the window and the lattice, not
    # set: even the default rungs are an unknown flag
    lattice = ["--alphas", "1/2"] if command == "scan" else ["--alpha", "1/2"]
    code, text = run([command, "--window", GAUSS, "--j-ladder", "16,32,64"]
                     + lattice, tmp_path)
    assert code == 64 and text is None


# each removed setting on every command that took it, at its old default
_REMOVED = [(command, flag, value)
            for command in ("diagnose", "scan", "zzdet", "witness", "audit")
            for flag, value in (("zak-grid-n", "256"), ("zero-tol", "1e-10"),
                                ("sigma-tol", "1e-8"))
            if flag != "sigma-tol" or command in ("diagnose", "scan")]
_REMOVED += [(command, "tail-tol", "1e-10") for command in
             ("diagnose", "scan", "bounds", "zak", "zzdet", "witness")]


@pytest.mark.parametrize("command, flag, value", _REMOVED + [
    ("diagnose", "zero-tol", "nan"), ("diagnose", "sigma-tol", "inf"),
    ("diagnose", "tail-tol", "-1"), ("zak", "tail-tol", "-1"),
    ("diagnose", "tail-tol", "nan"), ("diagnose", "tail-tol", "inf")])
def test_removed_settings_exit_64(tmp_path, capsys, command, flag, value):
    lattice = {"scan": ["--alphas", "1/2"], "zak": []}.get(
        command, ["--alpha", "1/2"])
    code, text = run([command, "--window", GAUSS, f"--{flag}={value}"]
                     + lattice, tmp_path)
    assert code == 64 and text is None
    assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err


def test_removed_settings_in_config_are_dropped(tmp_path):
    # a config key naming a removed setting is dropped like any key the
    # command does not read: a huge sigma_tol would fail every certificate
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"zak_grid_n": 64, "zero_tol": 1e-14,
                               "sigma_tol": 10.0, "tail_tol": 1e-3}))
    argv = ["diagnose", "--window", GAUSS, "--alpha", "2/3"]
    code, text = run(argv + ["--config", str(cfg)], tmp_path)
    _, ref = run(argv, tmp_path, "ref")
    assert code == 0 and text == ref


def test_grid_settings_are_constants(tmp_path, capsys):
    # the certificate grids are library constants: their flags are unknown
    # on every command that took them, their config keys are dropped, and
    # the one grid flag left is zzdet's plot resolution
    for command in ("diagnose", "scan", "bounds"):
        lattice = ["--alphas" if command == "scan" else "--alpha", "1/2"]
        for flag in ("x-grid-n", "xi-grid-n", "cert-x-grid-n"):
            code, text = run([command, "--window", GAUSS, f"--{flag}", "128"]
                             + lattice, tmp_path)
            assert code == 64 and text is None
            assert (f"unrecognized arguments: --{flag}"
                    in capsys.readouterr().err)
    zzdet = ["zzdet", "--window", GAUSS, "--alpha", "2/3"]
    code, text = run(zzdet + ["--xi-grid-n", "2048"], tmp_path)
    assert code == 0 and len(text.splitlines()) == 2 + 2049
    code, text = run(zzdet + ["--xi-grid-n", "64"], tmp_path, "coarse")
    assert code == 64 and text is None
    assert capsys.readouterr().err == "error: xi_grid_n must be >= 128\n"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"x_grid_n": 16, "cert_x_grid_n": 2}))
    argv = ["diagnose", "--window", GAUSS, "--alpha", "2/3"]
    assert cli.main(argv) == 0
    ref = capsys.readouterr().out
    assert cli.main(argv + ["--config", str(cfg)]) == 0
    assert capsys.readouterr().out == ref
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    for name, sp in sub.choices.items():
        dests = {a.dest for a in sp._actions}
        assert {d for d in dests if "grid" in d} == {
            "zak": {"grid_n"}, "zzdet": {"xi_grid_n"}}.get(name, set())
        lattice = {"zak": set(), "scan": {"beta"}}.get(name, {"alpha", "beta"})
        assert dests & {"alpha", "beta"} == lattice


@pytest.mark.parametrize("argv", [
    ["zak", "--grid-n", "8", "--xi-grid-n", "128"],
    ["zak", "--grid-n", "8", "--alpha", "5/2"],
    ["zak", "--grid-n", "8", "--x-grid-n", "16"],
    ["zzdet", "--alpha", "2/3", "--x-grid-n", "16"],
    ["witness", "--alpha", "2/3", "--xi-grid-n", "128"],
    ["audit", "--alpha", "1/2", "--tail-tol", "1e-10"],
    ["bounds", "--alpha", "1/2", "--cert-x-grid-n", "2"],
    ["bounds", "--alpha", "1/2", "--xi-grid-n", "128"],
    ["scan", "--alphas", "1/2", "--alpha", "5/2"],
])
def test_flags_a_command_does_not_read_exit_64(tmp_path, argv):
    assert cli.main(argv + ["--window", GAUSS,
                            "--output", str(tmp_path / "x")]) == 64


def test_config_keys_a_command_does_not_read_are_dropped(tmp_path):
    # one config file serves every command: zak ignores the lattice, the
    # frame-bound settings and the removed tail_tol
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"window": GAUSS, "alpha": "5/2",
                               "x_grid_n": 4, "tail_tol": 1e-3}))
    code, text = run(["zak", "--config", str(cfg), "--grid-n", "8"], tmp_path)
    _, ref = run(["zak", "--window", GAUSS, "--grid-n", "8"], tmp_path, "ref")
    assert code == 0 and text == ref


@pytest.mark.parametrize("spec", [
    '{"kind": "gaussian", "gamma": "nan"}',
    '{"kind": "gaussian", "gamma": "inf"}',
    '{"kind": "sech", "a": "inf"}',
    '{"kind": "gaussian", "gamma": true}',
    '{"kind": "one_sided_exp", "gamma": "-inf"}',
    '{"kind": "dilated", "b": "nan", "base": {"kind": "gaussian"}}',
    '{"kind": "finite_product", "nus": [1.0, "nan"]}',
    # finite, but the envelope constant e^{1000 * 4.999} overflows
    '{"kind": "finite_product", "nus": [0.001], "nu": 5}',
])
def test_non_finite_window_parameters_exit_64(tmp_path, spec):
    assert cli.main(["bounds", "--window", spec, "--alpha", "1/2",
                     "--output", str(tmp_path / "x")]) == 64


def test_narrow_gaussian_runs(tmp_path):
    # exp(gamma) overflows a float beyond gamma = 709.78; the envelope rate
    # is capped so the window stays usable
    code, text = run(["bounds", "--window", '{"kind": "gaussian", "gamma": 710}',
                      "--alpha", "1/2"], tmp_path)
    assert code in (0, 2) and json.loads(text)["A_est"] > 0


@pytest.mark.parametrize("spec, alpha, beta", [
    ('{"kind": "gaussian", "gamma": 0.1}', "1/2", "1"),
    ('{"kind": "dilated", "b": 5, "base": {"kind": "gaussian"}}', "1/2", "1"),
    ('{"kind": "gaussian"}', "5/2", "1/5"),
    ('{"kind": "gaussian"}', "1/10", "5"),
    ('{"kind": "sech"}', "1/8", "4"),
    ('{"kind": "sech"}', "1/10", "5"),
], ids=["gauss-gamma0.1", "gauss-b5", "gauss-5:2x1:5", "gauss-1:10x5",
        "sech-1:8x4", "sech-1:10x5"])
def test_wide_windows_meet_no_absolute_floor(tmp_path, capsys, spec, alpha,
                                             beta):
    # wide windows (and large beta, which dilates g) have |Zg| far below any
    # fixed threshold over whole bands, and A below the transfer window's
    # rounding: no false second Zak zero, no Frame on an A that is rounding
    # noise, and bounds and diagnose agree
    lattice = ["--window", spec, "--alpha", alpha, "--beta", beta]
    codes, texts = zip(*(run([command] + lattice, tmp_path, command)
                         for command in ("bounds", "diagnose")))
    assert "ZakError" not in capsys.readouterr().err
    assert codes[0] == codes[1]
    bounds, diag = (json.loads(text) for text in texts)
    lat = reduce(alpha, beta)
    floor = 64 * min(lat.p, lat.q) * np.finfo(float).eps * bounds["B_est"]
    assert bounds["verdict"] != "Frame" or bounds["A_est"] > floor
    assert diag["verdict"] != "Frame" or diag["lower_bound_est"] > floor
    if (alpha, beta) == ("5/2", "1/5"):
        assert codes == (0, 0)


def test_decimal_alpha_warns(tmp_path, capsys):
    code, text = run(["diagnose", "--window", GAUSS, "--alpha", "0.5"],
                     tmp_path)
    assert code == 0
    err = capsys.readouterr().err
    assert len([ln for ln in err.splitlines() if "rationalized" in ln]) == 1


@pytest.mark.parametrize("text, warns", [
    ("25e-2", 1), ("2.5e-1", 1), ("0.25", 1), ("1/4", 0), ("3", 0), (" 3 ", 0)])
def test_rationalization_warns_unless_exact_literal(capsys, text, warns):
    # an exponent-form decimal is rationalized like any other decimal
    cli._parse_rational(text, "alpha")
    assert capsys.readouterr().err.count("rationalized") == warns


def test_scan_warns_for_each_decimal_alpha(tmp_path, capsys):
    code, text = run(["scan", "--window", GAUSS, "--alphas", "25e-2,1/2"],
                     tmp_path)
    err = capsys.readouterr().err
    assert code == 0 and text.count("Frame") == 2
    assert err == ("warning: alpha = 25e-2 rationalized to 1/4 (theory "
                   "covers rational alpha*beta only)\n")


@pytest.mark.parametrize("name", ["alpha", "beta"])
def test_decimal_below_denominator_cap_exits_64(tmp_path, capsys, name):
    # 1e-7 is positive, but rationalizing with denominators <= 10^6 gives 0
    code, text = run(["diagnose", "--window", GAUSS, f"--{name}", "1e-7"],
                     tmp_path)
    assert code == 64 and text is None
    err = capsys.readouterr().err
    assert (f"{name} = 1e-7 rationalizes to 0 (denominators are capped at "
            "10^6); give it as P/Q") in err
    assert "must be positive" not in err


def test_window_from_file(tmp_path):
    spec = tmp_path / "win.json"
    spec.write_text(GAUSS)
    for ref in (f"@{spec}", str(spec)):
        code, text = run(["bounds", "--window", ref, "--alpha", "1/2"],
                         tmp_path)
        assert code == 0


def test_missing_window_file_exits_64(tmp_path, capsys):
    # a *.json spec is a path: a missing file is an OSError, not bad JSON
    missing = tmp_path / "missing.json"
    for ref in (f"@{missing}", str(missing)):
        code, text = run(["bounds", "--window", ref, "--alpha", "1/2"], tmp_path)
        err = capsys.readouterr().err
        assert code == 64 and text is None
        assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"window": GAUSS, "alpha": "1/2"}))
    out = tmp_path / "o1"
    assert cli.main(["bounds", "--config", str(cfg),
                     "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "Frame"
    # explicit flag beats the config value, with argv given in-process
    out2 = tmp_path / "o2"
    assert cli.main(["bounds", "--config", str(cfg), "--alpha", "3/2",
                     "--output", str(out2)]) == 1
    assert json.loads(out2.read_text())["verdict"] == "NotFrame"
    # and the other way round: a config at 3/4 with --alpha 1/2 gives the
    # Gaussian's A at 1/2 (about 0.83), not the one at 3/4 (about 0.54)
    cfg.write_text(json.dumps({"window": GAUSS, "alpha": "3/4"}))
    code, text = run(["bounds", "--config", str(cfg), "--alpha", "1/2"],
                     tmp_path, "o3")
    assert code == 0
    assert json.loads(text)["A_est"] > 0.8
    # "129" is a string: it must go through the --xi-grid-n int type
    cfg.write_text(json.dumps({"window": GAUSS, "alpha": "2/3",
                               "xi_grid_n": "129"}))
    code, text = run(["zzdet", "--config", str(cfg)], tmp_path, "o4")
    assert code == 0 and len(text.splitlines()) == 2 + 130


def test_config_alphas_list_string_and_flag_agree(tmp_path):
    argv = ["scan", "--window", GAUSS]
    _, flag = run(argv + ["--alphas", "1/2,3/4"], tmp_path, "flag")
    for alphas in (["1/2", "3/4"], "1/2,3/4"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alphas": alphas}))
        code, text = run(argv + ["--config", str(cfg)], tmp_path)
        assert code == 0 and text == flag


def test_config_file_errors_exit_64(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    for path in (bad, arr, tmp_path / "missing.json", binary):
        assert cli.main(["bounds", "--config", str(path), "--window", GAUSS,
                         "--output", str(tmp_path / "x")]) == 64
    assert cli.main(["bounds", "--window", f"@{binary}",
                     "--output", str(tmp_path / "x")]) == 64


def test_determinism_repeat_runs(tmp_path):
    for argv, name in [
        (["diagnose", "--window", GAUSS, "--alpha", "2/3"], "d"),
        (["zak", "--window", GAUSS, "--grid-n", "16"], "z"),
        (["audit", "--window", GAUSS, "--alpha", "1/2",
          "--trials", "500"], "a"),
    ]:
        _, first = run(argv, tmp_path, name + "1")
        _, second = run(argv, tmp_path, name + "2")
        assert first == second
