import json
from dataclasses import fields

import numpy as np
import pytest

from tpgabor import cli, tpmatrix
from tpgabor.lattice import reduce, select_perturbation
from tpgabor.pipeline import PipelineOptions, effective_window, zak_anchor
from tpgabor.tpmatrix import alternating_witness, build_G
from tpgabor.windows import OneSidedExp, window_from_config
from tpgabor.zak import zak_bank
from tpgabor.zibulski import ZibulskiError, a_landscape

GAUSS = '{"kind": "gaussian", "gamma": 3.141592653589793}'
OSE = '{"kind": "one_sided_exp", "gamma": 1.0}'

FAST = ["--x-grid-n", "16", "--cert-x-grid-n", "2", "--j-ladder", "8,16,32"]


def run(argv, tmp_path, name="out"):
    out = tmp_path / name
    code = cli.main(argv + ["--output", str(out)])
    return code, out.read_text() if out.exists() else None


# ---------------------------------------------------------------- diagnose

def test_diagnose_gaussian_frame(tmp_path):
    code, text = run(["diagnose", "--window", GAUSS, "--alpha", "1/2"] + FAST,
                     tmp_path)
    payload = json.loads(text)
    assert code == 0
    assert payload["verdict"] == "Frame"
    assert payload["alpha_beta"] == "1/2"
    kinds = [e["kind"] for e in payload["evidence"]]
    assert "zak_zero" in kinds and "sigma_ladder" in kinds
    assert "injectivity" in kinds and "alternating_witness" in kinds


def test_diagnose_gaussian_critical(tmp_path):
    code, text = run(["diagnose", "--window", GAUSS, "--alpha", "1"] + FAST,
                     tmp_path)
    payload = json.loads(text)
    assert code == 1
    assert payload["verdict"] == "NotFrame"
    assert payload["evidence"][0]["kind"] == "density"


def test_diagnose_density_short_circuit(tmp_path):
    code, text = run(["diagnose", "--window", GAUSS, "--alpha", "3/2"] + FAST,
                     tmp_path)
    payload = json.loads(text)
    assert code == 1
    # no numerics beyond the density certificate
    assert all(e["kind"] == "density" for e in payload["evidence"])


def test_diagnose_one_sided_exception(tmp_path):
    code, text = run(["diagnose", "--window", OSE, "--alpha", "1"] + FAST,
                     tmp_path)
    payload = json.loads(text)
    assert payload["verdict"] in ("Frame", "Inconclusive")
    assert code in (0, 2)


def test_diagnose_beta_reduction(tmp_path):
    code, text = run(["diagnose", "--window", GAUSS,
                      "--alpha", "1/4", "--beta", "2"] + FAST, tmp_path)
    payload = json.loads(text)
    assert payload["alpha_beta"] == "1/2"
    assert code == 0


# -------------------------------------------------------------------- scan

def test_scan_csv_schema(tmp_path):
    code, text = run(["scan", "--window", GAUSS,
                      "--alphas", "1/2,1,3/2"] + FAST, tmp_path)
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0].startswith("# schema=")
    assert lines[1].split(",")[:4] == ["alpha", "beta", "alphabeta", "verdict"]
    verdicts = [ln.split(",")[3] for ln in lines[2:]]
    assert verdicts == ["Frame", "NotFrame", "NotFrame"]


def test_scan_empty_grid(tmp_path):
    code, text = run(["scan", "--window", GAUSS, "--alphas", ","] + FAST,
                     tmp_path)
    assert code == 0
    assert len(text.strip().split("\n")) == 2  # header comment + column row


def test_scan_rejects_out_of_range(tmp_path):
    code, _ = run(["scan", "--window", GAUSS, "--alphas", "5/2"] + FAST,
                  tmp_path)
    assert code == 64


def test_scan_parallel_matches_serial(tmp_path):
    args = ["scan", "--window", GAUSS, "--alphas", "1/2,1"] + FAST
    _, serial = run(args + ["--jobs", "1"], tmp_path, "a")
    _, parallel = run(args + ["--jobs", "2"], tmp_path, "b")
    assert serial == parallel


def test_scan_records_domain_errors_only(tmp_path, monkeypatch):
    def fail(exc):
        def diagnose(*args, **kwargs):
            raise exc
        return diagnose

    args = ["scan", "--window", GAUSS, "--alphas", "1/2", "--jobs", "1"] + FAST
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
    code, text = run(["bounds", "--window", GAUSS, "--alpha", "1/2"] + FAST,
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
        code, text = run(["bounds", "--window", GAUSS, "--alpha", alpha]
                         + FAST, tmp_path)
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
    pert = select_perturbation(lat, 0.1, zak_anchor(gauss, PipelineOptions())[0])
    xis = np.linspace(0.0, 0.5, 129)
    sig, dets = a_landscape(gauss, lat, pert, xis, 1e-10)
    assert np.array_equal(rows[:, 0], xis)
    assert np.array_equal(rows[:, 1], dets)
    assert np.array_equal(rows[:, 2], sig)


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
    x0, record = zak_anchor(g, PipelineOptions())
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
    grid = np.arange(n) / n
    table = zak_bank(w, 1.0, grid, grid, PipelineOptions().tail_tol)
    lines = ["# schema=tpgabor-zak-v1", "x,xi,re,im,abs"]
    for xi, zs in zip(grid, table.T):
        for x, z in zip(grid, zs):
            lines.append(f"{float(x)!r},{float(xi)!r},{float(z.real)!r},"
                         f"{float(z.imag)!r},{float(abs(z))!r}")
    return "\n".join(lines) + "\n"


def _data_perturbation(w, alpha, x):
    lat = reduce(alpha, 1)
    g = effective_window(w, lat)
    return g, lat, select_perturbation(lat, x, zak_anchor(g, PipelineOptions())[0])


def _per_row_zzdet(w, alpha, x, xi_grid_n):
    g, lat, pert = _data_perturbation(w, alpha, x)
    xis = np.linspace(0.0, 1.0 / lat.p, xi_grid_n + 1)
    sig, dets = a_landscape(g, lat, pert, xis, PipelineOptions().tail_tol)
    lines = ["# schema=tpgabor-zzdet-v1", "xi,abs_det,sigma_min"]
    for xi, d, s in zip(xis, dets, sig):
        lines.append(f"{float(xi)!r},{float(d)!r},{float(s)!r}")
    return "\n".join(lines) + "\n"


def _per_row_witness(w, alpha, x, K):
    g, _, pert = _data_perturbation(w, alpha, x)
    wit = alternating_witness(g, pert, K=K, tail_tol=PipelineOptions().tail_tol)
    lines = ["# schema=tpgabor-witness-v1", "k,u"]
    for k, u in zip(wit.ks, wit.u):
        lines.append(f"{int(k)},{float(u)!r}")
    lines.append(f"# nu={wit.nu!r}")
    lines.append(f"# alternating={wit.sign_pattern_ok}")
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
    for n in (8, 256):
        code, text = run(["zak", "--window", spec, "--grid-n", str(n)], tmp_path)
        assert code == 0 and text == _per_row_zak(w, n)
    code, text = run(["zzdet", "--window", spec, "--alpha", "15/16", "--x", "0.375",
                      "--xi-grid-n", "256"], tmp_path)
    assert code == 0 and text == _per_row_zzdet(w, "15/16", 0.375, 256)
    for K in (0, 64):
        code, text = run(["witness", "--window", spec, "--alpha", "2/3",
                          "--x", "0.625", "--K", str(K)], tmp_path)
        assert code == 0 and text == _per_row_witness(w, "2/3", 0.625, K)


def test_reprs_match_element_repr():
    for a in (np.array([-0.0, 5e-324, 1e16, np.nan, np.inf, -np.inf, 0.1, 1 / 3]),
              np.array([-3, 0, 2 ** 62], dtype=np.int64), np.array([])):
        assert cli._reprs(a) == [repr(v) for v in a.tolist()]


# ----------------------------------------------------------- configuration

def test_bad_configs_exit_64(tmp_path, monkeypatch):
    cases = [
        ["diagnose", "--alpha", "1/2"],                       # missing window
        ["diagnose", "--window", "{not json", "--alpha", "1/2"],
        ["diagnose", "--window", GAUSS, "--alpha", "0"],
        ["diagnose", "--window", GAUSS, "--alpha=-1/2"],
        ["diagnose", "--window", '{"kind": "haar"}', "--alpha", "1/2"],
        ["diagnose", "--window", GAUSS, "--alpha", "1/2", "--tail-tol", "-1"],
        ["zzdet", "--window", GAUSS, "--alpha", "3/2"],       # not a candidate
        ["diagnose", "--window", '{"kind": "gaussian", "gamma": "abc"}'],
        ["diagnose", "--window", '{"kind": "dilated", "base": {"kind": "sech"}}'],
        ["diagnose", "--window", '{"kind": "finite_product", "nus": "ab"}'],
        ["diagnose", "--window", '{"kind": ["gaussian"]}'],
        ["zak", "--window", GAUSS, "--tail-tol", "-1"],
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


def test_malformed_arguments_exit_64(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"x_grid_n": "abc"}))
    cfg_float = tmp_path / "cfg_float.json"
    cfg_float.write_text(json.dumps({"x_grid_n": 16.5}))
    cases = [
        ["diagnose", "--window", GAUSS, "--x-grid-n", "abc"],
        ["diagnose", "--window", GAUSS, "--j-ladder", "a,b"],
        ["scan", "--window", GAUSS],                          # no --alphas
        ["diagnose", "--window", GAUSS, "--no-such-flag"],
        ["no-such-command"],
        ["bounds", "--window", GAUSS, "--config", str(cfg)],
        ["bounds", "--window", GAUSS, "--config", str(cfg_float)],
        ["diagnose", "--window", GAUSS, "--j-ladder=0,16,32"],
        ["diagnose", "--window", GAUSS, "--j-ladder=-5,16,32"],
        ["diagnose", "--window", GAUSS, "--j-ladder=16,16,16"],
        ["diagnose", "--window", GAUSS, "--tail-tol=nan"],
        ["diagnose", "--window", GAUSS, "--tail-tol=inf"],
        ["diagnose", "--window", GAUSS, "--zero-tol=nan"],
        ["diagnose", "--window", GAUSS, "--sigma-tol=inf"],
        ["audit", "--window", GAUSS, "--trials", "0"],
        ["audit", "--window", GAUSS, "--trials=-5"],
        ["audit", "--window", GAUSS, "--n-max", "0"],
        ["audit", "--window", GAUSS, "--n-max", "9"],
        ["audit", "--window", GAUSS, "--alpha", "1/2", "--K", "0"],
        ["audit", "--window", GAUSS, "--alpha", "1/2", "--K=-3"],
        ["witness", "--window", GAUSS, "--K=-4"],
    ]
    for argv in cases:
        assert cli.main(argv + ["--output", str(tmp_path / "x")]) == 64
    with pytest.raises(SystemExit) as exc:
        cli.main(["diagnose", "--help"])
    assert exc.value.code == 0


def test_option_flags_mirror_pipeline_options():
    # one flag per PipelineOptions field and no default of its own, so a
    # new field cannot get a second default in the CLI
    ap = cli.build_parser()
    sub = next(a for a in ap._actions if a.dest == "command")
    for sp in sub.choices.values():
        for f in fields(PipelineOptions):
            flags = [a for a in sp._actions if a.dest == f.name.lower()]
            assert len(flags) == 1 and flags[0].default is None
    args = ap.parse_args(["diagnose", "--window", GAUSS])
    assert cli._options(args) == PipelineOptions()


def test_decimal_alpha_warns(tmp_path, capsys):
    code, text = run(["diagnose", "--window", GAUSS, "--alpha", "0.5"] + FAST,
                     tmp_path)
    assert code == 0
    err = capsys.readouterr().err
    assert len([ln for ln in err.splitlines() if "rationalized" in ln]) == 1


def test_window_from_file(tmp_path):
    spec = tmp_path / "win.json"
    spec.write_text(GAUSS)
    for ref in (f"@{spec}", str(spec)):
        code, text = run(["bounds", "--window", ref, "--alpha", "1/2"] + FAST,
                         tmp_path)
        assert code == 0


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    # "16" is a string: it must go through the --x-grid-n int type
    cfg.write_text(json.dumps({"window": GAUSS, "alpha": "1/2",
                               "x_grid_n": "16", "cert_x_grid_n": 2,
                               "j_ladder": "8,16,32"}))
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
    cfg.write_text(json.dumps({"window": GAUSS, "alpha": "3/4",
                               "j_ladder": "8,16,32"}))
    code, text = run(["bounds", "--config", str(cfg), "--alpha", "1/2",
                      "--x-grid-n", "16"], tmp_path, "o3")
    assert code == 0
    assert json.loads(text)["A_est"] > 0.8


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
        (["diagnose", "--window", GAUSS, "--alpha", "2/3"] + FAST, "d"),
        (["zak", "--window", GAUSS, "--grid-n", "16"], "z"),
        (["audit", "--window", GAUSS, "--alpha", "1/2",
          "--trials", "500"], "a"),
    ]:
        _, first = run(argv, tmp_path, name + "1")
        _, second = run(argv, tmp_path, name + "2")
        assert first == second
