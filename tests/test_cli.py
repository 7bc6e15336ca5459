import json

import pytest

from tpgabor import cli

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


def test_audit_passes(tmp_path):
    code, text = run(["audit", "--window", GAUSS, "--alpha", "1/2",
                      "--trials", "2000"], tmp_path)
    payload = json.loads(text)
    assert code == 0
    assert payload["passed"] is True
    assert payload["min_scaled_det"] >= -1e-10


# ----------------------------------------------------------- configuration

def test_bad_configs_exit_64(tmp_path):
    cases = [
        ["diagnose", "--alpha", "1/2"],                       # missing window
        ["diagnose", "--window", "{not json", "--alpha", "1/2"],
        ["diagnose", "--window", GAUSS, "--alpha", "0"],
        ["diagnose", "--window", GAUSS, "--alpha=-1/2"],
        ["diagnose", "--window", '{"kind": "haar"}', "--alpha", "1/2"],
        ["diagnose", "--window", GAUSS, "--alpha", "1/2", "--tail-tol", "-1"],
        ["zzdet", "--window", GAUSS, "--alpha", "3/2"],       # not a candidate
    ]
    for argv in cases:
        assert cli.main(argv + ["--output", str(tmp_path / "x")]) == 64


def test_decimal_alpha_warns(tmp_path, capsys):
    code, text = run(["diagnose", "--window", GAUSS, "--alpha", "0.5"] + FAST,
                     tmp_path)
    assert code == 0
    assert "rationalized" in capsys.readouterr().err


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
    for path in (bad, arr, tmp_path / "missing.json"):
        assert cli.main(["bounds", "--config", str(path), "--window", GAUSS,
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
