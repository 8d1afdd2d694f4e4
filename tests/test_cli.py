import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conehull.cli import main


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("CONEHULL_SEED", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "conehull.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


def test_sample_jsonl_schema():
    proc = run_cli(["sample", "--kind", "schlaefli", "--d", "2", "--n", "5", "--reps", "3", "--seed", "11"])
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert len(lines) == 3
    for line in lines:
        rec = json.loads(line)
        assert rec["kind"] == "schlaefli"
        assert len(rec["generators"]) == 5
        assert set(rec["signs"]) <= {-1, 1}
        assert rec["f_vector"][-1] == 1


def test_sample_schlaefli_at_ten_thousand_planes():
    proc = run_cli(["sample", "--kind", "schlaefli", "--n", "10000", "--reps", "1", "--seed", "5"])
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout)
    assert len(rec["generators"]) == 10_000
    assert rec["f_vector"][0] >= 3 and rec["f_vector"][0] == rec["f_vector"][1]
    # d = 3 beyond the 64 planes that enumeration takes
    proc = run_cli(["sample", "--kind", "schlaefli", "--d", "3", "--n", "128", "--reps", "1", "--seed", "5"])
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout)
    assert len(rec["generators"]) == 128
    f = rec["f_vector"]
    assert len(f) == 4 and f[0] >= 4 and f[3] == 1
    assert f[0] - f[1] + f[2] == 2  # Euler: the spherical cell is a 3-polytope


def test_sample_cover_efron_reports_trials():
    proc = run_cli(["sample", "--kind", "cover-efron", "--d", "2", "--n", "6", "--reps", "4", "--seed", "3"])
    recs = [json.loads(x) for x in proc.stdout.strip().split("\n")]
    assert all(r["trials"] >= 1 for r in recs)


def test_enumerate_exact_count():
    proc = run_cli(["enumerate", "--dim", "3", "--n", "6", "--seed", "2"])
    rec = json.loads(proc.stdout)
    assert rec["cells"] == rec["expected"] == 32
    assert len(rec["sign_vectors"]) == 32


def test_seed_env_override():
    a = run_cli(["sample", "--kind", "rn", "--n", "4", "--reps", "1", "--seed", "1"])
    b = run_cli(["sample", "--kind", "rn", "--n", "4", "--reps", "1", "--seed", "2"],
                env_extra={"CONEHULL_SEED": "1"})
    assert a.stdout == b.stdout


def test_pht_and_plot_deterministic(tmp_path):
    scene = tmp_path / "scene.json"
    svg1 = tmp_path / "a.svg"
    svg2 = tmp_path / "b.svg"
    proc = run_cli(["pht", "--d", "2", "--gamma", "0.5", "--R", "15", "--reps", "1",
                    "--seed", "4", "--scene", str(scene)])
    assert proc.returncode == 0
    assert scene.exists()
    run_cli(["plot", "--input", str(scene), "--svg", str(svg1)])
    run_cli(["plot", "--input", str(scene), "--svg", str(svg2)])
    assert svg1.read_bytes() == svg2.read_bytes()
    text = svg1.read_text()
    assert text.startswith("<?xml")
    assert "<circle" in text and "<path" in text


def test_pht_scene_polygon_edges_lie_on_its_chords(tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    assert main(["pht", "--d", "2", "--gamma", "0.5", "--reps", "1", "--seed", "4",
                 "--scene", str(scene_path)]) == 0
    scene = json.loads(scene_path.read_text())
    chords = np.array(scene["chords"])
    verts = np.array(scene["polygons"][0])
    R = scene["window_radius"]
    assert np.max(np.linalg.norm(verts, axis=1)) < R
    # order the vertices around their mean, then test every edge
    c = verts.mean(axis=0)
    verts = verts[np.argsort(np.arctan2(verts[:, 1] - c[1], verts[:, 0] - c[0]))]
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        resid = np.abs(chords[:, :2] @ np.stack([a, b], axis=1) - chords[:, 2:3])
        assert np.min(np.max(resid, axis=1)) <= 1e-9 * R


def test_pht_scene_rejects_typical(tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    rc = main(["pht", "--d", "2", "--reps", "1", "--typical", "importance",
               "--scene", str(scene_path)])
    assert rc == 2
    assert "error: --scene:" in capsys.readouterr().err
    assert not scene_path.exists()


def test_plot_empty_scene(tmp_path):
    scene = tmp_path / "empty.json"
    scene.write_text(json.dumps({"window_radius": 5.0, "chords": [], "polygons": []}))
    svg = tmp_path / "empty.svg"
    proc = run_cli(["plot", "--input", str(scene), "--svg", str(svg)])
    assert proc.returncode == 0
    assert "<svg" in svg.read_text()


def test_density_eval_square():
    cfg = {"dim": 2, "points": [[1.1, 0.9], [0.9, -1.1], [-0.9, 1.1], [-1.1, -0.9]]}
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(cfg, fh)
        path = fh.name
    proc = run_cli(["density", "--eval", "pc", "--config", path])
    rec = json.loads(proc.stdout)
    assert 0 < rec["value"] < 1
    proc2 = run_cli(["density", "--eval", "phin", "--config", path, "--n", "50"])
    assert json.loads(proc2.stdout)["value"] > 0
    os.unlink(path)


def test_profile_cli_bounded_fraction():
    proc = run_cli(["profile", "--kind", "pn", "--d", "2", "--n", "64", "--reps", "3", "--seed", "6"])
    recs = [json.loads(x) for x in proc.stdout.strip().split("\n")]
    assert all(r["attempts"] >= 1 for r in recs)
    assert all(r["polytope"]["dim"] == 2 for r in recs)


def test_profile_cli_reports_profile_f0():
    proc = run_cli(["profile", "--kind", "qn", "--d", "2", "--n", "16", "--reps", "2", "--seed", "3"])
    for rec in (json.loads(x) for x in proc.stdout.strip().split("\n")):
        assert "source_f0" not in rec
        assert rec["f0"] == len(rec["polytope"]["vertices"])


def test_main_entrypoint_inprocess(capsys):
    rc = main(["enumerate", "--dim", "3", "--n", "2", "--seed", "0"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["cells"] == 4


def test_verify_quick_subset(tmp_path):
    out = tmp_path / "records.csv"
    proc = run_cli(["verify", "--seed", "42", "--profile", "quick",
                    "--criteria", "closed-forms,harness-reproducibility",
                    "--out", str(out)])
    assert proc.returncode == 0
    text = out.read_text()
    assert text.startswith("experiment,d,n,reps,seed,")
    assert "closed-forms" in text
    assert "[PASS]" in proc.stdout


@pytest.mark.parametrize(
    "cfg, field",
    [
        ({"profile": "fast", "criteria": ["wendel"]}, "profile"),
        ({"profile": "fast", "criteria": ["closed-forms"]}, "profile"),
        ({"profile": "quick", "criteria": ["closed-forms"], "seeds": 1}, "seeds"),
        ({"profile": "quick", "criteria": ["no-such-criterion"]}, "criteria"),
        ({"profile": "quick", "criteria": "closed-forms"}, "criteria"),
        ({"profile": "quick", "workers": 0}, "workers"),
        ({"profile": "quick", "seed": 4.5}, "seed"),
    ],
)
def test_verify_config_rejects_bad_fields(tmp_path, cfg, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["verify", "--config", str(path)])
    assert proc.returncode == 2
    assert f"error: {field}:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_config_accepts_known_fields(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 42, "workers": 1, "profile": "quick",
                                "criteria": ["closed-forms"]}))
    out = tmp_path / "records.csv"
    proc = run_cli(["verify", "--config", str(path), "--out", str(out)])
    assert proc.returncode == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert rows and all(r.split(",")[0].startswith("closed-forms[") for r in rows)
    assert all(r.split(",")[10] == "true" for r in rows)
