import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from femforge import cli
from femforge.report import CheckResult


def run_main(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_dims_small_grid(capsys):
    code, out = run_main(["dims", "--d", "2..2", "--k", "1..2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 0
    assert doc["summary"]["pass"] > 0
    ids = {c["id"] for c in doc["checks"]}
    assert "dim-bubble-vector" in ids and "dim-trace-vector" in ids


def test_dims_includes_sym_rows_at_k2(capsys):
    code, out = run_main(["dims", "--d", "2..2", "--k", "2..2"], capsys)
    doc = json.loads(out)
    ids = {c["id"] for c in doc["checks"]}
    assert "dim-bubble-sym" in ids and "dim-trace-sym" in ids
    assert code == 0


def test_dims_cell_memoizes_catalog_spaces_only():
    # bubble spaces and div-kernel splits are built on each call: after a
    # dims cell the reference frame's memo holds catalog spaces alone
    from femforge import spaces

    cli._fixed_frame.cache_clear()
    try:
        assert all(res.passed for *_, res in cli._dims_checks(2, 3))
        keys = cli._fixed_frame(2, "ref")._space_cache.keys()
        assert keys and all(key[0] in spaces._CATALOG_TAGS for key in keys)
    finally:
        cli._fixed_frame.cache_clear()


def test_invalid_dimension_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dims", "--d", "5..5", "--k", "1..1"])
    assert exc.value.code == 1


def test_max_k_env_cap(capsys):
    # the degree cap is the constant DEFAULT_MAX_K; no environment variable moves it
    with pytest.raises(SystemExit) as exc:
        cli.main(["dims", "--d", "2..2", "--k", "1..7"])
    assert exc.value.code == 1
    assert f"capped at {cli.DEFAULT_MAX_K}" in capsys.readouterr().err


def test_jobs_below_one_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dims", "--d", "2..2", "--k", "1..1", "--jobs", "0"])
    assert exc.value.code == 1


@pytest.mark.parametrize("family", ["green", "ops"])
def test_negative_degree_cells_are_skipped(capsys, family):
    # k = -1 alone leaves nothing to run: no vacuous pass
    assert cli.main(["verify", "--family", family, "--d", "2..2", "--k", "-1"]) == 1
    assert "no runnable" in capsys.readouterr().err
    code, out = run_main(["verify", "--family", family, "--d", "2..2", "--k=-1..0"], capsys)
    assert code == 0
    checks = json.loads(out)["checks"]
    skipped = [c for c in checks if c["status"] == "skip"]
    assert [c["k"] for c in skipped] == [-1]
    assert skipped[0]["context"]["reason"]
    assert all(c["status"] == "pass" for c in checks if c["k"] == 0)


@pytest.mark.parametrize("k", ["0", "-1"])
def test_dims_below_degree_one_is_not_run(capsys, k):
    # the formulas are stated for k >= 1: k = 0 used to report two false
    # falsifications and k = -1 to crash
    assert cli.main(["dims", "--d", "2..3", "--k", k]) == 1
    assert "no runnable" in capsys.readouterr().err


def test_dims_skips_degree_zero_cells(capsys):
    code, out = run_main(["dims", "--d", "2..2", "--k=0..1"], capsys)
    assert code == 0
    doc = json.loads(out)
    skipped = [c for c in doc["checks"] if c["status"] == "skip"]
    assert [(c["d"], c["k"]) for c in skipped] == [(2, 0)]
    assert skipped[0]["context"]["reason"]
    assert doc["summary"]["fail"] == 0 and doc["summary"]["pass"] > 0


def test_verify_single_family(capsys):
    code, out = run_main(["verify", "--family", "BDM", "--d", "2..2", "--k", "1..2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 0
    kinds = {c["id"] for c in doc["checks"]}
    assert {"unisolvence-BDM", "trace-block-BDM", "conformity-BDM"} <= kinds


def test_verify_includes_negative_control(capsys):
    code, out = run_main(["verify", "--family", "DivDiv", "--d", "2..2", "--k", "3..3"], capsys)
    assert code == 0
    doc = json.loads(out)
    conf = [c for c in doc["checks"] if c["id"] == "conformity-DivDiv"]
    assert conf and conf[0]["context"]["negative_control_jumped"] is True


def test_verify_below_floor_is_rejected(capsys):
    code = cli.main(["verify", "--family", "DivDivPlus", "--d", "2..2", "--k", "2..2"])
    assert code == 1


def test_verify_range_skips_below_floor_cells(capsys):
    code, out = run_main(
        ["verify", "--family", "DivDivPlus", "--d", "2..2", "--k", "2..3"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    skipped = [c for c in doc["checks"] if c["status"] == "skip"]
    assert len(skipped) == 1 and skipped[0]["k"] == 2


def test_verify_deterministic_bytes(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["verify", "--family", "RT", "--d", "2..2", "--k", "0..1", "--simplex", "random",
            "--seed", "9"]
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# sha256 of the reports of fixed grids, pinned so that a change to the
# exact core that must keep every report byte for byte is held to it
_GOLDEN_REPORTS = [
    pytest.param(["verify", "--d", "2", "--k", "1..4"],
                 "7fa81325b8c4b709c4e39f86791d7f983586c8d3dde7599b1fbad47fe5c95194", id="verify-d2"),
    pytest.param(["verify", "--d", "2", "--k", "1..4", "--simplex", "random", "--seed", "7"],
                 "7f3742d953b28614f052c9287231136a1cbaa12751518b4a7e7e55fbc75162a4", id="verify-d2-random-7"),
    pytest.param(["dims", "--d", "2..3", "--k", "1..4"],
                 "0ff19765caab5dbe499fbae595f2b3ba84604d177e30d2190e11643c3a821580", id="dims-d2-3"),
    pytest.param(["verify", "--d", "3", "--k", "2..3", "--family", "HdivS_minus", "--family", "DivDivMinus",
                  "--family", "DivDivPlusMinus"],
                 "52df55401a4c006a997368eec32980dcf7f686bbf3a65aa0f93ce21456943eef", id="verify-d3-minus"),
    # the certify-d3 cells through the CLI, patch checks included
    pytest.param(["verify", "--d", "3", "--k", "4", "--family", "BDM", "--family", "DivDiv"],
                 "5468689884b5377dadf30bd52455b869bb6c754b7a582743581fa42ceead4983", id="verify-d3-k4"),
    pytest.param(["verify", "--d", "3", "--k", "4", "--family", "BDM", "--family", "DivDiv",
                  "--simplex", "random", "--seed", "7"],
                 "0ebdfb29582b392c0a615263af4241b061d5a0f87e2fbca67cd718292fe903de", id="verify-d3-k4-random-7"),
    # the symmetric div families, whose trace blocks check the sym bubble generators
    pytest.param(["verify", "--d", "3", "--k", "2..3", "--family", "HdivS", "--family", "HdivS_split",
                  "--family", "HdivS_minus", "--simplex", "random", "--seed", "7"],
                 "a801d34c7cc4412ab03db49516e9cd43b09a4fdc3300af92402b2638d4d7e643", id="verify-d3-hdivs-random-7"),
    # d=4, where the order of the Bernstein columns changes the most eliminations
    pytest.param(["verify", "--d", "4", "--k", "2..3", "--family", "BDM", "--family", "HdivS",
                  "--family", "HdivS_split"],
                 "b3b424d88c7f1a10ce4206bd6463797ae4de4f29d171b227eef9f342b7e9d792", id="verify-d4-hdivs"),
    # d=4 for the two families whose bubble is not the span of degree-k generators alone:
    # the HdivS_minus enrichment and the RT trace kernel
    pytest.param(["verify", "--d", "4", "--k", "2..3", "--family", "HdivS_minus", "--family", "RT"],
                 "29999a91c3572a3dec3380215cf2ef0f7ee6e5c076294c4056e444d88759befc", id="verify-d4-minus-rt"),
    # RT k=0, whose shared block is the Bernstein block of degree 0
    pytest.param(["verify", "--d", "2..3", "--k", "0..1", "--family", "RT"],
                 "d7ced5b0892241de05e790e1f9a72fa5c4d4366ef399a39c3895d46e1d7ad436", id="verify-rt-k0-1"),
    pytest.param(["verify", "--d", "2..3", "--k", "0..1", "--family", "RT", "--simplex", "random", "--seed", "7"],
                 "819e828cf7354cbb193eb69a506a82684f2cb78b7513fd7c96382749f92b46bd", id="verify-rt-k0-1-random-7"),
    # the Green cells at d=3..4, whose forms are zero, and a HdivS_minus patch
    # check solved on P_k(S) instead of the catalog space with its enrichment
    pytest.param(["verify", "--d", "3..4", "--k", "0..4", "--family", "green"],
                 "97c0b46df95520dd4772d5b13b439a12e5b46655ccca784891e40c6e07de0eee", id="verify-green-d3-4"),
    pytest.param(["verify", "--d", "3", "--k", "4", "--family", "HdivS_minus"],
                 "bab7a845378c9b27c862f31b010aef6c4f488cc645608256abd8c61f88292732", id="verify-d3-k4-minus"),
]


@pytest.mark.parametrize("argv,digest", _GOLDEN_REPORTS)
def test_report_bytes_are_pinned(tmp_path, argv, digest):
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_verify_grid_assembles_no_dof_matrix(tmp_path, monkeypatch):
    # every cell of the verify-d2 grid passes from DoF rows times the shape
    # basis: no DoF matrix is assembled, no DoF applied member by member
    from femforge import elements

    argv, digest = next(p.values for p in _GOLDEN_REPORTS if p.id == "verify-d2")
    per_member, apply = [], elements.apply_dof
    monkeypatch.setattr(elements, "apply_dof", lambda *args: per_member.append(args) or apply(*args))
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--jobs", "1", "--out", str(out)]) == 0
    assert per_member == []
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of the exported files of the three minus families, whose shape
# spaces are sums of two catalog spaces
_GOLDEN_EXPORTS = {
    "DivDivMinus_d2_k3.json": "8ba75a36189794325ee0c60c7b76fe2aeda15ceb634803d2db6f852922f30fde",
    "DivDivPlusMinus_d2_k3.json": "49ef132745ccfe58b3e20541aa94ba0c9f8b262eeb9cf2fc6ffcc4ae93cc7a89",
    "HdivS_minus_d2_k2.json": "3c3650873beb1f5164a35292b612accece59c6d3666e15121036dc7d726e5167",
    "HdivS_minus_d2_k3.json": "2fffef2369aa9bdaece1db065d7b1bf347a990cf2d9debad08e821a1dc8ace13",
}


def test_export_bytes_of_the_minus_families_are_pinned(tmp_path):
    argv = ["export", "--family", "HdivS_minus", "--family", "DivDivPlusMinus", "--family", "DivDivMinus",
            "--d", "2", "--k", "2..3", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == _GOLDEN_EXPORTS


# sha256 of the exports of the other six families at their two lowest
# degrees, which pin each family's DoF order, labels and test functions
_GOLDEN_FAMILY_EXPORTS = {
    "BDM_d2_k1.json": "adc9606f8c6d799cff19fabda92289f8b4c394d0b416da9aef1e9ad0c8ce5bc8",
    "BDM_d2_k2.json": "d49443db131a8209fc7243b6e439d8bad0e8c7f64a5612b00aac58a39f5687dc",
    "RT_d2_k0.json": "116482d810d5cd53dcb4dbed599275b09325e5461743e491319e71b28eb1cc1d",
    "RT_d2_k1.json": "533b2062e7f230661cd167dd737a9e64a7f15e54256e139ec89d7b3b14cca1cc",
    "HdivS_d2_k2.json": "1591b1178f6a2c06235105b7aae64e9f76417b1890bffae57d7656cbdb5a26ad",
    "HdivS_d2_k3.json": "b048b74536a4d09119a7d99247ee3967bcc55882df6a4860d762b877d6aa3895",
    "HdivS_split_d2_k2.json": "0d72cd1af3f556a27cf79c624854122fd9eda4fd646a50809b0a983c1b8b5581",
    "HdivS_split_d2_k3.json": "fb622af87b5204be26db93183e8af1d11d2f123d93aa0a3712f28b9e6855ecbe",
    "DivDivPlus_d2_k3.json": "c6c1d0a1e453dcb7a722e5aeebf7162f1456dfaa357821f43179f1e53e03b2b1",
    "DivDivPlus_d2_k4.json": "66ac4170519260331a4f2bec284326707b2ec01f84d913879463d6e216a9bb09",
    "DivDiv_d2_k3.json": "ef247951fe135599c84822d12b03cd43a9809397a857a242351738cd5b4e5191",
    "DivDiv_d2_k4.json": "906130ab4e0950a1acef78498d90a030c2c974def342ac9f826af2aa71260245",
}


@pytest.mark.parametrize("family", ["BDM", "RT", "HdivS", "HdivS_split", "DivDivPlus", "DivDiv"])
def test_export_bytes_of_each_family_are_pinned(tmp_path, family):
    floor = cli.FAMILIES[family].floor(2)
    argv = ["export", "--family", family, "--d", "2", "--k", f"{floor}..{floor + 1}", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == {name: digest for name, digest in _GOLDEN_FAMILY_EXPORTS.items()
                   if name.startswith(f"{family}_d2_")}


# sha256 of d=3 exports on a random tetrahedron, for the three families whose
# shape bases have columns past the Bernstein block (DivDivMinus k=2 is below
# its floor and writes no file)
_GOLDEN_D3_EXPORTS = {
    "RT_d3_k2.json": "c44820093c86d3165e5b1fd65a0afd12501b12be6dfc3dfb2be043842dc72c9a",
    "RT_d3_k3.json": "3483cab569123e1312ab24dbb468ab2d6a5965d7beef88cc295fbafb91e7d496",
    "HdivS_minus_d3_k2.json": "2938ac518e6761fc5ca0408f50c941447ae9a0874e57fccf612a3336ae428c7d",
    "HdivS_minus_d3_k3.json": "ed3c025f41a42e4a1953711c0473db43da7821931ee73d40f9284ed3390fec9b",
    "DivDivMinus_d3_k3.json": "20b49b71ec0be0fbe9f1e65ac5bdd11f59dfb5d084b1edf34f7e4d178ea99b67",
}


def test_export_bytes_at_d3_on_a_random_simplex_are_pinned(tmp_path):
    argv = ["export", "--family", "RT", "--family", "HdivS_minus", "--family", "DivDivMinus",
            "--d", "3", "--k", "2..3", "--simplex", "random", "--seed", "7", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == _GOLDEN_D3_EXPORTS


# sha256 of d=3 exports on the reference tetrahedron: the nodal basis of
# HdivS_minus passes through the columns of its enrichment, that of RT k=1
# through H_1 x, past the leading identity block of the catalog basis
_GOLDEN_D3_REFERENCE_EXPORTS = {
    "HdivS_minus_d3_k2.json": "28fec4c5becb63fc997a31c754c8e669b87dc7a47c2be215b0c0973ac3b9fd17",
    "RT_d3_k1.json": "21ac034cb8f8fc2b5bc07391fdf46e46d826352888ea49778701ca09cccef219",
}


def test_export_bytes_of_direct_sums_at_d3_are_pinned(tmp_path):
    for family, k in (("HdivS_minus", "2"), ("RT", "1")):
        assert cli.main(["export", "--family", family, "--d", "3", "--k", k, "--out", str(tmp_path)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == _GOLDEN_D3_REFERENCE_EXPORTS


def test_repeated_family_runs_once(tmp_path, capsys):
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    argv = ["verify", "--d", "2", "--k", "1..2", "--family", "BDM"]
    assert cli.main(argv + ["--out", str(once)]) == 0
    assert cli.main(argv + ["--family", "RT", "--family", "BDM", "--out", str(twice)]) == 0
    doc = json.loads(twice.read_text())
    assert doc["config"]["families"] == ["BDM", "RT"]
    assert [c for c in doc["checks"] if c["family"] == "BDM"] == json.loads(once.read_text())["checks"]
    capsys.readouterr()
    argv = ["export", "--family", "RT", "--family", "RT", "--d", "2", "--k", "0", "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err.count("RT_d2_k0.json") == 1


def test_verify_markdown(capsys):
    code, out = run_main(
        ["verify", "--family", "RT", "--d", "2..2", "--k", "0..0", "--format", "markdown"],
        capsys,
    )
    assert code == 0
    assert out.startswith("# femforge verification report")
    assert "summary:" in out


def test_verify_ops_family(capsys):
    code, out = run_main(["verify", "--family", "ops", "--d", "2..4", "--k", "0..5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 0
    assert any(c["id"] == "divdiv-koszul-eigenvalue" for c in doc["checks"])


def test_export_roundtrip(tmp_path, capsys):
    outdir = tmp_path / "elements"
    code = cli.main(["export", "--family", "RT", "--d", "2..2", "--k", "0..0",
                     "--out", str(outdir)])
    assert code == 0
    data = json.loads((outdir / "RT_d2_k0.json").read_text())
    assert data["dim"] == 3
    assert len(data["nodal_basis"]) == 3
    code2 = cli.main(["export", "--family", "RT", "--d", "2..2", "--k", "0..0",
                      "--out", str(outdir)])
    assert code2 == 0


def test_export_unknown_family():
    assert cli.main(["export", "--family", "Nope", "--d", "2..2", "--k", "1..1"]) == 1


def test_export_without_runnable_cells_is_rejected(tmp_path, capsys):
    outdir = tmp_path / "elements"
    code = cli.main(["export", "--family", "DivDiv", "--d", "3..3", "--k", "1..1", "--out", str(outdir)])
    assert code == 1
    assert "no runnable (d, k) cells for: DivDiv" in capsys.readouterr().err
    assert not outdir.exists()


def test_export_reports_skipped_cells(tmp_path, capsys):
    code = cli.main(["export", "--family", "HdivS", "--d", "2..2", "--k", "1..2", "--out", str(tmp_path)])
    assert code == 0
    assert "skip HdivS d=2 k=1 (below degree floor 2)" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["HdivS_d2_k2.json"]


def test_export_defaults_to_bdm(tmp_path, capsys):
    assert cli.main(["export", "--d", "2..2", "--k", "1..1", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BDM_d2_k1.json"]


def test_family_help_names_each_default(capsys):
    with pytest.raises(SystemExit):
        cli.main(["export", "--help"])
    assert "defaults to BDM" in " ".join(capsys.readouterr().out.split())
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    assert "defaults to every family and pseudo-family" in " ".join(capsys.readouterr().out.split())


# each subcommand takes only the options it reads
@pytest.mark.parametrize("command,option", [
    pytest.param("dims", ["--family", "BDM"], id="dims-family"),
    pytest.param("dims", ["--simplex", "random"], id="dims-simplex"),
    pytest.param("dims", ["--seed", "5"], id="dims-seed"),
    pytest.param("export", ["--format", "markdown"], id="export-format"),
    pytest.param("export", ["--jobs", "4"], id="export-jobs"),
])
def test_subcommand_rejects_the_options_it_ignores(tmp_path, capsys, command, option):
    with pytest.raises(SystemExit) as err:
        cli.main([command, *option, "--d", "2..2", "--k", "1..1", "--out", str(tmp_path / "out")])
    assert err.value.code == 1
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_export_io_error():
    code = cli.main(["export", "--family", "RT", "--d", "2..2", "--k", "0..0",
                     "--out", "/dev/null/impossible"])
    assert code == 3


def test_falsification_exit_code(monkeypatch, capsys):
    fake = [("dims", 2, 1, CheckResult("forced-falsification", False, expected=1, got=0))]
    monkeypatch.setattr(cli, "_dims_checks", lambda d, k: fake)
    code, out = run_main(["dims", "--d", "2..2", "--k", "1..1"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 1


def test_console_module_invocation():
    # the child imports femforge from where this process does, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "femforge.cli", "verify", "--family", "ops",
         "--d", "2..2", "--k", "1..2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["summary"]["fail"] == 0


def test_verify_jobs_flag_matches_sequential(tmp_path):
    argv = ["verify", "--family", "BDM", "--d", "2..2", "--k", "1..2"]
    a = tmp_path / "seq.json"
    b = tmp_path / "par.json"
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--jobs", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_dims_jobs_flag_matches_sequential(tmp_path):
    argv = ["dims", "--d", "2..3", "--k", "1..2"]
    a = tmp_path / "seq.json"
    b = tmp_path / "par.json"
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--jobs", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simplex_file_source(tmp_path, capsys):
    path = tmp_path / "tri.json"
    path.write_text('{"d": 2, "vertices": [["0/1","0/1"], ["2/1","1/3"], ["-1/2","1/1"]]}')
    code, out = run_main(
        ["verify", "--family", "BDM", "--d", "2..2", "--k", "1..1", "--simplex", str(path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 0
    assert doc["config"]["simplex"] == str(path)


def test_simplex_file_dimension_mismatch(tmp_path):
    path = tmp_path / "tri.json"
    path.write_text('{"d": 2, "vertices": [["0/1","0/1"], ["1/1","0/1"], ["0/1","1/1"]]}')
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--family", "BDM", "--d", "3..3", "--k", "1..1",
                  "--simplex", str(path)])
    assert exc.value.code == 1


def test_simplex_file_unreadable():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--family", "BDM", "--d", "2..2", "--k", "1..1",
                  "--simplex", "/nonexistent/simplex.json"])
    assert exc.value.code == 1


@pytest.mark.parametrize("content", [
    '{"d": 2, "vertices": [["0", "0"], ["1/0", "0"], ["0", "1"]]}',
    '{"d": 2, "vertices": 5}',
    '[[0, 0], [1, 0], [0, 1]]',
])
def test_simplex_file_malformed(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--family", "BDM", "--d", "2..2", "--k", "1..1",
                  "--simplex", str(path)])
    assert exc.value.code == 1
    assert "cannot read simplex file" in capsys.readouterr().err


@pytest.mark.parametrize("d", ["2.5", '"2"', "true", "2.0"])
def test_simplex_file_d_must_be_a_json_integer(tmp_path, capsys, d):
    path = tmp_path / "bad.json"
    path.write_text('{"d": %s, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}' % d)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--family", "BDM", "--d", "2..2", "--k", "1..1",
                  "--simplex", str(path)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "cannot read simplex file" in err and f"not {d}" in err


def test_verify_reports_stability_range_flag(capsys):
    code, out = run_main(["verify", "--family", "HdivS", "--d", "2..2", "--k", "2..3"], capsys)
    assert code == 0
    doc = json.loads(out)
    uni = {c["k"]: c for c in doc["checks"] if c["id"] == "unisolvence-HdivS"}
    assert uni[2]["context"]["stability_range"] is False  # below d+1
    assert uni[3]["context"]["stability_range"] is True


def test_export_hdivs_30_functions(tmp_path):
    outdir = tmp_path / "exp"
    code = cli.main(["export", "--family", "HdivS", "--d", "2..2", "--k", "3..3",
                     "--out", str(outdir)])
    assert code == 0
    data = json.loads((outdir / "HdivS_d2_k3.json").read_text())
    assert data["dim"] == 30 and len(data["nodal_basis"]) == 30


def _cached_frames() -> int:
    """Frames and patches held by the CLI's per-call caches."""
    return cli._fixed_frame.cache_info().currsize + cli._fixed_patch.cache_info().currsize


def test_verify_in_process_repeats_and_keeps_no_frame_memo(tmp_path, monkeypatch):
    # one reference frame per dimension within a call, none kept after it
    reference = cli.reference_simplex
    for argv in (["verify", "--family", "BDM", "--family", "HdivS", "--family", "decomp", "--d", "2..2",
                  "--k", "1..3"],
                 ["dims", "--d", "2..2", "--k", "1..3"]):
        built = []
        monkeypatch.setattr(cli, "reference_simplex", lambda d: built.append(d) or reference(d))
        for name in ("a.json", "b.json"):
            assert cli.main(argv + ["--out", str(tmp_path / name)]) == 0
            assert _cached_frames() == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert built == [2, 2], argv[0]


def test_simplex_file_is_read_once_per_call(tmp_path, monkeypatch):
    path = tmp_path / "tri.json"
    path.write_text('{"d": 2, "vertices": [["0/1","0/1"], ["2/1","1/3"], ["-1/2","1/1"]]}')
    read = []
    load = cli._load_frame_file
    monkeypatch.setattr(cli, "_load_frame_file", lambda p: read.append(p) or load(p))
    argv = ["verify", "--family", "BDM", "--family", "green", "--d", "2..2", "--k", "1..2",
            "--simplex", str(path), "--out", str(tmp_path / "r.json")]
    for calls in (1, 2):
        assert cli.main(argv) == 0
        assert read == [str(path)] * calls and _cached_frames() == 0
    # the usage error of a dimension mismatch keeps no frame either
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--family", "BDM", "--d", "3..3", "--k", "1..1", "--simplex", str(path)])
    assert exc.value.code == 1
    assert read == [str(path)] * 3 and _cached_frames() == 0


def test_random_simplex_cells_get_fresh_frames(tmp_path, monkeypatch):
    made = []
    draw = cli.random_frame
    monkeypatch.setattr(cli, "random_frame", lambda d, rng: made.append(d) or draw(d, rng))
    argv = ["verify", "--family", "BDM", "--d", "2..2", "--k", "1..2", "--simplex", "random",
            "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0
    assert made == [2, 2]
