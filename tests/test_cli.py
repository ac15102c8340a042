import functools
import json
import operator
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import kocover
from kocover import (Complex, SubdivisionTower, assemble_product_cover, build_cover,
                     builtin)
from kocover.cli import run
from kocover.complexes import CATALOG
from kocover.tower import cell_encoder


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bounds_inline(capsys):
    code, out, _ = invoke(capsys, "bounds", "--dim", "3", "--cat-u", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 2
    assert any(t["rule"] == "classifying-average" for t in data["trace"])


def test_bounds_fibration(capsys):
    code, out, _ = invoke(capsys, "bounds", "--dim", "7", "--base-dim", "4",
                          "--fiber-dim", "3", "--json")
    assert code == 0
    assert json.loads(out)["value"] == 5


@pytest.mark.parametrize("argv,named", [
    (["--dim", "2", "--cd", "-4"], "cd_pi must be nonnegative"),
    (["--dim", "2", "--cat-u", "-1"], "cat_u must be nonnegative"),
    (["--dim", "2", "--cat-u", "3"], "cannot exceed the dimension"),
    (["--dim", "2", "--r", "1", "--cat-u", "-3"], "cat_u must be nonnegative"),
    (["--dim", "2", "--base-dim", "1", "--fiber-dim", "-4"], "dim_fiber must be nonnegative"),
    (["--dim", "7", "--fiber-dim", "3"], "--base-dim"),
    (["--dim", "7", "--base-dim", "4"], "--fiber-dim"),
])
def test_bounds_refuses_impossible_inputs(capsys, argv, named):
    # each once exited 0 with a bound of -1 or 0, or silently dropped a rule
    code, out, err = invoke(capsys, "bounds", *argv, "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize("profile,named", [
    pytest.param([1, 2], "got list", id="list"),
    pytest.param({}, "'dim' is required", id="no-dim"),
    pytest.param({"dim": "3"}, "'dim'", id="dim-str"),
    pytest.param({"dim": True}, "'dim'", id="dim-bool"),
    pytest.param({"dim": 3, "r": 1.0}, "'r'", id="r-float"),
    pytest.param({"dim": 3, "cd_pi": "infinite"}, "'cd_pi'", id="cd-word"),
    pytest.param({"dim": 3, "cat_u": 2.5}, "'cat_u'", id="cat_u-float"),
    pytest.param({"dim": 3, "cat_u": None}, "'cat_u'", id="cat_u-null"),
    pytest.param({"dim": 3, "simply_connected": 1}, "'simply_connected'",
                 id="simply-connected-1"),
    pytest.param({"dim": 3, "fibration": 5}, "'fibration'", id="fibration-5"),
    pytest.param({"dim": 3, "fibration": {"dim_base": "x", "dim_fiber": 2}},
                 "'dim_base'", id="dim_base-str"),
    pytest.param({"dim": 3, "fibration": {"dim_base": 1}}, "'dim_fiber' is required",
                 id="no-dim_fiber"),
    pytest.param({"dim": 3, "fibration": {"dim_base": 1, "dim_fiber": 2,
                                          "cat_base": True, "cat_fiber": 1}},
                 "'cat_base'", id="cat_base-bool"),
    pytest.param({"dim": 3, "fibration": {"dim_base": 1, "dim_fiber": 2,
                                          "cat_base": 1, "cat_fiber": -1}},
                 "cat_fiber must be nonnegative", id="cat_fiber-negative"),
    pytest.param({"dim": 3, "fibration": {"dim_base": 1, "dim_fiber": 2, "cat_base": -1}},
                 "cat_base must be nonnegative", id="cat_base-negative-alone"),
    # refused even where the fibration rule does not apply
    pytest.param({"dim": 3, "fibration": {"dim_base": -1, "dim_fiber": 4}},
                 "dim_base must be nonnegative", id="dim_base-negative"),
    pytest.param({"dim": -1}, "dim must be nonnegative", id="dim-negative"),
])
def test_bounds_mistyped_profile_is_usage_error(tmp_path, capsys, profile, named):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    code, out, err = invoke(capsys, "bounds", "--profile", str(path), "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and named in err


def test_bounds_profile_file(tmp_path, capsys):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"dim": 4, "cd_pi": "inf", "cat_u": 1, "fibration": None}))
    code, out, _ = invoke(capsys, "bounds", "--profile", str(path), "--json")
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_complex_info_and_dual(capsys):
    code, out, _ = invoke(capsys, "complex", "info", "--builtin", "torus-7", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["euler_characteristic"] == 0 and data["dim"] == 2

    code, out, _ = invoke(capsys, "complex", "dual", "--builtin",
                          "boundary-delta-3", "--m", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["cells_by_dim"] == {"0": 4}
    assert data["dim"] == 0


def test_complex_skeleton_and_bary(capsys):
    code, out, _ = invoke(capsys, "complex", "skeleton", "--builtin",
                          "boundary-delta-3", "--m", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["facets"]) == 6

    code, out, _ = invoke(capsys, "complex", "bary", "--builtin", "delta-2", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 7
    assert len(data["facets"]) == 6


# s1-x-s2 is left out only because the quadratic scan takes seconds there
@pytest.mark.parametrize("name", [n for n in CATALOG if n != "s1-x-s2"]
                         + ["random:2:7:3", "random:1:5:2", "random:3:7:11"])
def test_bary_facets_match_the_quadratic_scan(capsys, name):
    code, out, _ = invoke(capsys, "complex", "bary", "--builtin", name, "--json")
    assert code == 0
    tower = SubdivisionTower(builtin(name))
    cx = tower.base
    verts = ["+".join(cx.label_cell(c)) for c in tower.level(1).verts]
    cells = tower.cells(1)
    maximal = [sorted(verts[v] for v in top) for top in cells
               if not any(set(top) < set(other) for other in cells)]
    expected = Complex(sorted(verts), sorted(maximal), name=(cx.name or "complex") + "-bary")
    assert json.loads(out) == expected.to_json()


@pytest.mark.parametrize("spec", ["random:-1:3:1", "random:-2:3:1"])
def test_negative_random_dimension_is_usage_error(capsys, spec):
    code, out, err = invoke(capsys, "complex", "info", "--builtin", spec)
    assert (code, out) == (2, "")
    assert f"dimension {spec.split(':')[1]} is negative" in err


def test_unknown_builtin_is_usage_error(capsys):
    code, _, err = invoke(capsys, "complex", "info", "--builtin", "nope")
    assert code == 2
    assert "unknown builtin" in err


@pytest.mark.parametrize("argv, flag", [
    (["cover", "verify"], "--in"),
    (["cover", "kcheck"], "--in"),
    (["product", "verify"], "--in"),
    (["product", "build", "--b", "s1"], "--x"),
    (["product", "build", "--x", "torus-7"], "--b"),
])
def test_a_missing_input_flag_is_usage_error(capsys, argv, flag):
    # each once crashed with a TypeError or AttributeError traceback and
    # exit 1, the code for a failed verification
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {argv[0]} {argv[1]} requires {flag}\n"


@pytest.mark.parametrize("argv", [
    ["cover", "verify", "--in"], ["cover", "kcheck", "--in"],
    ["product", "verify", "--in"], ["bounds", "--profile"], ["complex", "info", "--in"],
])
@pytest.mark.parametrize("what", ["directory", "non-utf-8"])
def test_an_unreadable_input_file_is_usage_error(tmp_path, capsys, argv, what):
    # each once crashed with an IsADirectoryError or UnicodeDecodeError
    # traceback and exit 1
    path = tmp_path
    if what == "non-utf-8":
        path = tmp_path / "latin-1.json"
        path.write_bytes('{"name": "\u00e9"}'.encode("latin-1"))
    code, out, err = invoke(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("input error:")


def test_cover_round_trip(tmp_path, capsys):
    out_file = tmp_path / "bundle.json"
    code, _, _ = invoke(capsys, "cover", "build", "--builtin", "boundary-delta-3",
                        "--r", "1", "--m", "2", "--out", str(out_file))
    assert code == 0
    code, out, _ = invoke(capsys, "cover", "verify", "--in", str(out_file), "--json")
    assert code == 0
    assert json.loads(out)["ok"]

    code, out, _ = invoke(capsys, "cover", "kcheck", "--in", str(out_file),
                          "--k", "1", "--skeleton", "1", "--json")
    assert code == 0
    assert json.loads(out)["is_k_cover"]


def test_kcheck_refuses_a_negative_skeleton(tmp_path, capsys):
    # it once covered the empty region and exited 0
    path = tmp_path / "arc.json"
    path.write_text(json.dumps(build_cover(builtin("s1"), 0, 3).to_json()))
    code, out, err = invoke(capsys, "cover", "kcheck", "--in", str(path),
                            "--k", "1", "--skeleton", "-1", "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "skeleton dimension must be nonnegative" in err


def test_cover_build_infeasible_fails(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("KO_COVER_MAX_LEVEL", "4")
    code, _, err = invoke(capsys, "cover", "build", "--builtin", "delta-2",
                          "--r", "1", "--m", "5",
                          "--out", str(tmp_path / "x.json"))
    assert code == 1
    assert "level 5, over the cap 4" in err


def test_cover_build_m_below_n_usage_error(capsys, tmp_path):
    code, _, err = invoke(capsys, "cover", "build", "--builtin", "delta-2",
                          "--r", "0", "--m", "1",
                          "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "below the minimal admissible" in err


def test_product_round_trip(tmp_path, capsys):
    out_file = tmp_path / "product.json"
    code, _, _ = invoke(capsys, "product", "build", "--x", "boundary-delta-3",
                        "--b", "s1", "--out", str(out_file))
    assert code == 0
    code, out, _ = invoke(capsys, "product", "verify", "--in", str(out_file), "--json")
    assert code == 0
    assert json.loads(out)["ok"]


@pytest.mark.parametrize("factor", ["b_bundle", "x_bundle"])
def test_product_verify_fails_on_stripped_certificates(tmp_path, capsys, factor):
    data = assemble_product_cover(builtin("torus-7"), builtin("s1")).to_json()
    for cert in data[factor]["certificates"]:
        cert["steps"] = []
    path = tmp_path / "product.json"
    path.write_text(json.dumps(data))
    code, out, _ = invoke(capsys, "product", "verify", "--in", str(path), "--json")
    assert code == 1
    assert not json.loads(out)["ok"]


@pytest.mark.parametrize("command", ["cover", "product"])
@pytest.mark.parametrize("field", ["step", "target", "keep", "centers", "assignment",
                                   "explicit"])
def test_unknown_certificate_kind_is_usage_error(tmp_path, capsys, command, field):
    # an unknown vertex set or snap assignment kind was once read as explicit;
    # a snap has one rule, so explicit snap pairs are an unknown kind too
    snap = field in ("assignment", "explicit")
    if command == "cover":
        # layered stars: star elements, a push and a snap
        data = bundle = build_cover(builtin("delta-2"), 0, 3).to_json()
    else:
        # the staggered factor's stars push; the s1 arcs snap
        data = assemble_product_cover(builtin("boundary-delta-3"), builtin("s1")).to_json()
        bundle = data["b_bundle" if snap else "x_bundle"]
    cert = bundle["certificates"][0]
    step = {s["kind"]: s for s in cert["steps"]}
    if field == "step":
        cert["steps"] = [{"kind": "twist"}]
    elif field == "target":
        cert["target"]["kind"] = "twisted"
    elif field == "keep":
        step["push"]["keep"] = {"kind": "bogus", "verts": [0]}
    elif field == "centers":
        bundle["elements"][0]["centers"] = {"kind": "bogus", "verts": [0]}
    elif field == "assignment":
        step["snap"]["assignment"] = {"kind": "bogus", "pairs": []}
    else:
        step["snap"]["assignment"] = {"kind": "explicit", "pairs": [[[0], "0"]]}
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data))
    code, _, err = invoke(capsys, command, "verify", "--in", str(path))
    assert code == 2
    assert err.startswith("error:") and "unknown" in err
    if field == "explicit":
        assert "unknown snap assignment kind 'explicit'" in err


@pytest.mark.parametrize("spec,path", [
    ("s1", ("certificates", 0, "steps")),
    ("s1", ("certificates", 0, "target", "kind")),
    ("s1", ("certificates", 0, "steps", 0, "assignment", "kind")),
    ("s1", ("elements", 0, "kind")),
    ("delta-2", ("elements", 0, "centers", "kind")),
    ("delta-2", ("certificates", 0, "steps", 0, "keep", "kind")),
])
def test_missing_bundle_field_is_named(tmp_path, capsys, spec, path):
    # a missing field once exited 2 with only "input error: 'kind'"
    data = build_cover(builtin(spec), 0, 3).to_json()
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(data))
    code, out, err = invoke(capsys, "cover", "verify", "--in", str(bundle))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and f"field {path[-1]!r} is missing" in err


def test_a_refine_step_is_usage_error(tmp_path, capsys):
    # refine, a step no builder writes, once verified as a pass to the next level
    data = build_cover(builtin("s1"), 0, 3).to_json()
    data["certificates"][0]["steps"].append({"kind": "refine"})
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data))
    code, out, err = invoke(capsys, "cover", "verify", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "unknown step kind 'refine'" in err


def test_a_final_target_failure_names_no_step(tmp_path, capsys):
    # it was once reported as "step None: ..."
    data = build_cover(builtin("boundary-delta-3"), 0, 3).to_json()
    cert = data["certificates"][2]
    cert["steps"] = [s for s in cert["steps"] if s["kind"] != "snap"]
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data))
    code, out, _ = invoke(capsys, "cover", "verify", "--in", str(path), "--json")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1
    assert (checks["certificate-2"]["passed"], checks["certificate-2"]["detail"]) == \
        (False, "final carrier leaves the base 0-skeleton")
    assert not any("step None" in c["detail"] for c in checks.values())


def test_cover_verify_fails_on_emptied_certificate_list(tmp_path, capsys):
    data = build_cover(builtin("s1"), 0, 3).to_json()
    data["certificates"] = []
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data))
    code, out, _ = invoke(capsys, "cover", "verify", "--in", str(path), "--json")
    assert code == 1
    assert not json.loads(out)["ok"]


@pytest.mark.parametrize("command,where,value,named", [
    pytest.param("cover", ("params", "m"), "3", "'m'", id="cover-m-3"),
    pytest.param("cover", ("params", "r"), None, "'r'", id="cover-r-None"),
    pytest.param("cover", ("params", "max_level"), "4", "'max_level'",
                 id="cover-max_level-4"),
    pytest.param("product", ("params", "m"), True, "'m'", id="product-m-True"),
    # an s1 arc bundle: element 0 is an open cell set, certificate 0 one snap
    pytest.param("cover", ("elements", 0, "level"), "1", "'level'",
                 id="cover-element-level-1"),
    pytest.param("cover", ("certificates", 0, "target", "r"), "0", "'r'",
                 id="cover-target-r-0"),
    pytest.param("cover", ("elements",), 5, "'elements'", id="cover-elements-5"),
    pytest.param("cover", ("elements", 0, "cells", 0), 7, "malformed cell 7",
                 id="cover-cell-7"),
    pytest.param("cover", ("certificates", 0, "steps"), None, "'steps'",
                 id="cover-steps-None"),
    pytest.param("cover", ("certificates", 0, "steps", 0, "level"), 1.0, "'level'",
                 id="cover-snap-level-float"),
    # level-1 vertices of s1: 0, 1, 2 are the base vertices, 3 the edge (0, 1)
    pytest.param("cover", ("elements", 0, "cells", 0), [0, 1], "not a cell of level 1",
                 id="cover-cell-not-a-chain"),
    pytest.param("cover", ("elements", 0, "cells", 0), [True], "not a cell of level 1",
                 id="cover-cell-bool"),
    pytest.param("cover", ("elements", 0, "cells", 0), [-1], "not a cell of level 1",
                 id="cover-cell-negative"),
    pytest.param("cover", ("elements", 0, "cells", 0), [3, 0], "not a cell of level 1",
                 id="cover-cell-unsorted"),
    pytest.param("cover", ("elements", 0, "cells", 0), [], "not a cell of level 1",
                 id="cover-cell-empty"),
    # a non-object where an object belongs
    pytest.param("cover", ("params",), [], "'params'", id="cover-params-list"),
    pytest.param("cover", ("complex",), 5, "'complex'", id="cover-complex-5"),
    pytest.param("cover", ("elements", 0), 5, "'level'", id="cover-element-5"),
    pytest.param("cover", ("certificates", 0), [], "'steps'", id="cover-certificate-list"),
    pytest.param("cover", ("certificates", 0, "target"), 3, "'target'",
                 id="cover-target-3"),
    pytest.param("cover", ("certificates", 0, "steps", 0), 3, "'kind'", id="cover-step-3"),
    pytest.param("cover", ("certificates", 0, "steps", 0, "assignment"), [],
                 "'assignment'", id="cover-assignment-list"),
    pytest.param("cover", ("elements", 0), {"kind": "star", "level": 1, "centers": "old"},
                 "'centers'", id="cover-centers-old"),
    # a center dimension of 0 has one spelling, old-vertices
    *(pytest.param("cover", ("elements", 0), {"kind": "star", "level": 1, "centers": {
        "kind": "low-vertices", **dim}}, "'dim'", id=f"cover-low-vertices-dim-{tag}")
      for tag, dim in [("missing", {}), ("bool", {"dim": True}), ("string", {"dim": "1"}),
                       ("0", {"dim": 0}), ("negative", {"dim": -1})]),
    pytest.param("cover", ("complex", "vertices"), 5, "'vertices'",
                 id="cover-complex-vertices-5"),
    pytest.param("cover", ("complex", "facets"), 5, "'facets'", id="cover-complex-facets-5"),
    pytest.param("cover", ("complex", "facets", 0), 5, "'facets'",
                 id="cover-complex-facet-5"),
])
def test_mistyped_bundle_parameter_is_usage_error(tmp_path, capsys, command, where,
                                                  value, named):
    if command == "cover":
        data = build_cover(builtin("s1"), 0, 3).to_json()
    else:
        data = assemble_product_cover(builtin("s1"), builtin("point")).to_json()
    *keys, last = where
    functools.reduce(operator.getitem, keys, data)[last] = value
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data))
    code, _, err = invoke(capsys, command, "verify", "--in", str(path))
    assert code == 2
    assert err.startswith("error:") and named in err


def test_cover_verify_refuses_a_bundle_n_that_differs_from_the_complex(tmp_path, capsys):
    # two copies of one arc element: no longer a 2-cover of the circle
    data = build_cover(builtin("s1"), 0, 5).to_json()
    data["elements"][0] = data["elements"][1]
    data["certificates"][0] = data["certificates"][1]
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data))
    code, out, _ = invoke(capsys, "cover", "verify", "--in", str(path), "--json")
    assert code == 1
    assert {c["name"]: c["detail"] for c in json.loads(out)["checks"]
            if not c["passed"]} == {"profile-k2": "min Ord 3 on skeleton 1, need 4"}
    # a bundle that claims N = 1 drops the k = 2 claim; N follows from the
    # complex and r, so the claim is refused, not trusted
    data["params"]["N"] = 1
    path.write_text(json.dumps(data))
    code, _, err = invoke(capsys, "cover", "verify", "--in", str(path))
    assert code == 2
    assert err.startswith("error:") and "'N' is 1" in err and "N=2" in err


@pytest.mark.parametrize("edit", [
    pytest.param(lambda p: p[0].update(min_multiplicity=99), id="multiplicity-99"),
    pytest.param(lambda p: p.pop(), id="claim-dropped"),
    pytest.param(lambda p: p.append(dict(p[-1], k=3)), id="claim-added"),
    # True == 1, so a bool once passed for the int it equals
    pytest.param(lambda p: p[0].update(k=True), id="k-bool"),
])
@pytest.mark.parametrize("command", ["cover", "product"])
def test_cover_verify_refuses_a_profile_that_r_and_m_do_not_give(tmp_path, capsys,
                                                                  command, edit):
    # a claimed profile was once never read, so a bundle claiming
    # min_multiplicity 99 passed verification
    if command == "cover":
        data = build_cover(builtin("s1"), 0, 5).to_json()
        profile = data["profile"]
    else:
        data = assemble_product_cover(builtin("s1"), builtin("point")).to_json()
        profile = data["x_bundle"]["profile"]
    edit(profile)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data))
    code, out, err = invoke(capsys, command, "verify", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "'profile'" in err


@pytest.mark.parametrize("field,value", [("n", 1), ("d", 0)])
def test_product_verify_refuses_n_or_d_that_differs_from_its_factors(tmp_path, capsys,
                                                                      field, value):
    # n and d were once trusted: either edit verified with "ok": true
    data = assemble_product_cover(builtin("torus-7"), builtin("s1")).to_json()
    data["params"][field] = value
    path = tmp_path / "product.json"
    path.write_text(json.dumps(data))
    code, out, err = invoke(capsys, "product", "verify", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and f"field {field!r} is {value}" in err


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: d["certificates"].append(d["certificates"][0]), id="added"),
    pytest.param(lambda d: d["elements"].pop(), id="element-dropped"),
])
def test_a_certificate_past_the_last_element_is_usage_error(tmp_path, capsys, edit):
    # certificate i starts at element i, so a certificate with no element
    # has no start
    data = build_cover(builtin("s1"), 0, 3).to_json()
    edit(data)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data))
    code, out, err = invoke(capsys, "cover", "verify", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "'certificates'" in err
    assert f"certificate {len(data['elements'])} has no element to start at" in err


@pytest.mark.parametrize("value", ["abc", "-1", "4.0"])
def test_malformed_max_level_variable_is_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("KO_COVER_MAX_LEVEL", value)
    code, _, err = invoke(capsys, "cover", "build", "--builtin", "s1", "--r", "0",
                          "--m", "3")
    assert code == 2
    assert err.startswith("error:") and f"KO_COVER_MAX_LEVEL={value!r}" in err


def v1_bundle():
    """An s1 bundle as written before format 2: no format field, and cells
    as nested label lists."""
    bundle = build_cover(builtin("s1"), 0, 3)
    enc = cell_encoder(bundle.tower)
    data = bundle.to_json()
    del data["format"]
    for cellset in data["elements"]:
        cellset["cells"] = sorted(enc(cellset["level"], tuple(c)) for c in cellset["cells"])
    return data


def v2_bundle(data):
    """A format-3 cover or product bundle as format 2 wrote it: each
    certificate with its element again as its "start"."""
    for bundle in (data["x_bundle"], data["b_bundle"]) if "x_bundle" in data else (data,):
        for el, cert in zip(bundle["elements"], bundle["certificates"]):
            cert["start"] = el
        bundle["format"] = 2
    data["format"] = 2
    return data


@pytest.mark.parametrize("command,data,named", [
    pytest.param("cover", v1_bundle, "no 'format' field", id="cover-v1"),
    pytest.param("cover", lambda: v2_bundle(build_cover(builtin("s1"), 0, 3).to_json()),
                 "'format' 2", id="cover-format-2"),
    pytest.param("product", lambda: v2_bundle(assemble_product_cover(
        builtin("s1"), builtin("point")).to_json()), "'format' 2", id="product-format-2"),
    pytest.param("cover", lambda: {**build_cover(builtin("s1"), 0, 3).to_json(), "format": 4},
                 "'format' 4", id="cover-format-4"),
])
def test_other_bundle_formats_are_usage_errors(tmp_path, capsys, command, data, named):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data()))
    code, _, err = invoke(capsys, command, "verify", "--in", str(path))
    assert code == 2
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize("argv", [["cover", "verify"], ["cover", "kcheck"],
                                  ["product", "verify"]])
def test_bundle_that_is_not_an_object_is_usage_error(tmp_path, capsys, argv):
    # once blamed a missing 'format' field, as if the list were an old bundle
    path = tmp_path / "bundle.json"
    path.write_text("[1, 2]")
    code, out, err = invoke(capsys, *argv, "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "a bundle must be an object, got list" in err


@pytest.mark.parametrize("argv,out_note", [
    (["cover", "build", "--builtin", "s1", "--r", "0", "--m", "3"], "arc-phases, m=3"),
    (["product", "build", "--x", "boundary-delta-3", "--b", "s1"], "(m=2)"),
    (["cover", "build", "--builtin", "delta-2", "--r", "0", "--m", "5"],
     "wheel-cracks, m=5"),
])
def test_bundle_on_stdout_matches_the_out_file(tmp_path, capsys, argv, out_note):
    code, stdout, _ = invoke(capsys, *argv)
    assert code == 0
    path = tmp_path / "bundle.json"
    code, note, _ = invoke(capsys, *argv, "--out", str(path))
    assert code == 0 and out_note in note
    assert stdout.encode() == path.read_bytes()


@pytest.mark.parametrize("spec,r,m,construction", [
    ("torus-7", 2, 3, "trivial"),
    ("s1", 0, 5, "arc-phases"),
    ("boundary-delta-3", 0, 4, "layered-stars"),
    ("boundary-delta-3", 1, 2, "staggered-duals"),
    ("delta-2", 0, 5, "wheel-cracks"),
    ("product", None, None, "product"),
])
def test_streamed_bundle_is_the_one_shot_encoding(tmp_path, capsys, spec, r, m,
                                                  construction):
    # the writer streams a bundle piece by piece; the file must be the bytes
    # one json.dumps of the whole bundle, compact with sorted keys, gives
    path = tmp_path / "bundle.json"
    if construction == "product":
        argv = ["product", "build", "--x", "torus-7", "--b", "s1"]
        bundle = assemble_product_cover(builtin("torus-7"), builtin("s1"))
    else:
        argv = ["cover", "build", "--builtin", spec, "--r", str(r), "--m", str(m)]
        bundle = build_cover(builtin(spec), r, m)
        assert bundle.construction == construction
    code, _, _ = invoke(capsys, *argv, "--out", str(path))
    assert code == 0
    expected = json.dumps(bundle.to_json(), sort_keys=True, separators=(",", ":"))
    assert path.read_bytes() == expected.encode()


_WRITE_PEAK_SCRIPT = """
import os, resource, sys
from kocover import build_cover, builtin
from kocover.cli import _write_bundle

def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

bundle = build_cover(builtin("boundary-delta-3"), 0, 6)
built = peak_mb()
_write_bundle(bundle.iter_json(), "bundle.json", "bundle")
print(os.path.getsize("bundle.json"), peak_mb() - built)
"""


def test_writing_a_wheel_bundle_adds_little_to_the_build_peak(tmp_path):
    # the writer encodes one element at a time, a few hundred cells a piece,
    # so the process peaks in the build, not in the encoder: writing this
    # 1 MB bundle whole, as one list per cell and one string, added 12 MB
    src = str(Path(kocover.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _WRITE_PEAK_SCRIPT], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=True)
    size, added_mb = proc.stdout.splitlines()[-1].split()
    assert int(size) == 1_061_162
    assert float(added_mb) <= 2.0


def test_torus_wheel_bundle_round_trips_within_budget(tmp_path, capsys):
    path = tmp_path / "bundle.json"
    start = time.perf_counter()
    code, out, _ = invoke(capsys, "cover", "build", "--builtin", "torus-7",
                          "--r", "0", "--m", "6", "--out", str(path))
    assert code == 0 and "(wheel-cracks, m=6)" in out
    code, out, _ = invoke(capsys, "cover", "verify", "--in", str(path), "--json")
    assert code == 0 and json.loads(out)["ok"]
    assert time.perf_counter() - start < 60


def test_cuplength(capsys):
    code, out, _ = invoke(capsys, "cuplength", "--builtin", "rp2-6", "--json")
    assert code == 0
    assert json.loads(out)["cuplength_mod2"] == 2


def test_deterministic_output(tmp_path, capsys):
    outs = []
    for i in range(2):
        f = tmp_path / f"b{i}.json"
        code, _, _ = invoke(capsys, "cover", "build", "--builtin", "s1",
                            "--r", "0", "--m", "3", "--out", str(f))
        assert code == 0
        outs.append(f.read_bytes())
    assert outs[0] == outs[1]

    seeds = []
    for i in range(2):
        f = tmp_path / f"r{i}.json"
        code, _, _ = invoke(capsys, "cover", "build", "--builtin", "random:1:5:42",
                            "--r", "0", "--m", "2", "--out", str(f))
        assert code == 0
        seeds.append(f.read_bytes())
    assert seeds[0] == seeds[1]


# sha256 of CLI cover and product bundles in format 3 (compact JSON, cells
# as vertex-number lists, no certificate start) and of a certificate with
# explicit push verts and a snap; the encoding must not drift
PINNED_SHA256 = {
    "arc-s1-m5": "df523f4e1246737703a1ccb8f382a24c3041d76f6aa3b239b4178b239d8c062d",
    "staggered-bd3-r1-m2":
        "fa6c678f7d2c432ef1f053f0ced9b67ba84ee059ea29acf2df26f40485ec7054",
    "layered-bd3-m4": "0bf8da8ae6a7d020ea84d3ba046f71d705e12819dd5272e24b970335c68fd2bc",
    "wheel-delta-2-m5": "33d3b19076ec06c2410de2ff847a23e7051ddf990f518ded9610d2b92cb06113",
    "wheel-bd3-m6": "169af78f712e8c7ae72a7def2a99c0e3092b441502fe4a13815d0675c75d4744",
    "wheel-random-2-7-m5":
        "fe4465324cf30cd64945ec6ec5b872f7dc6e600303554e1fc1d7f0d79ae9450c",
    "certificate-s2-r0": "a3c7f486606a1355cd49014ab3f88ad7b796a615ea776436feda1db0368f4e1d",
    "product-rp2-6-s1": "2485d9e19a09ed1a68a5b3297568fef9ab6b4b512817af534b4065349e1ef120",
    "product-torus-7-s1": "57f3079ecb20f56b4b73ea089e54cf69b5c38dabc92321513d3652b4daa9a805",
}

_PIN_SCRIPT = """
import hashlib, json
from conftest import dual_push_certificate
from kocover import OpenCellSet, SubdivisionTower, builtin
from kocover.certify import certificate_to_json
from kocover.cli import run

out = {}
for tag, argv in [("arc-s1-m5", ["s1", "--r", "0", "--m", "5"]),
                  ("staggered-bd3-r1-m2", ["boundary-delta-3", "--r", "1", "--m", "2"]),
                  ("layered-bd3-m4", ["boundary-delta-3", "--r", "0", "--m", "4"]),
                  ("wheel-delta-2-m5", ["delta-2", "--r", "0", "--m", "5"]),
                  ("wheel-bd3-m6", ["boundary-delta-3", "--r", "0", "--m", "6"]),
                  ("wheel-random-2-7-m5", ["random:2:7:161751", "--r", "0", "--m", "5"])]:
    run(["cover", "build", "--builtin", *argv, "--out", tag + ".json"])
    out[tag] = hashlib.sha256(open(tag + ".json", "rb").read()).hexdigest()
for x in ("rp2-6", "torus-7"):
    tag = f"product-{x}-s1"
    run(["product", "build", "--x", x, "--b", "s1", "--out", tag + ".json"])
    out[tag] = hashlib.sha256(open(tag + ".json", "rb").read()).hexdigest()
t = SubdivisionTower(builtin("s2"))
cert = dual_push_certificate(OpenCellSet(t, 0, [c for c in t.base.cells() if len(c) > 2]), 1, 0)
data = json.dumps(certificate_to_json(cert), sort_keys=True)
out["certificate-s2-r0"] = hashlib.sha256(data.encode()).hexdigest()
print(json.dumps(out))
"""


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_bundle_bytes_are_pinned(tmp_path, hashseed):
    src = str(Path(kocover.__file__).parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.pathsep.join([src, str(Path(__file__).parent),
                                           os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _PIN_SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == PINNED_SHA256


def test_complex_from_file(tmp_path, capsys):
    path = tmp_path / "cx.json"
    path.write_text(json.dumps({"name": "edge", "vertices": ["a", "b"],
                                "facets": [["a", "b"]]}))
    code, out, _ = invoke(capsys, "complex", "info", "--in", str(path), "--json")
    assert code == 0
    assert json.loads(out)["dim"] == 1


@pytest.mark.parametrize("action", ["info", "bary"])
def test_complex_with_integer_labels_is_usage_error(tmp_path, capsys, action):
    # integer labels once crashed `complex bary` with a TypeError traceback
    path = tmp_path / "cx.json"
    path.write_text(json.dumps({"vertices": [0, 1], "facets": [[0, 1]]}))
    code, out, err = invoke(capsys, "complex", action, "--in", str(path), "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "'vertices'" in err


# the package's public names; a lazy export must not drop or add one
EXPORTS = {
    "BoundProfile", "BoundResult", "BoundsError", "Certificate", "CertificateFormatError",
    "Complex", "ComplexError", "ConstructionError", "CoverBundle", "CoverError",
    "CoverReport", "FibrationProfile", "NotApplicable", "OpenCellSet", "PartitionPush",
    "ProductCoverBundle", "SimplicialMap", "StarSnap", "SubdivisionTower", "Target",
    "TowerDepthError", "TowerError", "TowerSizeError", "Verdict", "VertexStarSet",
    "assemble_product_cover", "best_upper", "betti_mod2", "bounds", "build_cover",
    "builtin", "certify", "cohomology", "complexes", "corollary_bound", "cover", "cover_parameters",
    "cover_signatures", "cuplength_mod2", "dual_complex", "fibration_bound", "is_k_cover",
    "lemma_bound", "main_bound", "preimage", "product",
    "product_complex", "product_skeleton", "pullback_cover", "random_complex",
    "rconn_bound", "star", "tower", "verify_certificate", "verify_cover_bundle",
    "verify_product_cover",
}


def test_package_exports_every_public_name():
    assert len(kocover.__all__) == len(EXPORTS) and set(kocover.__all__) == EXPORTS
    namespace = {}
    exec("from kocover import *", namespace)
    assert EXPORTS <= namespace.keys()
    assert namespace["cuplength_mod2"] is kocover.cohomology.cuplength_mod2
    with pytest.raises(AttributeError):
        kocover.no_such_name


COVER_STACK = {"numpy", "kocover.tower", "kocover.certify", "kocover.cover",
               "kocover.product"}


def imported_modules(cwd, *argv, code=0) -> set[str]:
    """The modules a fresh `python -m kocover.cli` process imports, as
    -X importtime reports them; the process must exit with code."""
    src = str(Path(kocover.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "kocover.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("argv", [
    ["bounds", "--dim", "3", "--cat-u", "1"],
    ["cuplength", "--builtin", "s1-x-s2"],
    ["complex", "info", "--builtin", "torus-7"],
])
def test_light_commands_leave_out_numpy_and_the_cover_stack(tmp_path, argv):
    loaded = imported_modules(tmp_path, *argv)
    assert "kocover.complexes" in loaded
    assert not loaded & COVER_STACK
    if argv[0] == "cuplength":
        # the cup length needs cohomology alone: no bound rules, no dataclasses
        assert "kocover.cohomology" in loaded
        assert not loaded & {"kocover.bounds", "dataclasses"}


def test_the_exit_2_exceptions_share_one_base_class():
    from kocover.certify import StepFailure
    from kocover.complexes import UsageError
    bad_input = (kocover.ComplexError, kocover.BoundsError, kocover.CoverError,
                 kocover.TowerError, kocover.CertificateFormatError)
    assert all(issubclass(cls, UsageError) for cls in bad_input)
    # a failed step or construction is not bad input (exit 1)
    assert not any(issubclass(cls, UsageError) for cls in (
        StepFailure, kocover.ConstructionError))


def test_failing_light_command_leaves_out_the_cover_stack(tmp_path):
    loaded = imported_modules(tmp_path, "bounds", "--dim", "-1", code=2)
    assert "kocover.bounds" in loaded
    assert not loaded & COVER_STACK


@pytest.mark.parametrize("argv", [
    ["cover", "build", "--builtin", "s1", "--m", "5", "--out", "arc.json"],
    ["cover", "verify", "--in", "layered.json"],
    ["cover", "kcheck", "--in", "layered.json", "--k", "2", "--skeleton", "1"],
    ["product", "build", "--x", "torus-7", "--b", "s1", "--out", "product.json"],
    ["cover", "verify", "--in", "staggered.json"],
    ["cover", "verify", "--in", "staggered-m4.json"],
    ["cover", "verify", "--in", "arc.json"],
    ["cover", "verify", "--in", "trivial.json"],
    ["product", "verify", "--in", "product.json"],
    ["cover", "verify", "--in", "dropped.json"],
])
def test_cover_commands_without_arrays_leave_out_numpy_and_bounds(tmp_path, argv):
    # the arc builder, the star walks (a DP over the face poset), the lazy
    # star certificates of every r and the product builders build no
    # CellIndex; the walks and snaps of the arc and
    # trivial bundles, the product's factors among them, run on levels of
    # at most ARRAY_MIN_CELLS cells, in plain Python
    bundles = {}
    for path, spec, r, m, construction in [
            ("layered.json", "boundary-delta-3", 0, 4, "layered-stars"),
            ("staggered.json", "random:2:8:11", 1, 2, "staggered-duals"),
            ("staggered-m4.json", "torus-7", 1, 4, "staggered-duals"),
            ("arc.json", "s1", 0, 5, "arc-phases"),
            ("trivial.json", "torus-7", 2, 3, "trivial")]:
        bundle = build_cover(builtin(spec), r, m)
        assert bundle.construction == construction
        bundles[path] = bundle.to_json()
    # the arc bundle with an element and its certificate dropped, still
    # claiming m=5
    bundles["dropped.json"] = dict(bundles["arc.json"], elements=bundles["arc.json"][
        "elements"][1:], certificates=bundles["arc.json"]["certificates"][1:])
    bundles["product.json"] = assemble_product_cover(builtin("torus-7"),
                                                     builtin("s1")).to_json()
    for path, data in bundles.items():
        (tmp_path / path).write_text(json.dumps(data))
    loaded = imported_modules(tmp_path, *argv, code=1 if "dropped.json" in argv else 0)
    assert COVER_STACK - {"numpy", "kocover.product"} <= loaded
    assert not loaded & {"numpy", "kocover.bounds"}


def test_a_bundle_claiming_a_huge_m_fails_its_count_fast(tmp_path):
    # the index sets number the elements there are, not range(m), so the
    # profile is checked only when the elements bear the claimed m out
    data = build_cover(builtin("torus-7"), 2, 3).to_json()
    data["params"]["m"] = 10 ** 9
    data["profile"] = [{"k": 1, "skeleton": 2, "min_multiplicity": 10 ** 9}]
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data))
    src = str(Path(kocover.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    limit = (2 << 30, 2 << 30)  # a failing verifier runs out of 2 GB, not the host's
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "kocover.cli", "cover", "verify", "--in",
                           str(path), "--json"], env=env, capture_output=True, text=True,
                          timeout=60,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit))
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stderr) == (1, "")
    checks = {c["name"]: (c["passed"], c["detail"])
              for c in json.loads(proc.stdout)["checks"]}
    assert checks["element-count"] == (False, "bundle claims m=1000000000 but has 3 elements")
    assert checks["profile-k1"] == (False, "not checked: the element count does not match m")
    assert checks["coverage"] == (True, "")


def test_cover_verify_loads_numpy(tmp_path):
    bundle = build_cover(builtin("delta-2"), 0, 5)
    assert bundle.construction == "wheel-cracks"
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle.to_json()))
    assert COVER_STACK - {"kocover.product"} <= imported_modules(
        tmp_path, "cover", "verify", "--in", str(path))
