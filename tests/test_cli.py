"""Command-line interface: round trips, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys

import pytest
from paths import ROOT, src_env

from gitcurves import cli, engine, graphs
from gitcurves.cli import main
from gitcurves.chow import CASES
from gitcurves.divisors import MORIWAKI_MAX_GENUS
from gitcurves.families import FAMILIES
from gitcurves.graphs import (
    NODE,
    SUBCURVE_BUDGET,
    Component,
    CurveGraph,
    Intersection,
    bridge_chain_graph,
)


@pytest.fixture
def bridge_file(tmp_path):
    path = tmp_path / "bridge.json"
    path.write_text(bridge_chain_graph([1]).to_json())
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_bridge(self, capsys, bridge_file):
        code, out, _ = run(capsys, "classify", "--in", bridge_file, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["flags"]["c_semistable"] is True
        assert doc["flags"]["h_semistable"] is False
        assert doc["witnesses"]["elliptic_bridges"] == [["E1"]]

    def test_over_subcurve_budget(self, capsys, tmp_path):
        # every set of the hub and some of its 18 rational leaves is a
        # connected genus-0 subcurve: 2^18 of them, over the budget
        others = [Component("X", 2)] + [Component(f"L{i}", 0) for i in range(18)]
        g = CurveGraph(
            (Component("H", 0), *others),
            tuple(Intersection(NODE, (("H", i), (c.id, 0))) for i, c in enumerate(others)),
        )
        path = tmp_path / "hub.json"
        path.write_text(g.to_json())
        code, out, err = run(capsys, "classify", "--in", str(path))
        assert code == 2
        assert out == ""
        assert err == (
            f"error: subcurve search on 20 components visits more than {SUBCURVE_BUDGET} subsets\n"
        )

    def test_parse_error_reported(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "classify", "--in", str(bad))
        assert code == 2
        assert "invalid JSON" in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"components": [{"id": ["x"], "genus": 3}]}, "component id must be a string"),
            ({"components": [{"id": "a", "genus": 2.5}]}, "genus must be an integer"),
            ({"components": [{"id": "a", "genus": True}]}, "genus must be an integer"),
            ({"components": [{"id": "a", "genus": 3, "cusps": "1"}]}, "cusps must be an integer"),
            ({"components": [{"id": "a", "genus": 3, "label": ["q"]}]}, "label must be a string"),
            (
                {
                    "components": [{"id": "a", "genus": 3}],
                    "intersections": [{"kind": ["node"], "ends": [["a", 0], ["a", 1]]}],
                },
                "kind must be a string",
            ),
            (
                {
                    "components": [{"id": "a", "genus": 3}],
                    "intersections": [{"kind": "node", "ends": [["a", [0]], ["a", 1]]}],
                },
                "slot must be an integer",
            ),
            (
                {"components": [{"id": "a", "genus": 3}], "marks": [["a", "p"]]},
                "marked points are not supported",
            ),
            ({"components": [{"id": "a", "genus": 3, "cusp": 1}]}, "unknown key 'cusp'"),
            (
                {
                    "components": [{"id": "a", "genus": 3}],
                    "intersection": [{"kind": "node", "ends": [["a", 0], ["a", 1]]}],
                },
                "unknown key 'intersection'",
            ),
            (
                {
                    "components": [{"id": "a", "genus": 3}],
                    "intersections": [
                        {"kind": "node", "ends": [["a", 0], ["a", 1]], "delta": 2}
                    ],
                },
                "unknown key 'delta'",
            ),
        ],
        ids=[
            "id", "genus-float", "genus-bool", "cusps", "label",
            "kind", "slot", "marks",
            "component-key", "document-key", "intersection-key",
        ],
    )
    def test_field_type_errors(self, capsys, tmp_path, doc, message):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "classify", "--in", str(path), "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify"],
        ["index"],
        ["closed-orbit", "--mode", "c"],
        ["replacements"],
        ["basin"],
    ],
    ids=["classify", "index", "closed-orbit", "replacements", "basin"],
)
def test_non_utf8_input_reported(capsys, tmp_path, argv):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"components": [{"id": "é", "genus": 3}]}'.encode("latin-1"))
    code, out, err = run(capsys, *argv, "--in", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: not UTF-8 text:")


def test_deeply_nested_input_reported(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "classify", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: JSON nested too deeply\n"


class TestFamilyAndIndex:
    def test_family_emits_config(self, capsys):
        code, out, _ = run(capsys, "family", "open-rosary", "--g", "5", "--r", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "split"
        assert doc["parametrization"]["num_coordinates"] == 7

    def test_family_round_trip_into_index(self, capsys, tmp_path):
        code, out, _ = run(capsys, "family", "closed-rosary", "--r", "4", "--json")
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(out)
        code, out, _ = run(capsys, "index", "--in", str(cfg_file), "--m", "2,3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert [r["mu"] for r in doc["reports"]] == ["0", "0"]
        assert doc["chow_sign"] == 0

    def test_index_broken_bead(self, capsys):
        code, out, _ = run(
            capsys, "index", "--family", "broken-bead", "--r", "5", "--m", "2,3", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert [r["mu"] for r in doc["reports"]] == ["-1", "-2"]

    def test_index_custom_weights(self, capsys):
        weights = ",".join(["1"] * 12)
        code, out, _ = run(
            capsys,
            "index", "--family", "closed-rosary", "--r", "4",
            "--m", "2", "--weights", weights, "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"][0]["mu"] == "0"  # trivial action

    def test_index_monomials_listing(self, capsys):
        code, out, _ = run(
            capsys, "index", "--family", "broken-bead", "--r", "3", "--m", "2", "--monomials"
        )
        assert code == 0
        assert "x0^2" in out

    def test_index_monomials_evaluate_each_slice_once(self, capsys, monkeypatch):
        # every `evaluate_slice` call searches its candidates once, whichever
        # binding it is called through
        calls = []
        candidates = engine._candidates

        def counted(par, m, order):
            calls.append(m)
            return candidates(par, m, order)

        monkeypatch.setattr(engine, "_candidates", counted)
        code, out, _ = run(
            capsys, "index", "--family", "closed-rosary", "--r", "4", "--m", "2,3,4,5",
            "--monomials",
        )
        assert code == 0
        assert calls == [2, 3, 4, 5]
        assert "degree 5 standard: " in out

    def test_index_above_degree_five(self, capsys):
        code, out, _ = run(
            capsys, "index", "--family", "closed-rosary", "--r", "4", "--m", "6", "--json"
        )
        assert code == 0
        (report,) = json.loads(out)["reports"]
        assert report["mu"] == "0"
        assert report["standard_count"] == report["expected_count"] == 92

    def test_index_over_slice_budget(self, capsys):
        code, out, err = run(capsys, "index", "--family", "closed-rosary", "--r", "3334", "--m", "2")
        assert code == 2
        assert out == ""
        assert err == "error: degree-2 slice has up to 50010 supported monomials; budget 50000\n"

    def test_index_weights_over_slice_budget(self, capsys, monkeypatch):
        # refused before the weights are counted against the genus, which
        # builds the graph's bitmask record
        built = []
        record = graphs._GraphData
        monkeypatch.setattr(graphs, "_GraphData", lambda g: built.append(g) or record(g))
        weights = ",".join(["0"] * 10_002)
        code, out, err = run(
            capsys, "index", "--family", "closed-rosary", "--r", "3334", "--weights", weights
        )
        assert (code, out, built) == (2, "", [])
        assert err == "error: degree-2 slice has up to 50010 supported monomials; budget 50000\n"
        code, _, err = run(capsys, "index", "--family", "closed-rosary", "--r", "4", "--weights", "0")
        assert (code, err) == (2, "error: --weights needs 12 entries, got 1\n")
        assert len(built) == 1

    def test_index_over_slice_budget_builds_no_family(self, capsys, monkeypatch):
        # the family's parameters bound its slices: refused before the build
        def build(*values):
            raise AssertionError("built")

        monkeypatch.setitem(FAMILIES, "closed-rosary", (build, *FAMILIES["closed-rosary"][1:]))
        code, out, err = run(capsys, "index", "--family", "closed-rosary", "--r", "100000")
        assert (code, out) == (2, "")
        assert err == "error: degree-2 slice has up to 1500000 supported monomials; budget 50000\n"

    def test_index_in_over_slice_budget_builds_no_family(self, capsys, monkeypatch, tmp_path):
        # a document's family and parameters bound its slices: refused before
        # the build and before the rest of the document is compared with it
        code, out, _ = run(capsys, "family", "closed-rosary", "--r", "3334", "--json")
        assert code == 0
        whole = tmp_path / "whole.json"
        whole.write_text(out)
        header = tmp_path / "header.json"
        header.write_text(json.dumps({"family": "closed-rosary", "params": {"r": 100000}}))

        def build(*values):
            raise AssertionError("built")

        monkeypatch.setitem(FAMILIES, "closed-rosary", (build, *FAMILIES["closed-rosary"][1:]))
        for path, size in ((whole, 50010), (header, 1500000)):
            code, out, err = run(capsys, "index", "--in", str(path))
            assert (code, out) == (2, "")
            assert err == f"error: degree-2 slice has up to {size} supported monomials; budget 50000\n"

    @pytest.mark.parametrize(
        "doc, argv, message",
        [
            (
                {"family": "broken-bead", "params": {"r": 3334}},
                [],
                "cannot load configuration: broken-bead rosaries require odd length >= 3",
            ),
            (
                {"family": "closed-rosary", "params": {"r": "3334"}},
                [],
                "cannot load configuration: param 'r' must be an integer, got '3334'",
            ),
            (
                {"family": "closed-rosary", "params": {"r": 3334, "g": 5}},
                [],
                "cannot load configuration: closed-rosary params must be exactly r",
            ),
            ({"family": "closed-rosary", "params": {"r": 3334}}, ["--m", "x"], "bad --m 'x'"),
            (
                {"family": "closed-rosary", "params": {"r": 3334}, "extra": 1},
                ["--m", "1,2"],
                "cannot load configuration: unexpected key 'extra' for closed-rosary",
            ),
        ],
        ids=["even-broken-bead", "string-param", "extra-param", "bad-degree", "degree-one"],
    )
    def test_index_in_over_slice_budget_keeps_header_errors(
        self, capsys, tmp_path, doc, argv, message
    ):
        # the header's own faults come first; with degree 1 first the whole
        # document is read, as the build precedes `hilbert_index`'s degree check
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "index", "--in", str(path), *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["broken-bead", "--r", "3334"], "broken-bead rosaries require odd length >= 3"),
            (["open-rosary", "--r", "3334"], "open-rosary needs --g and --r"),
            (
                ["open-rosary", "--g", "5", "--r", "3334"],
                "rosary parameter must satisfy 1 <= r <= g - 2",
            ),
            (["closed-rosary", "--r", "3334", "--m", "x"], "bad --m 'x'"),
            (
                ["closed-rosary", "--r", "3334", "--m", "1,2"],
                "Hilbert points are taken in degree >= 2",
            ),
            (
                ["closed-rosary", "--r", "3334", "--m", "1,2", "--weights", "1"],
                "degree-2 slice has up to 50010 supported monomials; budget 50000",
            ),
        ],
        ids=["even-broken-bead", "missing-g", "bad-r", "bad-degree", "degree-one", "weights"],
    )
    def test_index_over_slice_budget_keeps_earlier_errors(self, capsys, argv, message):
        # an input with a second fault reports the one the built family reports
        code, out, err = run(capsys, "index", "--family", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_index_monomials_over_listing_budget(self, capsys):
        code, out, err = run(
            capsys, "index", "--family", "closed-rosary", "--r", "10", "--m", "8", "--monomials"
        )
        assert code == 2
        assert out == ""
        assert err == "error: degree-8 listing has 38608020 monomials; budget 300000\n"

    def test_bad_degree_list(self, capsys):
        code, out, err = run(capsys, "index", "--family", "closed-rosary", "--r", "4", "--m", "x")
        assert code == 2
        assert out == ""
        assert err == "error: bad --m 'x'\n"

    @pytest.mark.parametrize(
        "text", ["", "2,", ",3"], ids=["empty", "trailing-comma", "leading-comma"]
    )
    def test_empty_degree_is_refused(self, capsys, text):
        # every --m the user gives is parsed, the empty one too
        code, out, err = run(capsys, "index", "--family", "closed-rosary", "--r", "4", "--m", text)
        assert (code, out, err) == (2, "", f"error: bad --m {text!r}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["index", "--family", "closed-rosary", "--r", "4", "--weights", ""],
             "bad --weights ''"),
            (["basin", "--family", "open-rosary", "--g", "6", "--r", "3", "--exponents", ""],
             "bad --exponents ''"),
        ],
        ids=["weights", "exponents"],
    )
    def test_empty_vector_is_refused(self, capsys, argv, message):
        # an empty vector is parsed and refused, not read as the default
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["params"].update(g="5"),
            lambda doc: doc.update(num_coordinates=99),
            lambda doc: doc["graph"]["components"].pop(),
            lambda doc: doc["parametrization"]["components"][0]["terms"][0].__setitem__(3, "2"),
        ],
        ids=["string-param", "num-coordinates", "graph", "parametrization"],
    )
    def test_index_rejects_inconsistent_config(self, capsys, tmp_path, edit):
        code, out, _ = run(capsys, "family", "open-rosary", "--g", "5", "--r", "2", "--json")
        doc = json.loads(out)
        edit(doc)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(doc))
        code, out, err = run(capsys, "index", "--in", str(cfg_file))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot load configuration:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["family", "open-rosary", "--g", "5"], "open-rosary needs --g and --r"),
            (["index", "--family", "open-rosary", "--r", "2"], "open-rosary needs --g and --r"),
            (["family", "closed-rosary"], "closed-rosary needs --r"),
            (["basin", "--family", "broken-bead", "--g", "6"], "broken-bead needs --r"),
        ],
        ids=["family-open", "index-open", "family-closed", "basin-broken"],
    )
    def test_missing_family_params(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_parser_offers_every_registered_family(self):
        assert cli.FAMILY_NAMES == tuple(FAMILIES)

    def test_parser_offers_every_certificate_case(self):
        assert cli.CASE_NAMES == CASES

    def test_invalid_family_params(self, capsys):
        code, _, err = run(capsys, "family", "broken-bead", "--r", "4")
        assert code == 2
        assert "odd" in err


class TestIndexGoldens:
    """`index` output pinned byte for byte: a faster slice kernel must return
    the same exact indices and the same monomial listing."""

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ["--family", "closed-rosary", "--r", "6", "--m", "2,3,4,5", "--json"],
                "cf6e6bbe6d9cad80ac9ad38ccb14402692a014fdf3b7d53f0faf07222625a920",
            ),
            (
                ["--family", "broken-bead", "--r", "5", "--m", "2,3,4,5", "--json"],
                "fb5c2007367439a9b5ba094c91b62ac11885d2c32a7fc34d632196898ccd6fa2",
            ),
            (
                ["--family", "open-rosary", "--g", "9", "--r", "5", "--m", "2,3,4,5", "--json"],
                "ced0ea1e551decdd6532e9b10dca3dcf60e760903ddebded41efc979908f1ba7",
            ),
            (
                ["--family", "closed-rosary", "--r", "4", "--m", "3", "--monomials"],
                "74aff953b01c69091f17637657e8dfbc6e700a53fe5450fd865c566b0665c4c2",
            ),
        ],
        ids=["closed-6", "broken-5", "open-9-5", "closed-4-monomials"],
    )
    def test_index_output_digest(self, capsys, argv, digest):
        code, out, err = run(capsys, "index", *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestOtherCommands:
    def test_chow_certify(self, capsys):
        code, out, _ = run(capsys, "chow-certify", "--case", "higher-tacnode", "--json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["lower_bound"], doc["threshold"]) == ("18", "16")

    def test_chow_certify_tacnodal_tail_at_huge_genus(self, capsys):
        # the bound 16g - 4 and threshold 8(6g - 5)/3 come from five weights
        # and the closed-form weight sum, not a vector of 3g - 3 entries
        g = 100_000_000
        code, out, err = run(
            capsys, "chow-certify", "--case", "genus-one-tacnode-tail", "--g", str(g), "--json"
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["lower_bound"], doc["threshold"]) == ("1599999996", "4799999960/3")
        assert doc["lower_bound"] == str(16 * g - 4)
        assert doc["threshold"] == f"{8 * (6 * g - 5)}/3"
        assert doc["verdict"] == "Unstable"

    def test_basin(self, capsys):
        code, out, _ = run(
            capsys, "basin", "--family", "open-rosary", "--g", "6", "--r", "3",
            "--exponents", "-1", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        statuses = [c["status"] for c in doc["classifications"]]
        assert statuses.count("smoothable") + statuses.count("frozen") == len(statuses)

    def test_closed_orbit(self, capsys, bridge_file):
        code, out, _ = run(capsys, "closed-orbit", "--mode", "c", "--in", bridge_file, "--json")
        assert code == 0
        doc = json.loads(out)
        kinds = sorted(x["kind"] for x in doc["representative"]["intersections"])
        assert kinds == ["node", "node", "tacnode"]

    @pytest.mark.parametrize(
        "mode, name",
        [("c", name) for name in (
            "bridge-length-1", "bridge-length-2", "broken-rosary-5", "closed-rosary-6",
            "closed-weak-chain-2", "open-rosary-config-6-3", "weak-chains-rational-bridge",
            "weak-chains-shared-node",
        )] + [("h", name) for name in (
            "closed-rosary-6", "closed-weak-chain-2", "weak-chains-rational-bridge",
            "weak-chains-shared-node",
        )],
    )
    def test_closed_orbit_accepts_its_own_output(self, capsys, tmp_path, mode, name):
        fixture = str(ROOT / "fixtures" / f"{name}.json")
        code, out, err = run(capsys, "closed-orbit", "--mode", mode, "--in", fixture, "--json")
        assert (code, err) == (0, "")
        rep = json.loads(out)["representative"]
        path = tmp_path / "representative.json"
        path.write_text(json.dumps(rep))
        code, _, err = run(capsys, "classify", "--in", str(path))
        assert (code, err) == (0, "")
        # the representative of a representative is itself
        code, out, err = run(capsys, "closed-orbit", "--mode", mode, "--in", str(path), "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["representative"] == rep

    def test_closed_orbit_output_over_24_components(self, capsys, tmp_path):
        path = tmp_path / "bridge12.json"
        path.write_text(bridge_chain_graph([1] * 12).to_json())
        code, out, err = run(capsys, "closed-orbit", "--mode", "c", "--in", str(path), "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["closed_orbit"] is True
        assert len(doc["representative"]["components"]) == 26

    def test_closed_orbit_refuses_to_drop_a_mark(self, capsys, tmp_path):
        # C1 =t= P - C2 with a mark on P: pseudostable reduction would
        # contract P, and the document is refused rather than the mark dropped
        doc = {
            "components": [
                {"id": "C1", "genus": 2}, {"id": "P", "genus": 0}, {"id": "C2", "genus": 2},
            ],
            "intersections": [
                {"kind": "tacnode", "ends": [["C1", 0], ["P", 0]]},
                {"kind": "node", "ends": [["P", 1], ["C2", 0]]},
            ],
            "marks": [["P", "p"]],
        }
        path = tmp_path / "marked.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "closed-orbit", "--mode", "c", "--in", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: marked points are not supported\n"

    def test_closed_orbit_genus_two_without_bridge(self, capsys, tmp_path):
        # a rational curve with a self-tacnode is strictly c-semistable; its
        # pseudostable model is one elliptic component with a self-node
        doc = {
            "components": [{"id": "c0", "genus": 0}],
            "intersections": [{"kind": "tacnode", "ends": [["c0", 0], ["c0", 1]]}],
        }
        path = tmp_path / "self-tacnode.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "closed-orbit", "--mode", "c", "--in", str(path))
        assert code == 2
        assert out == ""
        assert err == (
            "error: genus-2 curve: its pseudostable model has no elliptic bridge to replace\n"
        )

    def test_replacements(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(bridge_chain_graph([1, 1]).to_json())
        code, out, _ = run(capsys, "replacements", "--in", str(path), "--json")
        assert code == 0
        assert json.loads(out)["count"] == 4

    def test_replacements_over_budget(self, capsys, tmp_path):
        # 13 bridge links would give 2^13 = 8192 configurations
        path = tmp_path / "thirteen.json"
        path.write_text(bridge_chain_graph([1] * 13).to_json())
        code, out, err = run(capsys, "replacements", "--in", str(path), "--json")
        assert code == 2
        assert out == ""
        assert err == "error: 13 bridge links give 8192 replacements; budget 4096\n"

    def test_divisor(self, capsys):
        code, out, _ = run(capsys, "divisor", "epsilon", "--m", "10")
        assert code == 0
        assert out.strip() == "39/1970"
        code, out, _ = run(capsys, "divisor", "lambda-n", "--n", "2", "--g", "10", "--json")
        assert json.loads(out) == {"lambda": "13", "delta": "-1"}
        code, out, _ = run(capsys, "divisor", "moriwaki", "--g", "12", "--json")
        assert json.loads(out)["all_positive"] is True

    def test_divisor_moriwaki_at_genus_4000(self, capsys):
        # the decomposition's check must cost O(g): at O(g^2) this genus
        # takes tens of seconds
        code, out, err = run(capsys, "divisor", "moriwaki", "--g", "4000", "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        cs = doc["coefficients"]
        assert len(cs) == 2 + 4000 // 2
        assert cs[:3] == ["1/4000", "1999/1000", "1999/1000"]
        assert cs[3] == "1749/250" and cs[-1] == "3999"
        assert doc["all_positive"] is True

    def test_divisor_moriwaki_over_genus_bound(self, capsys):
        g = MORIWAKI_MAX_GENUS + 1
        code, out, err = run(capsys, "divisor", "moriwaki", "--g", str(g))
        assert (code, out) == (2, "")
        assert err == f"error: the decomposition needs genus <= {MORIWAKI_MAX_GENUS}, got {g}\n"

    def test_reader_closing_stdout_early(self):
        # the output is larger than a pipe buffer, so the command is still
        # writing when the reader closes its end
        with subprocess.Popen(
            [sys.executable, "-m", "gitcurves.cli", "divisor", "moriwaki", "--g", "30000"],
            cwd=ROOT,
            env=src_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=60), err) == (1, b"")

    @pytest.mark.parametrize(
        "argv",
        [["epsilon", "--m", "x"], ["viehweg", "--n", "2", "--m", "x", "--g", "3"]],
        ids=["epsilon", "viehweg"],
    )
    def test_divisor_bad_degree(self, capsys, argv):
        code, out, err = run(capsys, "divisor", *argv)
        assert code == 2
        assert out == ""
        assert err == "error: bad --m 'x'\n"

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_divisor_lambda_n_below_one(self, capsys, n):
        code, out, err = run(capsys, "divisor", "lambda-n", "--n", n, "--g", "10")
        assert (code, out, err) == (2, "", "error: need n >= 1\n")


class TestPaperCheck:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "paper-check")
        assert code == 0
        assert "41/41" in out

    def test_subset(self, capsys):
        code, out, _ = run(capsys, "paper-check", "--only", "divisor/", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert all(item["id"].startswith("divisor/") for item in doc["items"])

    def test_manifest_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "paper-check", "--json")
        _, out2, _ = run(capsys, "paper-check", "--json")
        assert out1 == out2


class TestPaperCheckGuards:
    def test_unknown_prefix_rejected(self, capsys):
        code, _, err = run(capsys, "paper-check", "--only", "nonexistent/")
        assert code == 2
        assert "no checks match" in err
