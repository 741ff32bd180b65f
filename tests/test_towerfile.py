import json

import pytest

from arl.errors import TowerFileError, UndeclaredSymbol
from arl.groups import PRIME_LIMIT, is_prime
from arl.towerfile import load_tower_data, load_tower_file
from arl.towers import TailRule, is_l_adic


def base_doc():
    return {
        "format": 1,
        "l": 2,
        "symbols": ["h", "d1"],
        "modules": {"M": "Zl^1"},
        "groups": {
            "A0": {"factors": [2]},
            "A1": {"factors": [4]},
        },
        "homs": {
            "u1": {"source": "A1", "target": "A0", "matrix": [[1]]},
        },
        "towers": {
            "T": {
                "levels": ["A0", "A1"],
                "maps": ["u1"],
                "tail": {"kind": "eventually-l-adic", "start": 0, "module": "M"},
            }
        },
    }


class TestLoad:
    def test_valid_document(self):
        tf = load_tower_data(base_doc())
        t = tf.tower("T")
        assert t.level(0).invariant_factors == (2,)
        assert is_l_adic(t)
        assert tf.symbols == ("h", "d1")

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "t.arl.json"
        path.write_text(json.dumps(base_doc()))
        tf = load_tower_file(str(path))
        assert "T" in tf.towers

    def test_truncated_default_tail(self):
        doc = base_doc()
        del doc["towers"]["T"]["tail"]
        tf = load_tower_data(doc)
        assert not tf.tower("T").can_extend()

    def test_zero_tail(self):
        doc = base_doc()
        doc["groups"]["Z"] = {"factors": []}
        doc["homs"]["z"] = {"source": "Z", "target": "Z", "matrix": []}
        doc["towers"]["N"] = {
            "levels": ["Z", "Z"], "maps": ["z"],
            "tail": {"kind": "zero", "start": 0},
        }
        tf = load_tower_data(doc)
        assert tf.tower("N").level(5).is_trivial()

    def test_eventually_l_adic_tail_over_the_trivial_module_is_the_zero_tail(self):
        # like a zero tail, it may start one level above the prefix
        doc = base_doc()
        doc["modules"]["O"] = "0"
        doc["groups"]["Z"] = {"factors": []}
        doc["homs"]["z"] = {"source": "Z", "target": "Z", "matrix": []}
        doc["towers"]["N"] = {
            "levels": ["Z", "Z"], "maps": ["z"],
            "tail": {"kind": "eventually-l-adic", "start": 2, "module": "O"},
        }
        tf = load_tower_data(doc)
        assert tf.tower("N").tail == TailRule(2)
        doc["towers"]["N"]["tail"]["start"] = 3
        with pytest.raises(TowerFileError, match="start 3 out of range"):
            load_tower_data(doc)

    def test_operators(self):
        doc = base_doc()
        doc["groups"]["A0"]["operators"] = {"frob": [[1]]}
        doc["groups"]["A1"]["operators"] = {"frob": [[3]]}
        # the plain module no longer matches operator-carrying levels
        doc["towers"]["T"]["tail"] = {"kind": "truncated"}
        tf = load_tower_data(doc)
        assert tf.groups["A1"].operator("frob").entries == ((3,),)

    def test_tail_requires_matching_operators(self):
        doc = base_doc()
        doc["groups"]["A0"]["operators"] = {"frob": [[1]]}
        doc["groups"]["A1"]["operators"] = {"frob": [[3]]}
        with pytest.raises(TowerFileError, match="does not match"):
            load_tower_data(doc)


def doc_for_prime(l):
    """base_doc with its groups rescaled to l-groups: Z/l and Z/l^2."""
    doc = base_doc()
    doc["l"] = l
    doc["groups"]["A0"]["factors"] = [l]
    doc["groups"]["A1"]["factors"] = [l * l]
    return doc


def test_large_prime_l_accepted():
    tf = load_tower_data(doc_for_prime(2**61 - 1))
    assert tf.l == 2**61 - 1
    assert is_l_adic(tf.tower("T"))


def test_is_prime_matches_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % p for p in range(2, int(n ** 0.5) + 1))
    assert all(is_prime(n) == by_trial_division(n) for n in range(5000))
    # strong pseudoprimes to the first 1, 2, ..., 11 prime bases
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)


class TestDiagnostics:
    def test_malformed_matrix_row_col(self):
        doc = base_doc()
        doc["homs"]["u1"]["matrix"] = [["x"]]
        with pytest.raises(TowerFileError, match=r"row 0 col 0"):
            load_tower_data(doc)

    def test_matrix_shape_checked(self):
        doc = base_doc()
        doc["homs"]["u1"]["matrix"] = [[1, 2]]
        with pytest.raises(TowerFileError, match="entries"):
            load_tower_data(doc)

    def test_ill_defined_hom(self):
        doc = base_doc()
        # 4 does not divide 2*1 for the reversed direction
        doc["homs"]["bad"] = {"source": "A0", "target": "A1", "matrix": [[1]]}
        with pytest.raises(TowerFileError, match="bad"):
            load_tower_data(doc)

    def test_unknown_references(self):
        doc = base_doc()
        doc["towers"]["T"]["levels"] = ["A0", "missing"]
        with pytest.raises(TowerFileError, match="missing"):
            load_tower_data(doc)

    def test_non_l_local_group(self):
        doc = base_doc()
        doc["groups"]["B"] = {"factors": [6]}
        with pytest.raises(TowerFileError, match="'B'"):
            load_tower_data(doc)

    def test_missing_prime(self):
        doc = base_doc()
        del doc["l"]
        with pytest.raises(TowerFileError, match="'l'"):
            load_tower_data(doc)

    @pytest.mark.parametrize("l", [4, 6, 9, 2**61 + 1, 318665857834031151167461],
                             ids=["4", "6", "9", "2^61+1", "psi12"])
    def test_non_prime_l_rejected(self, l):
        # 318665857834031151167461 passes Miller-Rabin on the first 12 primes
        doc = doc_for_prime(l)
        with pytest.raises(TowerFileError, match=rf"'l' = {l} is not a prime"):
            load_tower_data(doc)

    def test_prime_beyond_the_exact_test_rejected_by_name(self):
        with pytest.raises(TowerFileError, match="'l' = .* too large"):
            load_tower_data(doc_for_prime(2**89 - 1))
        with pytest.raises(TowerFileError, match="too large"):
            load_tower_data(doc_for_prime(PRIME_LIMIT))

    def test_bad_format_version(self):
        doc = base_doc()
        doc["format"] = 2
        with pytest.raises(TowerFileError, match="format"):
            load_tower_data(doc)

    def test_tail_module_must_exist(self):
        doc = base_doc()
        doc["towers"]["T"]["tail"]["module"] = "nope"
        with pytest.raises(TowerFileError, match="nope"):
            load_tower_data(doc)

    def test_inconsistent_tail_rejected(self):
        doc = base_doc()
        doc["modules"]["M"] = "Z/l"
        with pytest.raises(TowerFileError, match="'T'"):
            load_tower_data(doc)

    @pytest.mark.parametrize("mutate, field", [
        pytest.param(lambda d: d["groups"]["A1"].update(factors=[4.5]),
                     r"group 'A1': factor 0", id="float-factor"),
        pytest.param(lambda d: d["groups"]["A1"].update(factors=["4"]),
                     r"group 'A1': factor 0", id="string-factor"),
        pytest.param(lambda d: d["groups"]["A1"].update(factors=[None]),
                     r"group 'A1': factor 0", id="null-factor"),
        pytest.param(lambda d: d["groups"]["A1"].update(factors=[True]),
                     r"group 'A1': factor 0", id="bool-factor"),
        pytest.param(lambda d: d["towers"]["T"].update(tail={"kind": "zero", "start": None}),
                     r"tower 'T': tail 'start'", id="null-start"),
        pytest.param(lambda d: d["towers"]["T"]["tail"].update(start=2.9),
                     r"tower 'T': tail 'start'", id="float-start"),
        pytest.param(lambda d: d["towers"]["T"]["tail"].update(start="0"),
                     r"tower 'T': tail 'start'", id="string-start"),
        pytest.param(lambda d: d["towers"]["T"].update(tail="zero"),
                     r"tower 'T': 'tail' must be an object", id="string-tail"),
        pytest.param(lambda d: d.update(groups=[1]),
                     r"'groups' must be an object", id="list-groups"),
        pytest.param(lambda d: d.update(homs=["u1"]),
                     r"'homs' must be an object", id="list-homs"),
        pytest.param(lambda d: d["groups"]["A0"].update(operators=[[1]]),
                     r"'operators' must be an object", id="list-operators"),
        pytest.param(lambda d: d["towers"]["T"].update(maps="u1"),
                     r"tower 'T': needs a 'maps' list", id="string-maps"),
        pytest.param(lambda d: d["towers"]["T"].update(levels=[["A0"], "A1"]),
                     r"tower 'T': unknown group", id="list-level-name"),
        pytest.param(lambda d: d["homs"]["u1"].update(source=["A1"]),
                     r"hom 'u1': unknown source group", id="list-hom-source"),
        pytest.param(lambda d: d["towers"]["T"]["tail"].update(module=["M"]),
                     r"tower 'T': unknown module", id="list-module-name"),
        pytest.param(lambda d: d.update(format=1.0), r"format", id="float-format"),
    ])
    def test_wrong_json_types_name_the_field(self, mutate, field):
        doc = base_doc()
        mutate(doc)
        with pytest.raises(TowerFileError, match=field):
            load_tower_data(doc)

    def test_unknown_tower_name(self):
        tf = load_tower_data(base_doc())
        with pytest.raises(TowerFileError, match="available"):
            tf.tower("nope")

    @pytest.mark.parametrize("entry", [1, None, {"a": 2}, "1h", "h-1", "h d", "", " h", "_h"])
    def test_symbols_must_be_identifiers(self, entry):
        doc = base_doc()
        doc["symbols"] = ["h", entry]
        with pytest.raises(TowerFileError, match="symbol") as exc:
            load_tower_data(doc)
        assert repr(entry) in str(exc.value)


class TestIndex:
    def test_declared_symbols(self):
        tf = load_tower_data(base_doc())
        assert tf.index("h+d1-1").symbols() == ("d1", "h")

    def test_default_symbols(self):
        doc = base_doc()
        del doc["symbols"]
        tf = load_tower_data(doc)
        assert tf.symbols == ("h", "d1", "d2")
        assert tf.index("d2").symbols() == ("d2",)

    def test_undeclared_symbol_names_it_and_the_declared_set(self):
        tf = load_tower_data(base_doc())
        with pytest.raises(UndeclaredSymbol, match=r"'d2'.*\['h', 'd1'\]"):
            tf.index("h+d2")

    def test_bad_syntax(self):
        with pytest.raises(TowerFileError, match="index term"):
            load_tower_data(base_doc()).index("h*2")
