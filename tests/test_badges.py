"""Boundary tests for the five directional badges and the 2-of-3-seed rule.

`directional.run_suite` runs with its leaves stubbed: no dataset is built,
no cell is trained, and every accuracy and CKA value comes from a synthetic
table. Each case puts one badge quantity just inside or just outside its
threshold (0.01 away, so no float ties) at chosen seeds:

- every seed just inside: PASS;
- one seed just outside: PASS (two of three still hold);
- two seeds just outside: FAIL.
"""

import copy

import pytest

from robustcl import directional, evaluation, experiment

EPS4 = directional.EPS4
MARGIN = 0.01

# tm1: TM-I accuracy per (scenario, scheme, train_eps); tm2: TM-II accuracy of
# AT/CL; cka: final clean-vs-adversarial CKA; cross: upper-third cross-scheme
# CKA of (scenario/CL, scenario/SL). Every badge passes with room to spare.
BASE = {
    "tm1": {
        ("ST", "SL", None): 0.60, ("ST", "CL", None): 0.30, ("ST", "SCL", None): 0.60,
        ("ST", "SL+CL", None): 0.45, ("ST", "CL+SCL", None): 0.45,
        ("AT", "CL", None): 0.40, ("AT", "SCL", None): 0.70, ("AT", "SL", None): 0.70,
        ("AT", "CL", EPS4): 0.30,
        ("Full-AT", "CL", None): 0.70, ("Full-AT", "SCL", None): 0.70,
    },
    "tm2": 0.70,
    "cka": {("ST", "CL", None): 0.40, ("AT", "CL", EPS4): 0.60,
            ("AT", "CL", None): 0.80, ("ST", "SL", None): 0.80},
    "cross": {"AT": 0.80, "ST": 0.50},
}


def _set_floor(name):
    def edit(v, d):
        v["tm1"][("ST", name, None)] = v["tm1"][("ST", "CL", None)] + 0.05 + d
    return edit


def _set_combo(name):
    def edit(v, d):
        v["tm1"][("ST", name, None)] = v["tm1"][("ST", "CL", None)] + 0.03 + d
    return edit


def _set_dscl(sign):
    def edit(v, d):
        v["tm1"][("Full-AT", "SCL", None)] = (v["tm1"][("AT", "SCL", None)]
                                              + sign * (0.05 - d))
    return edit


def _full_at_cl_gap(v, d):
    v["tm1"][("Full-AT", "CL", None)] = v["tm1"][("AT", "CL", None)] + 0.05 + d


def _cka_budget(v, d):
    v["cka"][("AT", "CL", None)] = v["cka"][("ST", "CL", None)] + 0.2 + d


def _cka_eps4_vs_0(v, d):
    v["cka"][("AT", "CL", EPS4)] = v["cka"][("ST", "CL", None)] - 0.02 + d


def _cka_eps8_vs_4(v, d):
    v["cka"][("AT", "CL", EPS4)] = 0.90
    v["cka"][("AT", "CL", None)] = 0.90 - 0.02 + d


def _cross_gap(v, d):
    v["cross"]["AT"] = v["cross"]["ST"] + 0.1 + d


def _tm2_gap(v, d):
    v["tm2"] = v["tm1"][("AT", "CL", None)] + 0.10 + d


BADGES = {
    "c6": "scheme ordering under standard training",
    "c7": "Full-AT vs AT gap by scheme",
    "c8": "clean-adv CKA grows with training budget",
    "c9": "cross-scheme representation convergence under AT",
    "c10": "encoder-targeted attacks do not transfer",
}

# (badge, what is put at its threshold, edit(values, d)): d > 0 is inside
EDGES = [
    ("c6", "CL below the SCL floor", _set_floor("SCL")),
    ("c6", "CL below the SL floor", _set_floor("SL")),
    ("c6", "SL+CL above CL", _set_combo("SL+CL")),
    ("c6", "CL+SCL above CL", _set_combo("CL+SCL")),
    ("c7", "Full-AT(CL) above AT(CL)", _full_at_cl_gap),
    ("c7", "Full-AT(SCL) above AT(SCL)", _set_dscl(+1)),
    ("c7", "Full-AT(SCL) below AT(SCL)", _set_dscl(-1)),
    ("c8", "eps 8/255 above eps 0", _cka_budget),
    ("c8", "eps 4/255 not below eps 0", _cka_eps4_vs_0),
    ("c8", "eps 8/255 not below eps 4/255", _cka_eps8_vs_4),
    ("c9", "AT cross CKA above ST", _cross_gap),
    ("c10", "TM-II above TM-I", _tm2_gap),
]

# (seeds put just outside the threshold, whether the badge passes)
OUTSIDE = [((), True), ((1,), True), ((0, 2), False)]


def _stub_leaves(monkeypatch, values_by_seed):
    """Stub the suite's dataset, training, evaluation and CKA leaves to read
    `values_by_seed[seed]`; a cell's key names its cell and seed."""
    cells = {}  # key -> (seed, (scenario, scheme, train_eps))

    def cell_key(cfg, scenario, scheme, seed, dataset, train_epsilon=None):
        key = f"{scenario}|{scheme}|{train_epsilon}|{seed}"
        cells[key] = (seed, (scenario, scheme, train_epsilon))
        return key

    def train_cell(cfg, d_p, d_f, scenario, scheme, seed, cache_dir=None,
                   train_epsilon=None):
        key = cell_key(cfg, scenario, scheme, seed, d_p, train_epsilon)
        return f"model {key}", {"cell_key": key, "runtime_s": 1.0}

    def lookup(key):
        seed, cell = cells[key]
        return values_by_seed[seed], cell

    def evaluate_cell(model, test, specs, scenario, scheme, key=None, cache_dir=None):
        assert model == f"model {key}"
        values, cell = lookup(key)
        robust = {s.robust_key: values["tm1"][cell] if s.threat_model == "I" else values["tm2"]
                  for s in specs}
        return evaluation.EvalReport(key, scenario, scheme, 0.9, robust, 500)

    def final_cka(model, test, key, cache_dir):
        values, cell = lookup(key)
        return values["cka"][cell]

    def cross_upper(model_a, model_b, test, key_a, key_b, cache_dir):
        values, (scenario, scheme, _) = lookup(key_a)
        assert scheme == "CL" and lookup(key_b)[1] == (scenario, "SL", None)
        return values["cross"][scenario]

    monkeypatch.setattr(experiment, "build_dataset", lambda cfg: "dataset")
    monkeypatch.setattr(experiment, "build_splits",
                        lambda cfg, dataset: ("d_p", "d_f", "test"))
    monkeypatch.setattr(experiment, "cell_key", cell_key)
    monkeypatch.setattr(experiment, "train_cell", train_cell)
    monkeypatch.setattr(experiment, "evaluate_cell", evaluate_cell)
    monkeypatch.setattr(directional, "_final_cka", final_cka)
    monkeypatch.setattr(directional, "_cross_upper", cross_upper)


def _badges(monkeypatch, tmp_path, values_by_seed):
    _stub_leaves(monkeypatch, values_by_seed)
    suite = directional.run_suite(seeds=directional.SEEDS, cache_dir=str(tmp_path))
    return {name: (ok, detail) for name, ok, detail in directional.badges(suite)}


def test_the_base_table_passes_every_badge(monkeypatch, tmp_path):
    got = _badges(monkeypatch, tmp_path, {s: BASE for s in directional.SEEDS})
    assert sorted(got) == sorted(BADGES.values())
    assert all(ok for ok, _ in got.values()), got


@pytest.mark.parametrize("outside, passes", OUTSIDE,
                         ids=["all-inside", "one-outside", "two-outside"])
@pytest.mark.parametrize("badge, what, edit", EDGES,
                         ids=[f"{b}-{w}" for b, w, _ in EDGES])
def test_badge_at_its_threshold(monkeypatch, tmp_path, badge, what, edit,
                                outside, passes):
    values_by_seed = {}
    for seed in directional.SEEDS:
        values = copy.deepcopy(BASE)
        edit(values, -MARGIN if seed in outside else MARGIN)
        values_by_seed[seed] = values
    ok, detail = _badges(monkeypatch, tmp_path, values_by_seed)[BADGES[badge]]
    assert ok == passes, f"{what}, seeds {outside} outside: {detail}"


def test_a_suite_with_no_seeds_fails_every_claim():
    got = directional.badges({"seeds": {}})
    assert sorted(name for name, _, _ in got) == sorted(BADGES.values())
    assert [(ok, detail) for _, ok, detail in got] == [(False, "no seed")] * len(got)
