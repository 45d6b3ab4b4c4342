"""Pinned behaviour of the rotation engine on small seeded inputs.

The expected values were recorded from the implementation that kept a
separate breadth-first closure in `rotation`, `pivots` and `closing` and two
layered endpoint-family loops; the heuristic-search values were recorded from
the loop that rebuilt a frozen `Path` for every rotation, extension and
reversal; the segment-record and sigma0 values were recorded from the
record stage that rebuilt every record from the whole pair path and counted
every tau-sequence of every record, and the coded-layout digest by coding
the records of the stage that still built one record per pair; the one-segment model values were
recorded from the model builder that still linked the runs of multi-segment
halves by contracted connectors; the `capped`, `keep_all` and `guarded` family
values were recorded from the family builder that still took a layer cap, a
layer limit and a set of excluded endpoints.  Any refactor of the engine must
reproduce them exactly.  Large structures (chains, witness paths, records)
are pinned by a digest of their canonical JSON.
"""

import hashlib
import json
import math

from hamlab import (
    Graph,
    Path,
    SpannedGraph,
    classify_pivots,
    edge_key,
    endpoint_closure_oracle,
    endpoint_family,
    extend,
    find_hamilton_cycle,
    gnp,
    hamilton_path_between,
    hamiltonian_oracle,
    petersen,
    process_bad_vertices,
    random_regular,
    reconstruct_path,
)
from hamlab import applications, closing
from hamlab.closing import build_contracted, decompose, model_endpoint_paths
from hamlab.pivots import PivotAudit


def _digest(obj):
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _chains_json(fam):
    """Each endpoint's chain as a list of {pivot, broken} steps, keyed by the
    endpoint as a string."""
    return {
        str(v): [
            {"pivot": s.pivot, "broken": list(s.broken_edge)}
            for s in (step.chain() if step is not None else ())
        ]
        for v, step in sorted(fam.chains.items())
    }


def _family_view(fam, stats):
    return {
        "layers": [list(layer) for layer in fam.layers],
        "stopped": fam.stopped,
        "chains": _digest(_chains_json(fam)),
        "paths": _digest(
            {str(v): list(reconstruct_path(fam, v).vertices) for v in sorted(fam.chains)}
        ),
        "broken": _digest(sorted(fam.broken_edges)),
        "rotations": stats["rotations"],
    }


# ---------------------------------------------------------------------------
# endpoint_family


def _family_graph():
    g = gnp(40, 0.2, seed="pins:family")
    return g, extend(g, Path((0,)))


def _family_cases(g, p):
    mid = len(p) // 2
    return {
        "default": {},
        "capped": {"d": 6.0, "surplus": 1.0, "total_target": g.n},
        "keep_all": {"d": 4.0, "surplus": None, "total_target": g.n},
        "guarded": {"protected_edge": edge_key(p[mid], p[mid + 1]), "total_target": g.n},
    }


def observe_endpoint_family():
    g, p = _family_graph()
    out = {}
    for name, kwargs in _family_cases(g, p).items():
        stats = {"rotations": 0}
        fam = endpoint_family(g, p, stats=stats, **kwargs)
        view = _family_view(fam, stats)
        view["stats_broken"] = _digest(sorted(stats.get("broken_edges", ())))
        out[name] = view
    return out


EXPECTED_ENDPOINT_FAMILY = {'capped': {'broken': '0eb6cb70c1e75a90',
            'chains': 'f618cc241bfa1063',
            'layers': [[33], [5, 10], [9, 27, 28, 29], [3, 4, 6, 7, 12, 15, 18, 23],
                       [0, 17, 20, 26, 30, 34]],
            'paths': 'ab7b1b935b1fcf24',
            'rotations': 30,
            'stats_broken': '87473d037f6f5886',
            'stopped': 'empty_layer'},
 'default': {'broken': '637b2ad2543262b5',
             'chains': '403c20d71965b5fc',
             'layers': [[33], [5, 10, 13, 16, 17, 18],
                        [0, 1, 3, 4, 6, 7, 9, 15, 19, 20, 22, 23, 26, 27, 28, 29, 30,
                         34]],
             'paths': '8a70c43df23de78e',
             'rotations': 26,
             'stats_broken': 'e2d055ae8fb01608',
             'stopped': 'target_met'},
 'guarded': {'broken': '4004954487df9116',
             'chains': 'dfaee591346616e4',
             'layers': [[33], [5, 10, 13, 16, 17, 18],
                        [0, 1, 4, 6, 7, 9, 15, 19, 20, 22, 23, 26, 27, 28, 29, 30, 34,
                         38]],
             'paths': 'e35fe49d0665be18',
             'rotations': 25,
             'stats_broken': '4004954487df9116',
             'stopped': 'empty_layer'},
 'keep_all': {'broken': 'a6eed6a5dd2162d5',
              'chains': '23ead054c410cdc8',
              'layers': [[33], [5, 10, 13, 16, 17, 18, 27],
                         [0, 1, 3, 4, 6, 7, 9, 15, 20, 23, 26, 28, 29, 30, 34, 38]],
              'paths': '70d3e65340f76eef',
              'rotations': 23,
              'stats_broken': 'a6eed6a5dd2162d5',
              'stopped': 'empty_layer'}}


def test_endpoint_family_pins():
    assert observe_endpoint_family() == EXPECTED_ENDPOINT_FAMILY


# ---------------------------------------------------------------------------
# endpoint_closure_oracle


def observe_closure_oracle():
    g = gnp(12, 0.4, seed="pins:closure")
    p = extend(g, Path((0,)))
    out = {}
    for name, start, kwargs in (
        ("full", p, {}),
        ("budget_cut", p, {"max_states": 25}),
        ("reoriented", p.reversed(), {}),
    ):
        res = endpoint_closure_oracle(g, start, **kwargs)
        out[name] = {
            "endpoints": sorted(res.endpoints),
            "states": res.states,
            "complete": res.complete,
        }
    return out


EXPECTED_CLOSURE_ORACLE = {'budget_cut': {'complete': False,
                'endpoints': [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
                'states': 25},
 'full': {'complete': True, 'endpoints': [0, 1, 2, 3, 4, 5, 6, 7, 8, 9], 'states': 593},
 'reoriented': {'complete': True,
                'endpoints': [0, 1, 2, 3, 4, 5, 7, 8, 9, 11],
                'states': 880}}


def test_closure_oracle_pins():
    assert observe_closure_oracle() == EXPECTED_CLOSURE_ORACLE


# ---------------------------------------------------------------------------
# classify_pivots and process_bad_vertices


def _random_spanned():
    g = gnp(14, 0.3, seed="pins:pivots:3")
    ok, cycle = hamiltonian_oracle(g)
    assert ok
    return SpannedGraph(g, cycle.vertices)


def _hub_spanned():
    n = 200
    edges = {(v, v + 1) for v in range(n - 1)}
    for a, hubs in (
        (6, (50, 60, 70, 80, 90, 100)),
        (49, (120, 125, 130, 135, 140, 145)),
        (59, (150, 155, 160, 165, 170, 175)),
    ):
        edges.update(edge_key(a, hub) for hub in hubs)
    return SpannedGraph(Graph(n, edges), tuple(range(n)))


def observe_classify_pivots():
    h = _random_spanned()
    out = {}
    for name, kwargs in (
        ("early_exit", {"threshold_ratio": 0.3}),
        ("exhaustive", {"threshold_ratio": 0.3, "early_exit": False}),
        ("budget_cut", {"threshold_ratio": 0.5, "budget": 40, "early_exit": False}),
    ):
        audit = classify_pivots(h, **kwargs)
        out[name] = {
            "sizes": {str(v): s for v, s in sorted(audit.sizes.items())},
            "good": list(audit.good),
            "bad": list(audit.bad),
            "exact": audit.sizes_exact,
        }
    return out


EXPECTED_CLASSIFY_PIVOTS = {'budget_cut': {'bad': [12, 2, 6, 8, 5, 13, 11, 9],
                'exact': False,
                'good': [1, 10, 7, 3],
                'sizes': {'1': 10,
                          '10': 10,
                          '11': 5,
                          '12': 1,
                          '13': 1,
                          '2': 4,
                          '3': 11,
                          '5': 2,
                          '6': 2,
                          '7': 10,
                          '8': 2,
                          '9': 4}},
 'early_exit': {'bad': [12, 2, 6, 8, 5, 13, 9],
                'exact': False,
                'good': [1, 10, 7, 3, 11],
                'sizes': {'1': 8,
                          '10': 5,
                          '11': 5,
                          '12': 1,
                          '13': 1,
                          '2': 4,
                          '3': 5,
                          '5': 2,
                          '6': 2,
                          '7': 5,
                          '8': 2,
                          '9': 4}},
 'exhaustive': {'bad': [12, 2, 6, 8, 5, 13, 9],
                'exact': True,
                'good': [1, 10, 7, 3, 11],
                'sizes': {'1': 10,
                          '10': 10,
                          '11': 5,
                          '12': 1,
                          '13': 1,
                          '2': 4,
                          '3': 11,
                          '5': 2,
                          '6': 2,
                          '7': 10,
                          '8': 2,
                          '9': 4}}}


def test_classify_pivots_pins():
    assert observe_classify_pivots() == EXPECTED_CLASSIFY_PIVOTS


def observe_process_bad_vertices():
    h = _random_spanned()
    random_cert = process_bad_vertices(h, classify_pivots(h, threshold_ratio=0.3))
    hub = _hub_spanned()
    audit = PivotAudit(hub.spine, 999.0, {}, [], [5, 6, 30, 48, 120], True)
    hub_cert = process_bad_vertices(hub, audit)
    return {"random": random_cert.to_json(), "hub": hub_cert.to_json()}


EXPECTED_PROCESS_BAD_VERTICES = {'hub': {'U': [7, 31, 119, 121, 124, 129, 134],
         'X': [6, 7, 31, 49, 59, 119, 121, 124, 129, 134],
         'traces': [{'T_final': [],
                     'W': [[6], [49, 59], [119, 124, 129, 134]],
                     'skipped': False,
                     'vertex': 5},
                    {'T_final': [], 'W': [[7]], 'skipped': False, 'vertex': 6},
                    {'T_final': [], 'W': [[31]], 'skipped': False, 'vertex': 30},
                    {'T_final': [], 'W': [], 'skipped': True, 'vertex': 48},
                    {'T_final': [], 'W': [[121]], 'skipped': False, 'vertex': 120}]},
 'random': {'U': [1, 3, 4, 5, 7, 8, 10],
            'X': [0, 1, 3, 4, 5, 7, 8, 10, 11, 13],
            'traces': [{'T_final': [], 'W': [[1]], 'skipped': False, 'vertex': 12},
                       {'T_final': [11, 13],
                        'W': [[10]],
                        'skipped': False,
                        'vertex': 2},
                       {'T_final': [], 'W': [[8]], 'skipped': False, 'vertex': 6},
                       {'T_final': [0], 'W': [[5]], 'skipped': False, 'vertex': 8},
                       {'T_final': [], 'W': [[7]], 'skipped': False, 'vertex': 5},
                       {'T_final': [], 'W': [[3]], 'skipped': False, 'vertex': 13},
                       {'T_final': [], 'W': [[4]], 'skipped': False, 'vertex': 9}]}}


def test_process_bad_vertices_pins():
    assert observe_process_bad_vertices() == EXPECTED_PROCESS_BAD_VERTICES


# ---------------------------------------------------------------------------
# model_endpoint_paths


def observe_model_endpoint_paths():
    """One-segment halves, as the pipeline builds them from sigma0: the
    model's shape and, from three pivots under two budgets, its endpoint
    set, witness paths and broken-edge log; and a frozen protected model."""
    g = gnp(40, 0.3, seed="pins:model")
    p = extend(g, Path((0,)))
    dec = decompose(p, 2)
    out = {}
    for side, half in ((1, (0, False)), (2, (3, True))):
        model = build_contracted(dec, half, g, side)
        l = len(model.labels)
        out[f"{side}/model"] = {
            "labels": list(model.labels),
            "edges": _digest(sorted(model.spanned.graph.edges)),
            "frozen": model.frozen,
        }
        for pm in (1, l // 2, l - 3):
            for budget in (3, 4000):
                log = set()
                paths = model_endpoint_paths(model, pm, budget=budget, log=log)
                out[f"{side}/{pm}/{budget}"] = {
                    "endpoints": sorted(paths),
                    "witnesses": _digest({str(k): list(v) for k, v in sorted(paths.items())}),
                    "log": _digest(sorted(log)),
                }
    model = build_contracted(dec, (0, False), g, 1, protected_segment=0)
    out["protected"] = {"labels": list(model.labels), "frozen": model.frozen}
    return out


EXPECTED_MODEL_ENDPOINT_PATHS = {'1/1/3': {'endpoints': [2, 6], 'log': 'b7edaca73f0e42df', 'witnesses': '7177ca633f187e9c'},
 '1/1/4000': {'endpoints': [2, 6], 'log': 'b7edaca73f0e42df', 'witnesses': '7177ca633f187e9c'},
 '1/4/3': {'endpoints': [5], 'log': '4f53cda18c2baa0c', 'witnesses': 'cd54ecd635a23811'},
 '1/4/4000': {'endpoints': [5], 'log': '4f53cda18c2baa0c', 'witnesses': 'cd54ecd635a23811'},
 '1/6/3': {'endpoints': [3, 7], 'log': '32df5bcef9fe387f', 'witnesses': 'c097cc2d24bbcfea'},
 '1/6/4000': {'endpoints': [3, 7], 'log': '32df5bcef9fe387f', 'witnesses': 'c097cc2d24bbcfea'},
 '1/model': {'edges': '9f0883e4b3bd0aaa', 'frozen': False, 'labels': [5, 2, 13, 7, 1, 3, 6, 4, 0]},
 '2/1/3': {'endpoints': [2, 5, 6], 'log': 'c6db44d0975f406d', 'witnesses': '256e87d46b855f80'},
 '2/1/4000': {'endpoints': [2, 3, 5, 6],
              'log': 'd86a9ba07b4822ac',
              'witnesses': '30c262f68a2d0724'},
 '2/4/3': {'endpoints': [2, 5, 7], 'log': '2403032d9c37c691', 'witnesses': '9965a3d9c07550ec'},
 '2/4/4000': {'endpoints': [2, 3, 5, 7, 8],
              'log': '023041cacbbc6088',
              'witnesses': '62d47742dd0a7053'},
 '2/6/3': {'endpoints': [3, 7], 'log': '32df5bcef9fe387f', 'witnesses': 'c097cc2d24bbcfea'},
 '2/6/4000': {'endpoints': [3, 7], 'log': '32df5bcef9fe387f', 'witnesses': 'c097cc2d24bbcfea'},
 '2/model': {'edges': '52b6de602784657c',
             'frozen': False,
             'labels': [34, 38, 33, 30, 32, 28, 31, 29, 27]},
 'protected': {'frozen': True, 'labels': [5]}}


def test_model_endpoint_paths_pins():
    assert observe_model_endpoint_paths() == EXPECTED_MODEL_ENDPOINT_PATHS


# ---------------------------------------------------------------------------
# find_hamilton_cycle, proof-faithful mode


def observe_proof_faithful_search():
    out = {}
    for name, g, seed in (
        ("gnp", gnp(40, 0.2, seed="pins:search:2"), 2),
        ("petersen", petersen(), 0),
    ):
        res = find_hamilton_cycle(g, mode="proof_faithful", budget=3000, seed=seed)
        out[name] = {
            "stage": res.stage,
            "rotations": res.stats["rotations"],
            "restarts": res.stats["restarts"],
            "families_built": res.stats["families_built"],
            "broken_edges": _digest(sorted(res.stats.get("broken_edges", ()))),
            "cycle": list(res.cycle.vertices) if res.found else None,
        }
    return out


EXPECTED_PROOF_FAITHFUL_SEARCH = {'gnp': {'broken_edges': '1b15a9bde551bc62',
         'cycle': [5, 12, 34, 28, 15, 4, 20, 29, 14, 7, 35, 37, 26, 9, 21, 31, 24, 17,
                   23, 1, 0, 25, 10, 6, 33, 27, 30, 13, 36, 16, 22, 11, 18, 32, 38, 8,
                   19, 39, 3, 2],
         'families_built': 39,
         'restarts': 2,
         'rotations': 809,
         'stage': None},
 'petersen': {'broken_edges': 'a0da202a5676fdf3',
              'cycle': None,
              'families_built': 1181,
              'restarts': 232,
              'rotations': 3005,
              'stage': 'closing_edge'}}


def test_proof_faithful_search_pins():
    assert observe_proof_faithful_search() == EXPECTED_PROOF_FAITHFUL_SEARCH


# ---------------------------------------------------------------------------
# find_hamilton_cycle, heuristic mode, and the protected-edge heuristic closing


def _record_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that logs (kwargs, result) per call."""
    real = getattr(module, name)
    log = []

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        log.append((kwargs, out))
        return out

    monkeypatch.setattr(module, name, wrapper)
    return log


def observe_heuristic_search(monkeypatch):
    absorbed = _record_calls(monkeypatch, closing, "absorb")
    n = 300
    sparse_p = (math.log(n) + math.log(math.log(n))) / n
    out = {}
    for name, g, kwargs in (
        ("regular", random_regular(200, 3, seed="pins:heuristic:rr"), {"seed": 1}),
        ("gnp", gnp(n, sparse_p, seed="pins:heuristic:gnp:1"), {"seed": 1}),
        (
            "regular_budget",
            random_regular(200, 3, seed="pins:heuristic:rr"),
            {"seed": 1, "budget": 100},
        ),
        ("petersen_budget", petersen(), {"seed": 0, "budget": 200}),
    ):
        absorbed.clear()
        res = find_hamilton_cycle(g, mode="heuristic", **kwargs)
        out[name] = {
            "stage": res.stage,
            "rotations": res.stats["rotations"],
            "restarts": res.stats["restarts"],
            "absorptions": len(absorbed),
            "broken_edges": _digest(sorted(res.stats.get("broken_edges", ()))),
            "cycle": _digest(list(res.cycle.vertices)) if res.found else None,
        }
    return out


EXPECTED_HEURISTIC_SEARCH = {'gnp': {'absorptions': 14,
         'broken_edges': '569b19f142143e83',
         'cycle': 'af6fd4ac5bf10b97',
         'restarts': 0,
         'rotations': 130,
         'stage': None},
 'petersen_budget': {'absorptions': 0,
                     'broken_edges': 'a0da202a5676fdf3',
                     'cycle': None,
                     'restarts': 0,
                     'rotations': 200,
                     'stage': 'budget'},
 'regular': {'absorptions': 2,
             'broken_edges': 'e313194e4f8bbf62',
             'cycle': 'cd255f9c63cb26b5',
             'restarts': 0,
             'rotations': 284,
             'stage': None},
 'regular_budget': {'absorptions': 2,
                    'broken_edges': 'bcd747ecc989badb',
                    'cycle': None,
                    'restarts': 0,
                    'rotations': 100,
                    'stage': 'budget'}}


def test_heuristic_search_pins(monkeypatch):
    assert observe_heuristic_search(monkeypatch) == EXPECTED_HEURISTIC_SEARCH


def observe_protected_heuristic(monkeypatch):
    closings = _record_calls(monkeypatch, applications, "close_heuristic")
    g = random_regular(120, 3, seed="pins:heuristic:between:1")
    res = hamilton_path_between(g, 0, 60, mode="heuristic", seed=1)
    protected = [
        (kwargs["stats"]["rotations"], type(outcome).__name__)
        for kwargs, outcome in closings
        if kwargs.get("protected_edge") is not None
    ]
    return {
        "path": _digest(list(res.path.vertices)) if res.found else None,
        "stage": res.stage,
        "rotations": res.stats["rotations"],
        "restarts": res.stats["restarts"],
        "broken_edges": _digest(sorted(res.broken_edges)),
        "protected_closings": protected,
    }


EXPECTED_PROTECTED_HEURISTIC = {'broken_edges': '66e7cae3d182f141',
 'path': '046510152245b48a',
 'protected_closings': [(321, 'Cycle')],
 'restarts': 0,
 'rotations': 688,
 'stage': None}


def test_protected_heuristic_pins(monkeypatch):
    assert observe_protected_heuristic(monkeypatch) == EXPECTED_PROTECTED_HEURISTIC


# ---------------------------------------------------------------------------
# close_proof_faithful: the segment records and the sigma0 choice


def _sigma0_view(sigma0, pairs):
    entries = [list(e) for e in sigma0] if sigma0 is not None else None
    return {"sigma0": entries, "pairs": _digest(sorted(pairs))}


def observe_pipeline_records(monkeypatch):
    """Run `close_proof_faithful` with the record stage logged: every coded
    layout `unbroken_segments` returns, with the pair whose runs it read and
    that pair's rotation count, and for every `select_sigma0` call the choice
    with `must_include` unset and with the protected segment (or segment 0)."""
    targets_log = _record_calls(monkeypatch, closing, "double_rotation_targets")
    real_unbroken = closing.unbroken_segments
    real_select = closing.select_sigma0
    records = []
    rounds = []

    def unbroken(dec, runs):
        targets = targets_log[-1][1]
        pair = next(p for p, r in targets.pair_runs.items() if r is runs)
        layout = real_unbroken(dec, runs)
        records.append((pair, targets.pair_rotations[pair], layout))
        return layout

    def select(layouts, must_include=None):
        rounds.append((dict(layouts), must_include))
        return real_select(layouts, must_include=must_include)

    monkeypatch.setattr(closing, "unbroken_segments", unbroken)
    monkeypatch.setattr(closing, "select_sigma0", select)
    out = {}
    for name, n, c, seed, protect in (
        ("gnp40", 40, 3.0, 1, False),
        ("gnp60", 60, 5.0, 2, False),
        ("gnp50_sparse", 50, 2.0, 3, False),
        ("gnp50_protected", 50, 4.0, 4, True),
    ):
        g = gnp(n, c * math.log(n) / n, seed=f"pins:records:{seed}")
        p = extend(g, Path((0,)))
        mid = len(p) // 2
        protected = edge_key(p[mid], p[mid + 1]) if protect else None
        records.clear()
        rounds.clear()
        res = closing.close_proof_faithful(g, p, protected_edge=protected)
        choices = []
        for layouts, must in rounds:
            choices.append({
                "records": len(layouts),
                "unset": _sigma0_view(*real_select(layouts)),
                "protected_segment": must,
                "must_include": _sigma0_view(
                    *real_select(layouts, must_include=0 if must is None else must)
                ),
            })
        out[name] = {
            "outcome": type(res).__name__,
            "records": len(records),
            "record_digest": _digest([[list(p), list(c)] for p, _, c in records]),
            "rotations": sorted({r for _, r, _ in records}),
            "sigma0": choices,
        }
    return out


EXPECTED_PIPELINE_RECORDS = {'gnp40': {'outcome': 'CloseFailure',
           'record_digest': '35976944a7a48f97',
           'records': 562,
           'rotations': [1, 2, 3, 4],
           'sigma0': [{'must_include': {'pairs': '01737988ebfb81ae',
                                        'sigma0': [[1, True], [0, True]]},
                       'protected_segment': None,
                       'records': 286,
                       'unset': {'pairs': '01737988ebfb81ae',
                                 'sigma0': [[1, True], [0, True]]}},
                      {'must_include': {'pairs': '6c81a654dd092d2f',
                                        'sigma0': [[0, False], [1, False]]},
                       'protected_segment': None,
                       'records': 276,
                       'unset': {'pairs': '6c81a654dd092d2f',
                                 'sigma0': [[0, False], [1, False]]}}]},
 'gnp50_protected': {'outcome': 'Cycle',
                     'record_digest': '86d773d75e1dd4c3',
                     'records': 900,
                     'rotations': [1, 2, 3, 4],
                     'sigma0': [{'must_include': {'pairs': '5d7473dd6c26b630',
                                                  'sigma0': [[3, False], [4, False]]},
                                 'protected_segment': 4,
                                 'records': 300,
                                 'unset': {'pairs': '62760a8f3925d68d',
                                           'sigma0': [[7, True], [6, True]]}},
                                {'must_include': {'pairs': 'a108e796431a1f3e',
                                                  'sigma0': [[0, False], [1, False]]},
                                 'protected_segment': 0,
                                 'records': 300,
                                 'unset': {'pairs': 'd0ac259e936d4348',
                                           'sigma0': [[3, True], [2, True]]}},
                                {'must_include': {'pairs': 'a79ae0aeea8c2ad2',
                                                  'sigma0': [[4, False], [0, True]]},
                                 'protected_segment': 0,
                                 'records': 300,
                                 'unset': {'pairs': '9257abb70e84ed30',
                                           'sigma0': [[4, False], [5, False]]}}]},
 'gnp50_sparse': {'outcome': 'CloseFailure',
                  'record_digest': 'a779bf3c47b3764d',
                  'records': 255,
                  'rotations': [1, 2, 3, 4, 5],
                  'sigma0': [{'must_include': {'pairs': '5b6ce0216dd1a095',
                                               'sigma0': [[0, False], [1, False]]},
                              'protected_segment': None,
                              'records': 255,
                              'unset': {'pairs': 'f7e0f5be5d7bc619',
                                        'sigma0': [[8, False], [9, False]]}}]},
 'gnp60': {'outcome': 'Cycle',
           'record_digest': 'e3c897af0c4311b0',
           'records': 300,
           'rotations': [1, 2, 3, 4],
           'sigma0': [{'must_include': {'pairs': 'f74c094f09f4e7ad',
                                        'sigma0': [[0, False], [7, True]]},
                       'protected_segment': None,
                       'records': 300,
                       'unset': {'pairs': '40a767511248a456',
                                 'sigma0': [[7, True], [6, True]]}}]}}


def test_pipeline_record_pins(monkeypatch):
    assert observe_pipeline_records(monkeypatch) == EXPECTED_PIPELINE_RECORDS
