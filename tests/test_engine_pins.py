"""Pinned behaviour of the rotation engine on small seeded inputs.

The expected values were recorded from the implementation that kept a
separate breadth-first closure in `rotation`, `pivots` and `closing` and two
layered endpoint-family loops; the heuristic-search values were recorded from
the loop that rebuilt a frozen `Path` for every rotation, extension and
reversal.  Any refactor of the engine must reproduce them exactly.  Large
structures (chains, witness paths) are pinned by a digest of their canonical
JSON.
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
    small_aware_family,
    small_vertices,
)
from hamlab import applications, closing
from hamlab.closing import TauSequence, build_contracted, decompose, model_endpoint_paths
from hamlab.pivots import PivotAudit


def _digest(obj):
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _family_view(fam, stats):
    return {
        "layers": [list(layer) for layer in fam.layers],
        "schedule": list(fam.schedule),
        "stopped": fam.stopped,
        "chains": _digest(fam.to_json()["chains"]),
        "paths": _digest({str(v): list(p.vertices) for v, p in sorted(fam.paths.items())}),
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
        "capped": {"d": 6.0, "layer_cap": 3, "surplus": 1.0, "total_target": g.n},
        "keep_all": {"d": 4.0, "surplus": None, "max_layers": 3, "total_target": g.n},
        "guarded": {
            "protected_edge": edge_key(p[mid], p[mid + 1]),
            "exclude": [p[3], p[5]],
            "total_target": g.n,
        },
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


EXPECTED_ENDPOINT_FAMILY = {'capped': {'broken': '55f272f0848bf100',
            'chains': '2afbd203160a220d',
            'layers': [[33], [5, 10], [9, 27, 28], [3, 4, 7], [2, 12, 13], [17, 30, 34],
                       [20]],
            'paths': '8af949654381476f',
            'rotations': 35,
            'schedule': [1, 2, 3, 3, 3, 3, 3],
            'stats_broken': '37455ee61a602d20',
            'stopped': 'empty_layer'},
 'default': {'broken': '637b2ad2543262b5',
             'chains': '403c20d71965b5fc',
             'layers': [[33], [5, 10, 13, 16, 17, 18],
                        [0, 1, 3, 4, 6, 7, 9, 15, 19, 20, 22, 23, 26, 27, 28, 29, 30,
                         34]],
             'paths': '8a70c43df23de78e',
             'rotations': 26,
             'schedule': [1, 3, 9],
             'stats_broken': 'e2d055ae8fb01608',
             'stopped': 'target_met'},
 'guarded': {'broken': '366d3a374a4e95c1',
             'chains': '2a449d6ed67323ed',
             'layers': [[33], [5, 13, 16, 17, 18, 27],
                        [0, 4, 7, 9, 15, 20, 23, 26, 28, 29, 30, 34, 38]],
             'paths': '955fde61cd2733fc',
             'rotations': 19,
             'schedule': [1, 3, 9],
             'stats_broken': '366d3a374a4e95c1',
             'stopped': 'empty_layer'},
 'keep_all': {'broken': 'a6eed6a5dd2162d5',
              'chains': '23ead054c410cdc8',
              'layers': [[33], [5, 10, 13, 16, 17, 18, 27],
                         [0, 1, 3, 4, 6, 7, 9, 15, 20, 23, 26, 28, 29, 30, 34, 38]],
              'paths': '70d3e65340f76eef',
              'rotations': 23,
              'schedule': [1, 2, 2],
              'stats_broken': 'a6eed6a5dd2162d5',
              'stopped': 'empty_layer'}}


def test_endpoint_family_pins():
    assert observe_endpoint_family() == EXPECTED_ENDPOINT_FAMILY


# ---------------------------------------------------------------------------
# small_aware_family


def observe_small_aware_family():
    out = {}
    for seed, restarts in ((11, 1), (13, 1), (13, 2)):
        g = gnp(30, 2.0 * math.log(30) / 30, seed=f"pin:small:{seed}")
        small = small_vertices(g, 3)
        start = max(range(g.n), key=g.degree)
        stats = {"rotations": 0}
        fam = small_aware_family(
            g, extend(g, Path((start,))), small, max_restarts=restarts, stats=stats
        )
        view = _family_view(fam, stats)
        view["special_rotations"] = list(fam.special_rotations)
        view["base"] = _digest(list(fam.base.vertices))
        out[f"{seed}/{restarts}"] = view
    return out


EXPECTED_SMALL_AWARE_FAMILY = {'11/1': {'base': '5a8dcf458c201121',
          'broken': '3dd44ba39df753b3',
          'chains': '50bc63bc1f9c1f8b',
          'layers': [[27], [1, 2], [21], [0, 13, 15, 16], [7, 8, 9, 12, 17]],
          'paths': '70c76f1270c6d46a',
          'rotations': 22,
          'schedule': [1, 1, 6, 3, 4],
          'special_rotations': [3],
          'stopped': 'target_met'},
 '13/1': {'base': 'c3176334cb5f44e0',
          'broken': '75e8ef2f12306d45',
          'chains': 'fcde2f4c93fd9e53',
          'layers': [[1], [9, 14], [0, 2, 8, 10, 21, 27], [15, 16, 25]],
          'paths': 'bdf3bdfd1d8055ed',
          'rotations': 20,
          'schedule': [1, 1, 6, 6],
          'special_rotations': [5],
          'stopped': 'target_met'},
 '13/2': {'base': 'c3176334cb5f44e0',
          'broken': '75e8ef2f12306d45',
          'chains': 'fcde2f4c93fd9e53',
          'layers': [[1], [9, 14], [0, 2, 8, 10, 21, 27], [15, 16, 25]],
          'paths': 'bdf3bdfd1d8055ed',
          'rotations': 21,
          'schedule': [1, 1, 6, 6],
          'special_rotations': [5, 13],
          'stopped': 'target_met'}}


def test_small_aware_family_pins():
    assert observe_small_aware_family() == EXPECTED_SMALL_AWARE_FAMILY


# ---------------------------------------------------------------------------
# endpoint_closure_oracle


def observe_closure_oracle():
    g = gnp(12, 0.4, seed="pins:closure")
    p = extend(g, Path((0,)))
    out = {}
    for name, kwargs in (
        ("full", {}),
        ("budget_cut", {"max_states": 25}),
        ("reoriented", {"fixed": p.last}),
    ):
        res = endpoint_closure_oracle(g, p, **kwargs)
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
    g = gnp(40, 0.3, seed="pins:model")
    p = extend(g, Path((0,)))
    dec = decompose(p, 2)
    out = {}
    for side, entries in ((1, ((0, False), (1, False))), (2, ((2, False), (3, False)))):
        model = build_contracted(dec, TauSequence(entries), g, side)
        l = len(model.labels)
        for pm in (1, l // 2, l - 3):
            for budget in (60, 4000):
                log = set()
                paths = model_endpoint_paths(model, pm, budget=budget, log=log)
                out[f"{side}/{pm}/{budget}"] = {
                    "endpoints": sorted(paths),
                    "witnesses": _digest({str(k): list(v) for k, v in sorted(paths.items())}),
                    "log": _digest(sorted(log)),
                }
    return out


EXPECTED_MODEL_ENDPOINT_PATHS = {'1/1/4000': {'endpoints': [2, 3, 4, 5, 6, 8, 9, 10, 12, 13, 14, 15],
              'log': '0db60c3e1832fc03',
              'witnesses': '5dd8366892637beb'},
 '1/1/60': {'endpoints': [2, 3, 4, 5, 6, 8, 9, 10, 12, 13, 14, 15],
            'log': '0db60c3e1832fc03',
            'witnesses': '5dd8366892637beb'},
 '1/15/4000': {'endpoints': [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17],
               'log': '244881b01a18018a',
               'witnesses': '9b04f2bd022b165b'},
 '1/15/60': {'endpoints': [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17],
             'log': 'b4881535186d109e',
             'witnesses': '9b04f2bd022b165b'},
 '1/9/4000': {'endpoints': [2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17],
              'log': '97cadf379b021914',
              'witnesses': '0402dd7048cdf689'},
 '1/9/60': {'endpoints': [2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 14, 15, 16, 17],
            'log': '04a7b58128f26bfd',
            'witnesses': '621e5aa7173b16b9'},
 '2/1/4000': {'endpoints': [2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 14, 15],
              'log': '8a68a12b24d23c04',
              'witnesses': 'd233034c5416a220'},
 '2/1/60': {'endpoints': [2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 14, 15],
            'log': '8a68a12b24d23c04',
            'witnesses': 'd233034c5416a220'},
 '2/15/4000': {'endpoints': [2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17],
               'log': '4f2c678e0f8a13b6',
               'witnesses': '98a3b9e8e3ab669a'},
 '2/15/60': {'endpoints': [2, 3, 4, 5, 6, 8, 10, 11, 12, 13, 14, 15, 16, 17],
             'log': 'f318a92136b2f698',
             'witnesses': 'e3f5f691176e0ddf'},
 '2/9/4000': {'endpoints': [2, 3, 4, 5, 6, 8, 10, 11, 12, 13, 14, 15, 16, 17],
              'log': '025904a520b71857',
              'witnesses': '2d82ad3ab4ac7219'},
 '2/9/60': {'endpoints': [2, 3, 4, 5, 6, 8, 10, 11, 12, 13, 14, 15, 16, 17],
            'log': 'a483009684fd3772',
            'witnesses': '2d82ad3ab4ac7219'}}


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
