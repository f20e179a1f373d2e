"""The documented divergences from the paper, pinned on the committed
results.

EXPERIMENTS.md and DESIGN.md §7 record four places where this
reproduction does not reproduce the paper's shape or magnitude. Each
test reads the committed ``artifacts/*.json`` (which CI regenerates
and diffs), pins the values behind the divergence exactly and asserts
its shape, so a change that moves a divergence must update the
artifact, this file and EXPERIMENTS.md together.
"""

import json
from pathlib import Path

import pytest

ARTIFACTS = Path(__file__).resolve().parents[2] / "artifacts"


def load(name):
    with open(ARTIFACTS / f"{name}.json") as f:
        return json.load(f)


def improvements(name):
    """``{(label, nodes): {approach: % improvement}}`` of a fig3 artifact."""
    return {(label, nodes): imps for label, nodes, imps in load(name)["rows"]}


def test_rdf_vacf_seesaw_does_not_trail_time_aware():
    # paper: SeeSAw slightly below time-aware on RDF/VACF (a local
    # optimum at 115-117 W); here both reach the same delta_min-clamped
    # split, so RDF ties and VACF favours SeeSAw
    fig3a = improvements("fig3a")
    rdf = fig3a[("RDF (dim 36)", 128)]
    vacf = fig3a[("VACF (dim 36)", 128)]
    assert rdf["seesaw"] == 12.008078983023518
    assert rdf["time-aware"] == 11.872410936212765
    assert vacf["seesaw"] == 11.99899486710478
    assert vacf["time-aware"] == 9.93833530774367
    assert 0.0 <= rdf["seesaw"] - rdf["time-aware"] < 0.2
    assert vacf["seesaw"] > vacf["time-aware"]


def test_table2_msd_row_rises_with_j():
    # paper: 5.03 / 0.94 / 0.90 for j = 4 / 20 / 100, falling with j;
    # here the w=1 reactivity penalty is worst when MSD recurs often
    table2 = load("table2")
    assert table2["j_values"] == [4, 20, 100]
    msd = [table2["msd_rows"][str(j)] for j in table2["j_values"]]
    assert msd == [-4.836984105161513, 3.491760334324598, 5.567113212664751]
    assert msd[0] < 0.0 < msd[1] < msd[2]
    # the w=2 row rises with j too: windowing does not restore the order
    msd_w2 = [table2["msd_rows_w2"][str(j)] for j in table2["j_values"]]
    assert msd_w2 == [-6.49397552251039, 2.621023140366213, 5.399369433874107]
    assert msd_w2 == sorted(msd_w2)


def test_fig9a_relative_overhead_grows_with_scale():
    # paper: a smaller relative overhead at 1024 nodes; here strong
    # scaling shrinks the interval faster than the collectives grow
    relative = load("fig9")["relative"]
    pct128, ovh128, int128 = relative["128"]
    pct1024, ovh1024, int1024 = relative["1024"]
    assert relative["128"] == [1.308573076701337e-06, 0.00015281920000000002, 117.20015695771863]
    assert relative["1024"] == [1.6098502871818284e-05, 0.00029152, 18.17724490512749]
    assert pct1024 > pct128
    assert ovh1024 > ovh128 and int1024 < int128
    assert ovh1024 / ovh128 < int128 / int1024


def test_time_aware_worst_case_is_about_minus_14_percent():
    # paper: time-aware from +13 % down to -60 %; here its range over
    # Fig. 3a and 3b is +11.9 % (RDF/128) to -14.2 % (all/512)
    cells = {**improvements("fig3a"), **improvements("fig3b")}
    time_aware = {key: imps["time-aware"] for key, imps in cells.items()}
    worst = min(time_aware, key=time_aware.get)
    best = max(time_aware, key=time_aware.get)
    assert worst == ("all (dim 48)", 512)
    assert time_aware[worst] == -14.1641364711316
    assert best == ("RDF (dim 36)", 128)
    assert time_aware[best] == 11.872410936212765
    assert time_aware[worst] == pytest.approx(-14.0, abs=0.5)
    assert time_aware[worst] > -60.0 / 2
