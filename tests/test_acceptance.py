"""Acceptance suite: one test per acceptance criterion.

Each test prints a `[acceptance] criterion N PASS` line once its
assertions hold (run with ``pytest -s`` to see the lines live; ``-v``
gives the per-test pass/fail verdicts either way). Tolerances are pinned
here and nowhere else.
"""

import itertools
import json
import time

import pytest

from arsusim.broker import ARSU_CLIENT
from arsusim.cli import main
from arsusim.config import parse_scenario
from arsusim.gateway import GENERATION_TARGETS, FilterStatus, Gateway
from arsusim.latency import LatencyModel, recomposition_residuals
from arsusim.messages import Detection, LinkTech, Topic
from arsusim.report import emit_table4, scenario_matrix
from arsusim.sim import Simulation, run

from conftest import bsm_at, collecting, position_at

# Independent transcription of the published composed-delay table (ms).
PRINTED = (
    (5.470, 7.354, 9.166, 10.906, 12.574),
    (43.387, 60.919, 74.509, 84.157, 89.863),
    (45.400, 61.903, 74.536, 83.299, 88.192),
    (83.318, 115.469, 139.880, 156.551, 165.482),
    (301.728, 303.185, 304.569, 305.882, 307.122),
    (303.742, 304.169, 304.597, 305.024, 305.452),
    (341.659, 357.735, 369.940, 378.275, 382.741),
)

ALL_SIX = {"EEBL", "FCW", "IMA", "BSW", "LCW", "DNPW"}
TIME_SENSITIVE = {"BSW", "LCW", "DNPW"}

FOUR_USER_60KMH = """
duration_ms: 10000
scenario_speed_kmh: 60
seed: 7
arsu: {coverage_radius_m: 400}
users:
  - {kind: native_dsrc, id: U1, x_m: 10, y_m: 0, gnss_error_std_m: 0}
  - {kind: native_cv2x, id: U2, x_m: 20, y_m: 0, gnss_error_std_m: 0}
  - {kind: nonnative_cell, id: U3, x_m: 30, y_m: 0, gnss_error_std_m: 0}
  - {kind: non_connected, id: P1, x_m: 40, y_m: 0}
ipu: {noise_std_m: 0}
"""

NOISY_MIXED = """
duration_ms: 3000
scenario_speed_kmh: 30
seed: 21
arsu: {coverage_radius_m: 400}
users:
  - {kind: native_dsrc, id: U1, x_m: 10, gnss_error_std_m: 1.0}
  - {kind: native_cv2x, id: U2, x_m: 20, gnss_error_std_m: 1.0}
  - {kind: nonnative_cell, id: U3, x_m: 30, gnss_error_std_m: 1.0}
  - {kind: non_connected, id: P1, x_m: 60}
ipu: {noise_std_m: 1.0}
"""


def _announce(number: int, summary: str) -> None:
    print(f"[acceptance] criterion {number} PASS - {summary}")


def test_criterion_1_table4_recomposition(capsys):
    started = time.perf_counter()
    assert main(["table4"]) == 0
    printed_text = capsys.readouterr().out
    matrix, _, _ = emit_table4(LatencyModel.default())
    elapsed = time.perf_counter() - started
    worst = 0.0
    for row, printed_row in zip(matrix, PRINTED):
        for value, printed in zip(row, printed_row):
            worst = max(worst, abs(value - printed))
            assert value == pytest.approx(printed, abs=0.01), (
                f"cell {printed} recomposed as {value}"
            )
    # the command's formatted cells carry the same values (3 decimals)
    cells = [
        float(token.rstrip("*!"))
        for line in printed_text.splitlines()
        for token in line.split()[2:]
        if token[0].isdigit() and line.split()[0] in
        ("DSRC", "CV2X", "Cell", "Cam")
    ]
    assert len(cells) == 35
    for shown, printed in zip(cells, itertools.chain.from_iterable(PRINTED)):
        assert shown == pytest.approx(printed, abs=0.01)
    assert elapsed < 1.0, f"table4 took {elapsed:.3f}s"
    _announce(1, f"35/35 cells within ±0.01 ms (worst {worst:.4f} ms, "
                 f"{elapsed * 1000:.0f} ms runtime)")


def test_criterion_2_half_delay_consistency():
    table = LatencyModel.from_composed(PRINTED)  # must not raise
    assert set(table.half_ms) == {
        LinkTech.DSRC, LinkTech.CV2X, LinkTech.CELL_MQTT
    }
    residuals = recomposition_residuals(PRINTED)
    worst = max(itertools.chain.from_iterable(residuals))
    assert worst <= 0.002, f"max recomposition residual {worst:.6f} ms"
    _announce(2, f"derivation consistent, max residual {worst:.4f} ms "
                 f"<= 0.002 ms over rows 1-4 x 5 speeds")


def test_criterion_3_serviceability_reproduction():
    rows = scenario_matrix(LatencyModel.default(), (0.0, 120.0))
    by_number = {r["scenario"]: r for r in rows}
    # one-V2X-leg bundles (composed rows 1-3) serve all six applications
    for number in (1, 2, 3, 4, 5, 6):
        apps = set(by_number[number]["serviceable_apps"])
        assert apps == ALL_SIX, f"scenario {number} served {apps}"
    assert by_number[1]["max_delay_ms"] == pytest.approx(12.574, abs=0.01)
    assert by_number[3]["max_delay_ms"] == pytest.approx(12.574, abs=0.01)
    # cell-cell and camera bundles are time-sensitive only
    for number in (7, 8, 9, 10):
        apps = set(by_number[number]["serviceable_apps"])
        assert apps == TIME_SENSITIVE, f"scenario {number} served {apps}"
    # nothing is unserviceable: every bundle stays under 600 ms
    for row in rows:
        assert row["max_delay_ms"] < 600.0
        assert row["category"] != "unserviceable"
    _announce(3, "scenarios 1-6 serve all six apps, 7-10 time-sensitive "
                 "only, none unserviceable")


def test_criterion_4_end_to_end_latency_fidelity():
    config = parse_scenario(FOUR_USER_60KMH)
    started = time.perf_counter()
    result = run(config)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"10 s scenario took {elapsed:.2f}s to simulate"

    assert result.metrics.deliveries, "no deliveries in fidelity scenario"
    worst = 0.0
    for record in result.metrics.deliveries:
        expected = result.model.composed_delay(
            record.uplink, record.downlink, 60.0
        )
        error = abs(record.latency_ms - expected)
        worst = max(worst, error)
        assert error <= 0.001, (
            f"{record.uplink.value}->{record.downlink.value} to "
            f"{record.receiver}: measured {record.latency_ms} ms, "
            f"model {expected} ms"
        )

    aware = result.metrics.awareness()
    everyone = {"U1", "U2", "U3", "P1"}
    for receiver in ("U1", "U2", "U3"):
        peers = {s for (r, s) in aware if r == receiver} - {receiver}
        assert everyone - {receiver} <= peers, (
            f"{receiver} aware of {peers}, expected all three peers"
        )
    assert result.final_coverage == 1.0
    _announce(4, f"{len(result.metrics.deliveries)} deliveries all within "
                 f"0.001 ms of the model (worst {worst:.6f} ms); full "
                 f"awareness; {elapsed:.2f}s runtime")


def test_criterion_5a_filter_soundness_no_false_non_connected():
    config = parse_scenario("""
duration_ms: 100000
scenario_speed_kmh: 0
seed: 1
users:
  - {kind: native_dsrc, id: U1, x_m: 10, y_m: 0, gnss_error_std_m: 1.0}
ipu: {noise_std_m: 1.0}
""")
    result = run(config)
    frames = sum(1 for r in result.trace_rows if r[1] == "IpuFrame")
    assert frames == 1000, f"expected 1000 camera frames, got {frames}"
    assert result.metrics.detections == 1000
    assert result.gateway.confirmed_tracks == 0, "false NonConnected"
    assert result.ghost_pairs == [], "ghost road users created"
    camera_bsm = [d for d in result.metrics.deliveries
                  if d.uplink is LinkTech.CAMERA]
    assert camera_bsm == []
    _announce("5a", "1000 frames, noise 1 m, sigma 5 m: zero NonConnected "
                    "confirmations, zero ghosts")


def test_criterion_5b_filter_completeness_exact_grace():
    # gateway-level: unmatched detection confirms exactly grace_ms later
    gw = Gateway()
    det = Detection(
        estimate=position_at(50.0, 0.0),
        speed_kmh=0.0,
        heading_deg=0.0,
        captured_at_us=0,
        available_at_us=300_000,
    )
    outcome = gw.on_detection(det, 300_000)
    assert outcome.status is FilterStatus.PENDING
    assert outcome.deadline_us == 300_000 + 100_000
    # not confirmable earlier: a deadline event fires only at the deadline
    assert gw.on_grace_deadline(outcome.track_id, 400_000) is not None
    assert GENERATION_TARGETS == (
        (LinkTech.DSRC, None), (LinkTech.CV2X, None),
        (LinkTech.CELL_MQTT, Topic.IPU),
    )

    # end-to-end: the simulated confirmation lands exactly at
    # first-evaluation + 100 ms
    result = run(parse_scenario("""
duration_ms: 1000
seed: 0
users:
  - {kind: non_connected, id: P1, x_m: 30}
ipu: {noise_std_m: 0}
"""))
    ready = [r for r in result.trace_rows
             if r[1] == "DetectionReady" and "Pending" in r[4]]
    confirmed = [r for r in result.trace_rows
                 if r[1] == "GraceDeadline" and "confirmed" in r[4]]
    assert ready and confirmed
    first_evaluation_ms = float(ready[0][0])
    confirmation_ms = float(confirmed[0][0])
    assert confirmation_ms == pytest.approx(first_evaluation_ms + 100.0,
                                            abs=1e-9)
    _announce("5b", f"unmatched detection confirmed at first evaluation "
                    f"+100.000 ms exactly ({first_evaluation_ms:.3f} -> "
                    f"{confirmation_ms:.3f}), relayed on all three media")


def test_criterion_5c_stale_history_never_matches():
    gw = Gateway()
    # inject an entry that would match on distance but is 300 ms old
    stale = bsm_at("U1", x_m=10.0, tech=LinkTech.DSRC, now_us=0)
    gw.on_rx(stale, LinkTech.DSRC, 0)
    det = Detection(
        estimate=position_at(10.0, 0.0),  # distance 0 to the stale entry
        speed_kmh=0.0,
        heading_deg=0.0,
        captured_at_us=0,
        available_at_us=300_000,
    )
    outcome = gw.on_detection(det, 300_000)
    assert outcome.status is FilterStatus.PENDING, (
        "stale entry participated in matching"
    )
    # control: the same entry inside the window does match
    gw2 = Gateway()
    gw2.on_rx(bsm_at("U1", x_m=10.0, tech=LinkTech.DSRC, now_us=150_000),
              LinkTech.DSRC, 150_000)
    control = gw2.on_detection(det, 300_000)
    assert control.status is FilterStatus.CONNECTED
    _announce("5c", "entry older than 200 ms excluded from matching "
                    "(control entry inside the window matches)")


def test_criterion_6_relay_rule_conformance():
    # a send target is (medium, topic): a radio broadcast, or a publish
    tx_dsrc, tx_cv2x = (LinkTech.DSRC, None), (LinkTech.CV2X, None)
    expectations = {
        LinkTech.DSRC: (tx_cv2x, (LinkTech.CELL_MQTT, Topic.DSRC)),
        LinkTech.CV2X: (tx_dsrc, (LinkTech.CELL_MQTT, Topic.CV2X)),
        LinkTech.CELL_MQTT: (tx_dsrc, tx_cv2x),
    }
    for via, expected in expectations.items():
        gw = Gateway()
        bsm = bsm_at("U1", x_m=1.0, tech=via, now_us=1_000)
        targets = gw.on_rx(bsm, via, 2_000)
        assert targets == expected, f"row for {via}"
        if via is LinkTech.CELL_MQTT:
            assert all(topic is None for _, topic in targets), (
                "cell arrival must not re-publish")
        else:
            assert (via, None) not in targets

    # row 4: a confirmed detection emits all three media
    gw = Gateway()
    det = Detection(position_at(40.0, 0.0), 0.0, 0.0, 0, 300_000)
    pending = gw.on_detection(det, 300_000)
    assert gw.on_grace_deadline(pending.track_id, 400_000) is not None
    assert GENERATION_TARGETS == (
        tx_dsrc, tx_cv2x, (LinkTech.CELL_MQTT, Topic.IPU)
    )

    # relay purity: in a run, every envelope the gateway publishes on the
    # DSRC or CV2X topic carries the very BSM object it heard
    simulation = collecting(Simulation(parse_scenario(NOISY_MIXED)))
    heard = []
    on_rx = simulation.gateway.on_rx

    def hearing(bsm, via, now_us):
        heard.append(bsm)
        return on_rx(bsm, via, now_us)

    simulation.gateway.on_rx = hearing
    publishes = simulation.run().broker.delivery_log.publishes
    relayed = [
        envelope.payload for envelope, publisher, _ in publishes
        if publisher == ARSU_CLIENT
        and envelope.topic in (Topic.DSRC, Topic.CV2X)
    ]
    assert {bsm.origin_tech for bsm in relayed} == {
        LinkTech.DSRC, LinkTech.CV2X}
    heard_ids = {id(bsm) for bsm in heard}
    assert all(id(bsm) in heard_ids for bsm in relayed), (
        "a relay re-encoded its payload")

    # loop freedom under a DSRC<->CV2X echo topology
    gw = Gateway()
    origin = bsm_at("U1", tech=LinkTech.DSRC, now_us=0)
    queue = [(origin, LinkTech.DSRC)]
    total = 0
    now = 0
    for _ in range(100):
        if not queue:
            break
        bsm, via = queue.pop(0)
        now += 500
        targets = gw.on_rx(bsm, via, now)
        total += len(targets)
        for medium, topic in targets:
            if topic is None:
                queue.append((bsm, medium))
    assert not queue, "echo topology never quiesced"
    assert total <= 3, f"{total} sends for one logical BSM"
    _announce(6, "rows 1-4 exact, payloads untouched, no same-medium echo, "
                 f"echo topology quiesced after {total} actions")


def test_criterion_7_mqtt_contract():
    result = run(parse_scenario(NOISY_MIXED))
    broker = result.broker

    nonnative = ["U3"]
    for client in nonnative:
        subs = broker.subscriptions_of(client)
        assert subs == set(Topic), f"{client} subscriptions {subs}"
        published = broker.published_topics_of(client)
        assert published == {Topic.CELL}, f"{client} published {published}"

    arsu_subs = broker.subscriptions_of(ARSU_CLIENT)
    assert arsu_subs == {Topic.CELL}
    arsu_published = broker.published_topics_of(ARSU_CLIENT)
    assert arsu_published == {Topic.IPU, Topic.DSRC, Topic.CV2X}, (
        f"gateway published {arsu_published}"
    )
    _announce(7, "nonnative: 4 subscriptions, 1 publish topic; gateway: "
                 "1 subscription (Cell), 3 publish topics")


def test_criterion_8_determinism(tmp_path):
    config_path = tmp_path / "scenario.yaml"
    config_path.write_text(NOISY_MIXED)

    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    assert main(["run", str(config_path), "--out", str(out_a), "--trace"]) == 0
    assert main(["run", str(config_path), "--out", str(out_b), "--trace"]) == 0
    report_a = (out_a / "report.json").read_bytes()
    report_b = (out_b / "report.json").read_bytes()
    trace_a = (out_a / "trace.csv").read_bytes()
    trace_b = (out_b / "trace.csv").read_bytes()
    assert report_a == report_b, "equal seeds produced differing reports"
    assert trace_a == trace_b, "equal seeds produced differing traces"

    assert main(["run", str(config_path), "--out", str(out_c), "--trace",
                 "--seed", "22"]) == 0
    trace_c = (out_c / "trace.csv").read_bytes()
    assert trace_c != trace_a, "differing seeds produced identical traces"

    # sanity: the reports parse and echo their seeds
    assert json.loads(report_a)["seed"] == 21
    assert json.loads((out_c / "report.json").read_bytes())["seed"] == 22
    _announce(8, "equal seeds byte-identical (report.json, trace.csv); "
                 "differing seeds diverge")
