"""Latency model tests.

The expected values here are an independently transcribed copy of the
published delay table; the derivation oracle (subtract the 300 ms camera
processing overhead from the camera rows) is applied by the test itself
so the model's arithmetic is checked against hand-computed numbers, not
against its own output.
"""

import itertools

import pytest

from arsusim.latency import (
    AppCategory,
    DEFAULT_COMPOSED_DELAYS_MS,
    DelayCategory,
    InconsistentDelayTable,
    LatencyModel,
    MAX_ITT_MS,
    PAIR_ROWS,
    SAFETY_APPS,
    SPEEDS_KMH,
    SpeedClampWarning,
    classify,
    composed_csv_rows,
    load_composed_csv,
    recomposition_residuals,
)
from arsusim.messages import LinkTech

# Independent transcription of the published 7x5 table (ms).
PRINTED = (
    (5.470, 7.354, 9.166, 10.906, 12.574),
    (43.387, 60.919, 74.509, 84.157, 89.863),
    (45.400, 61.903, 74.536, 83.299, 88.192),
    (83.318, 115.469, 139.880, 156.551, 165.482),
    (301.728, 303.185, 304.569, 305.882, 307.122),
    (303.742, 304.169, 304.597, 305.024, 305.452),
    (341.659, 357.735, 369.940, 378.275, 382.741),
)

# Hand-derived halves: camera rows minus the 300 ms overhead.
HALF_DSRC = tuple(v - 300.0 for v in PRINTED[4])
HALF_CV2X = tuple(v - 300.0 for v in PRINTED[5])
HALF_CELL = tuple(v - 300.0 for v in PRINTED[6])

NON_CAMERA = (LinkTech.DSRC, LinkTech.CV2X, LinkTech.CELL_MQTT)


def test_embedded_default_matches_transcription():
    assert DEFAULT_COMPOSED_DELAYS_MS == PRINTED


class TestDeriveHalfDelays:
    def test_halves_at_zero_kmh(self):
        table = LatencyModel.from_composed(PRINTED)
        assert table.half_ms[LinkTech.DSRC][0] == pytest.approx(1.728)
        assert table.half_ms[LinkTech.CV2X][0] == pytest.approx(3.742)
        assert table.half_ms[LinkTech.CELL_MQTT][0] == pytest.approx(41.659)
        # over-determination check: row 1 recomposes to the printed cell
        assert 1.728 + 3.742 == pytest.approx(PRINTED[0][0])

    def test_halves_at_120_kmh(self):
        table = LatencyModel.from_composed(PRINTED)
        assert table.half_ms[LinkTech.DSRC][4] == pytest.approx(7.122)
        assert table.half_ms[LinkTech.CV2X][4] == pytest.approx(5.452)
        assert table.half_ms[LinkTech.CELL_MQTT][4] == pytest.approx(82.741)
        assert 2 * 82.741 == pytest.approx(PRINTED[3][4])

    def test_all_halves_match_hand_derivation(self):
        table = LatencyModel.from_composed(PRINTED)
        for j in range(5):
            assert table.half_ms[LinkTech.DSRC][j] == pytest.approx(HALF_DSRC[j])
            assert table.half_ms[LinkTech.CV2X][j] == pytest.approx(HALF_CV2X[j])
            assert table.half_ms[LinkTech.CELL_MQTT][j] == pytest.approx(
                HALF_CELL[j]
            )

    def test_residuals_within_two_thousandths(self):
        residuals = recomposition_residuals(PRINTED)
        worst = max(itertools.chain.from_iterable(residuals))
        assert worst <= 0.002, f"max recomposition residual {worst:.6f} ms"

    def test_perturbed_cell_rejected(self):
        altered = [list(row) for row in PRINTED]
        altered[0][0] = 9.000  # true recomposition is 5.470
        with pytest.raises(InconsistentDelayTable) as excinfo:
            LatencyModel.from_composed(altered)
        message = str(excinfo.value)
        assert "row 1" in message and "0 km/h" in message
        # residual named in the error: 9.000 - 5.470 = 3.530
        assert "3.530" in message


class TestHalfDelay:
    def test_exact_at_samples(self):
        model = LatencyModel.default()
        assert model.half_delay(LinkTech.DSRC, 0.0) == pytest.approx(1.728)
        assert model.half_delay(LinkTech.CELL_MQTT, 90.0) == pytest.approx(
            78.275
        )

    def test_linear_midpoint(self):
        model = LatencyModel.default()
        expected = (HALF_DSRC[0] + HALF_DSRC[1]) / 2.0  # 2.4565
        assert expected == pytest.approx(2.4565)
        assert model.half_delay(LinkTech.DSRC, 15.0) == pytest.approx(expected)

    def test_clamps_above_table_with_warning(self):
        model = LatencyModel.default()
        with pytest.warns(SpeedClampWarning):
            value = model.half_delay(LinkTech.CELL_MQTT, 150.0)
        assert value == pytest.approx(82.741)

    def test_camera_has_no_half_rtt(self):
        model = LatencyModel.default()
        with pytest.raises(ValueError, match="camera has no half-RTT"):
            model.half_delay(LinkTech.CAMERA, 0.0)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel.default().half_delay(LinkTech.DSRC, -1.0)


class TestComposedDelay:
    @pytest.mark.parametrize("row,col", [
        (r, c) for r in range(7) for c in range(5)
    ])
    def test_recomposition_of_every_printed_cell(self, row, col):
        model = LatencyModel.default()
        up, down = PAIR_ROWS[row]
        value = model.composed_delay(up, down, SPEEDS_KMH[col])
        assert value == pytest.approx(PRINTED[row][col], abs=0.01)

    def test_row1_exact(self):
        model = LatencyModel.default()
        assert model.composed_delay(
            LinkTech.DSRC, LinkTech.CV2X, 0.0
        ) == pytest.approx(5.470)

    def test_camera_cell_120(self):
        model = LatencyModel.default()
        assert model.composed_delay(
            LinkTech.CAMERA, LinkTech.CELL_MQTT, 120.0
        ) == pytest.approx(382.741)

    def test_cell_cell_30_within_rounding(self):
        model = LatencyModel.default()
        value = model.composed_delay(
            LinkTech.CELL_MQTT, LinkTech.CELL_MQTT, 30.0
        )
        assert value == pytest.approx(115.469, abs=0.0011)

    def test_camera_downlink_rejected(self):
        with pytest.raises(ValueError, match="downlink"):
            LatencyModel.default().composed_delay(
                LinkTech.DSRC, LinkTech.CAMERA, 0.0
            )

    def test_monotone_in_speed_for_every_pair(self):
        model = LatencyModel.default()
        speeds = [0, 7.5, 15, 30, 44, 60, 75, 90, 100, 110, 120]
        for up, down in PAIR_ROWS:
            values = [model.composed_delay(up, down, v) for v in speeds]
            assert all(
                b >= a - 1e-12 for a, b in zip(values, values[1:])
            ), f"{up.value}->{down.value} not monotone"

    def test_camera_offset_identity(self):
        # composed(Cam, X, v) - composed(DSRC, X, v) = 300 - half(DSRC, v)
        model = LatencyModel.default()
        for down in NON_CAMERA:
            for v in (0, 12, 30, 66, 90, 120):
                lhs = model.composed_delay(
                    LinkTech.CAMERA, down, v
                ) - model.composed_delay(LinkTech.DSRC, down, v)
                rhs = 300.0 - model.half_delay(LinkTech.DSRC, v)
                assert lhs == pytest.approx(rhs, abs=1e-9)


class TestClassify:
    @pytest.mark.parametrize("delay,expected", [
        (5.470, DelayCategory.NEAR_REAL_TIME),
        (99.999, DelayCategory.NEAR_REAL_TIME),
        (100.0, DelayCategory.REDUCED_LATENCY),
        (341.659, DelayCategory.REDUCED_LATENCY),
        (599.999, DelayCategory.REDUCED_LATENCY),
        (600.0, DelayCategory.UNSERVICEABLE),
        (10_000.0, DelayCategory.UNSERVICEABLE),
    ])
    def test_boundaries(self, delay, expected):
        assert classify(delay) is expected

    def test_partition_exactly_one_category(self):
        for delay in [x * 0.7 for x in range(0, 2000)]:
            categories = [
                c for c in DelayCategory if classify(delay) is c
            ]
            assert len(categories) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify(-0.001)


class TestServiceability:
    def test_dsrc_cv2x_serves_all_six(self):
        model = LatencyModel.default()
        apps = model.serviceable_apps(
            LinkTech.DSRC, LinkTech.CV2X, (0.0, 120.0)
        )
        assert {a.name for a in apps} == {
            "EEBL", "FCW", "IMA", "BSW", "LCW", "DNPW"
        }
        assert model.max_composed_delay(
            LinkTech.DSRC, LinkTech.CV2X, 0.0, 120.0
        ) == pytest.approx(12.574)

    def test_cell_cell_time_sensitive_only(self):
        model = LatencyModel.default()
        apps = model.serviceable_apps(
            LinkTech.CELL_MQTT, LinkTech.CELL_MQTT, (0.0, 120.0)
        )
        assert {a.name for a in apps} == {"BSW", "LCW", "DNPW"}
        assert model.max_composed_delay(
            LinkTech.CELL_MQTT, LinkTech.CELL_MQTT, 0.0, 120.0
        ) == pytest.approx(165.482)

    def test_camera_dsrc_stationary(self):
        model = LatencyModel.default()
        apps = model.serviceable_apps(
            LinkTech.CAMERA, LinkTech.DSRC, (0.0, 0.0)
        )
        assert {a.name for a in apps} == {"BSW", "LCW", "DNPW"}

    def test_time_critical_implies_time_sensitive(self):
        model = LatencyModel.default()
        pairs = [(u, d) for u in list(NON_CAMERA) + [LinkTech.CAMERA]
                 for d in NON_CAMERA]
        for up, down in pairs:
            apps = model.serviceable_apps(up, down, (0.0, 120.0))
            names = {a.name for a in apps}
            if names & {"EEBL", "FCW", "IMA"}:
                assert {"BSW", "LCW", "DNPW"} <= names

    def test_nothing_served_at_or_beyond_max_itt(self):
        # a synthetic table whose composed delays exceed 600 ms
        slow = [[v for v in row] for row in PRINTED]
        for j in range(5):
            slow[6][j] = 900.0 + j  # half(Cell) = 600+j
            slow[1][j] = slow[4][j] - 300.0 + 600.0 + j
            slow[2][j] = slow[5][j] - 300.0 + 600.0 + j
            slow[3][j] = 2 * (600.0 + j)
        model = LatencyModel.from_composed(slow)
        apps = model.serviceable_apps(
            LinkTech.CELL_MQTT, LinkTech.CELL_MQTT, (0.0, 120.0)
        )
        assert apps == frozenset()

    def test_app_catalogue(self):
        critical = {a.name for a in SAFETY_APPS
                    if a.category is AppCategory.TIME_CRITICAL}
        sensitive = {a.name for a in SAFETY_APPS
                     if a.category is AppCategory.TIME_SENSITIVE}
        assert critical == {"EEBL", "FCW", "IMA"}
        assert sensitive == {"BSW", "LCW", "DNPW"}
        for a in SAFETY_APPS:
            expected = 100.0 if a.category is AppCategory.TIME_CRITICAL else 1000.0
            assert a.max_latency_ms == expected
        assert MAX_ITT_MS == 600.0


class TestTableInvariants:
    def test_half_rtt_must_be_positive(self):
        altered = [list(row) for row in PRINTED]
        altered[4][0] = 299.0  # half(DSRC) would be -1 ms
        altered[0][0] = (altered[4][0] - 300.0) + HALF_CV2X[0]
        altered[1][0] = (altered[4][0] - 300.0) + HALF_CELL[0]
        with pytest.raises(ValueError, match="positive"):
            LatencyModel.from_composed(altered)

    def test_half_rtt_must_not_decrease_with_speed(self):
        altered = [list(row) for row in PRINTED]
        altered[6][4] = altered[6][3] - 5.0  # Cell half drops at 120
        altered[1][4] = HALF_DSRC[4] + (altered[6][4] - 300.0)
        altered[2][4] = HALF_CV2X[4] + (altered[6][4] - 300.0)
        altered[3][4] = 2 * (altered[6][4] - 300.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            LatencyModel.from_composed(altered)


class TestCsv:
    def test_emit_then_load_round_trip(self, tmp_path):
        model = LatencyModel.default()
        rows = list(composed_csv_rows(model.composed_matrix()))
        path = tmp_path / "table.csv"
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")
        loaded = load_composed_csv(path)
        reloaded = LatencyModel.from_composed(loaded)
        for tech in NON_CAMERA:
            for j in range(5):
                assert reloaded.half_ms[tech][j] == pytest.approx(
                    model.half_ms[tech][j], abs=0.002
                )

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_composed_csv(path)

    def test_wrong_row_label_rejected(self, tmp_path):
        rows = list(composed_csv_rows(DEFAULT_COMPOSED_DELAYS_MS))
        rows[1][0] = "Cell"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")
        with pytest.raises(ValueError, match="row 1"):
            load_composed_csv(path)
