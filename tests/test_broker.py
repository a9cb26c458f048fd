import numpy as np
import pytest

from arsusim.broker import ARSU_CLIENT, Broker, TopicOwnershipError
from arsusim.messages import MqttEnvelope, Topic

from conftest import bsm_at


#: A 1 ms leg for every road-user client the tests use.
LEGS = {"U3": 1000, "U4": 1000, "U5": 1000}


def _cell_envelope(user="U3", now=0):
    return MqttEnvelope(
        Topic.CELL, bsm_at(user, tech=_cell_tech(), now_us=now), now
    )


def _cell_tech():
    from arsusim.messages import LinkTech
    return LinkTech.CELL_MQTT


def _arsu_envelope(topic=Topic.DSRC, user="U1", now=0):
    return MqttEnvelope(topic, bsm_at(user, now_us=now), now)


class TestSubscribe:
    def test_nonnative_user_subscribes_all_four(self):
        broker = Broker()
        for topic in Topic:
            broker.subscribe("U3", topic)
        assert broker.subscriptions_of("U3") == set(Topic)

    def test_arsu_subscribes_cell_only(self):
        broker = Broker()
        broker.subscribe(ARSU_CLIENT, Topic.CELL)
        assert broker.subscriptions_of(ARSU_CLIENT) == {Topic.CELL}

    def test_duplicate_subscribe_is_idempotent(self):
        broker = Broker()
        assert broker.subscribe("U2", Topic.IPU) is True
        assert broker.subscribe("U2", Topic.IPU) is False
        deliveries = broker.publish(
            ARSU_CLIENT, _arsu_envelope(Topic.IPU), 0, {"U2": 0}
        )
        assert [d.recipient for d in deliveries] == ["U2"]

    def test_unknown_topic_rejected(self):
        with pytest.raises(ValueError):
            Broker().subscribe("U2", "Bogus")


class TestPublish:
    def test_fan_out_counts_subscribers(self):
        broker = Broker()
        broker.subscribe("U3", Topic.IPU)
        broker.subscribe("U4", Topic.IPU)
        deliveries = broker.publish(
            ARSU_CLIENT, _arsu_envelope(Topic.IPU), 0, LEGS
        )
        assert [d.recipient for d in deliveries] == ["U3", "U4"]

    def test_cell_publish_reaches_arsu_in_one_leg(self):
        broker = Broker()
        broker.subscribe(ARSU_CLIENT, Topic.CELL)
        deliveries = broker.publish(
            "U3", _cell_envelope(), 10_000, {"U3": 41_659}
        )
        assert len(deliveries) == 1
        d = deliveries[0]
        assert d.recipient == ARSU_CLIENT
        assert d.delivered_at_us == 10_000 + 41_659

    def test_user_to_user_pays_two_legs(self):
        broker = Broker()
        broker.subscribe(ARSU_CLIENT, Topic.CELL)
        broker.subscribe("U4", Topic.CELL)
        deliveries = broker.publish(
            "U3", _cell_envelope(), 0, {"U3": 41_659, "U4": 41_659}
        )
        by_recipient = {d.recipient: d.delivered_at_us for d in deliveries}
        assert by_recipient[ARSU_CLIENT] == 41_659
        assert by_recipient["U4"] == 2 * 41_659

    def test_arsu_publish_pays_one_leg_per_user(self):
        broker = Broker()
        broker.subscribe("U3", Topic.DSRC)
        deliveries = broker.publish(
            ARSU_CLIENT, _arsu_envelope(), 500, {"U3": 41_659}
        )
        assert deliveries[0].delivered_at_us == 500 + 41_659

    def test_no_self_delivery(self):
        broker = Broker()
        broker.subscribe("U3", Topic.CELL)
        broker.subscribe("U4", Topic.CELL)
        deliveries = broker.publish("U3", _cell_envelope(), 0, LEGS)
        assert [d.recipient for d in deliveries] == ["U4"]

    def test_road_user_cannot_publish_to_gateway_topics(self):
        broker = Broker()
        for topic in (Topic.IPU, Topic.DSRC, Topic.CV2X):
            with pytest.raises(TopicOwnershipError):
                broker.publish(
                    "U3", MqttEnvelope(topic, bsm_at("U3"), 0), 0, LEGS
                )

    def test_gateway_cannot_publish_to_cell(self):
        broker = Broker()
        with pytest.raises(TopicOwnershipError):
            broker.publish(ARSU_CLIENT, _cell_envelope(), 0, LEGS)

    def test_per_client_leg_delays(self):
        broker = Broker()
        broker.subscribe(ARSU_CLIENT, Topic.CELL)
        broker.subscribe("U4", Topic.CELL)
        legs = {"U3": 1000, "U4": 7000}
        deliveries = broker.publish("U3", _cell_envelope(), 0, legs)
        by_recipient = {d.recipient: d.delivered_at_us for d in deliveries}
        assert by_recipient[ARSU_CLIENT] == 1000  # publisher leg only
        assert by_recipient["U4"] == 1000 + 7000

    def test_subscription_snapshot_at_publish(self):
        broker = Broker()
        broker.subscribe("U4", Topic.CELL)
        deliveries = broker.publish("U3", _cell_envelope(), 0, LEGS)
        broker.subscribe("U5", Topic.CELL)  # too late for that publish
        assert [d.recipient for d in deliveries] == ["U4"]

    def test_drop_probability_drops_deterministically(self):
        rng = np.random.default_rng(3)
        broker = Broker(drop_probability=1.0, rng=rng)
        broker.subscribe("U4", Topic.CELL)
        assert broker.publish("U3", _cell_envelope(), 0, LEGS) == []
        assert broker.drop_count == 1
