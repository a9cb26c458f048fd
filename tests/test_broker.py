import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arsusim.broker import (
    ARSU_CLIENT,
    Broker,
    TopicOwnershipError,
)
from arsusim.messages import MqttEnvelope, Topic

from conftest import bsm_at


def _cell_envelope(user="U3", now=0):
    return MqttEnvelope(
        Topic.CELL, bsm_at(user, tech=_cell_tech(), now_us=now), now
    )


def _cell_tech():
    from arsusim.messages import LinkTech
    return LinkTech.CELL_MQTT


def _arsu_envelope(topic=Topic.DSRC, user="U1", now=0):
    return MqttEnvelope(topic, bsm_at(user, now_us=now), now)


def _interleaved_broker(drop_probability=0.0, rng=None):
    """U3, U5 and U6 on IPU, with U4 and the gateway on Cell between."""
    broker = Broker(drop_probability=drop_probability, rng=rng)
    broker.subscribe("U3", Topic.IPU)
    broker.subscribe("U4", Topic.CELL)
    broker.subscribe("U5", Topic.IPU)
    broker.subscribe(ARSU_CLIENT, Topic.CELL)
    broker.subscribe("U6", Topic.IPU)
    return broker


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
        deliveries = broker.publish(ARSU_CLIENT, _arsu_envelope(Topic.IPU))
        assert deliveries == ("U2",)

    def test_unknown_topic_rejected(self):
        with pytest.raises(ValueError):
            Broker().subscribe("U2", "Bogus")


class TestPublish:
    def test_fan_out_counts_subscribers(self):
        broker = Broker()
        broker.subscribe("U3", Topic.IPU)
        broker.subscribe("U4", Topic.IPU)
        deliveries = broker.publish(ARSU_CLIENT, _arsu_envelope(Topic.IPU))
        assert deliveries == ("U3", "U4")
        # Subscriptions interleaved across topics: only the topic's own
        # subscribers, in subscription order.
        deliveries = _interleaved_broker().publish(
            ARSU_CLIENT, _arsu_envelope(Topic.IPU)
        )
        assert deliveries == ("U3", "U5", "U6")

    @pytest.mark.parametrize("seed", range(8))
    def test_drop_draws_follow_subscription_order(self, seed):
        broker = _interleaved_broker(0.5, np.random.default_rng(seed))
        deliveries = broker.publish(ARSU_CLIENT, _arsu_envelope(Topic.IPU))
        draws = np.random.default_rng(seed).random(3)
        assert list(deliveries) == [
            c for c, x in zip(["U3", "U5", "U6"], draws) if x >= 0.5
        ]
        assert broker.drop_count == sum(1 for x in draws if x < 0.5)

    def test_no_self_delivery(self):
        broker = Broker()
        broker.subscribe("U3", Topic.CELL)
        broker.subscribe("U4", Topic.CELL)
        deliveries = broker.publish("U3", _cell_envelope())
        assert deliveries == ("U4",)

    def test_road_user_cannot_publish_to_gateway_topics(self):
        broker = Broker()
        for topic in (Topic.IPU, Topic.DSRC, Topic.CV2X):
            with pytest.raises(TopicOwnershipError):
                broker.publish("U3", MqttEnvelope(topic, bsm_at("U3"), 0))

    def test_gateway_cannot_publish_to_cell(self):
        broker = Broker()
        with pytest.raises(TopicOwnershipError):
            broker.publish(ARSU_CLIENT, _cell_envelope())

    def test_subscription_snapshot_at_publish(self):
        broker = Broker()
        broker.subscribe("U4", Topic.CELL)
        deliveries = broker.publish("U3", _cell_envelope())
        broker.subscribe("U5", Topic.CELL)  # too late for that publish
        assert deliveries == ("U4",)

    def test_drop_probability_drops_deterministically(self):
        rng = np.random.default_rng(3)
        broker = Broker(drop_probability=1.0, rng=rng)
        broker.subscribe("U4", Topic.CELL)
        assert len(broker.publish("U3", _cell_envelope())) == 0
        assert broker.drop_count == 1


def _reference_publish(subscribers, publisher, p, rng):
    """One publish worked out one subscriber at a time, with one scalar
    drop draw each: the recipients kept and the drops."""
    kept, drops = [], 0
    for client in subscribers:
        if client == publisher:
            continue
        if p > 0.0 and rng.random() < p:
            drops += 1
            continue
        kept.append(client)
    return kept, drops


_ROAD_USERS = [f"U{i}" for i in range(8)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_batched_draws_match_scalar_reference(data):
    """Drop draws taken in one batch per publish give the recipients,
    drop count and rng stream of one scalar draw per subscriber."""
    topic = data.draw(st.sampled_from(list(Topic)))
    clients = data.draw(st.permutations(_ROAD_USERS + [ARSU_CLIENT]))
    subscribers = clients[:data.draw(st.integers(0, len(clients)))]
    p = data.draw(st.one_of(
        st.sampled_from([0.0, 1.0]),
        st.floats(0.0, 1.0, allow_nan=False),
    ))
    seed = data.draw(st.integers(0, 2**32))
    rng = np.random.default_rng(seed)
    broker = Broker(drop_probability=p, rng=rng)
    for client in subscribers:
        broker.subscribe(client, topic)
    reference_rng = np.random.default_rng(seed)
    reference_drops = 0
    for _ in range(data.draw(st.integers(1, 3))):
        if topic is Topic.CELL:
            publisher = data.draw(st.sampled_from(_ROAD_USERS))
        else:
            publisher = ARSU_CLIENT
        now = data.draw(st.integers(0, 10**9))
        envelope = MqttEnvelope(topic, bsm_at("U0", now_us=now), now)
        recipients = broker.publish(publisher, envelope)
        kept, drops = _reference_publish(
            subscribers, publisher, p, reference_rng
        )
        reference_drops += drops
        assert recipients == tuple(kept)
        assert broker.drop_count == reference_drops
    assert rng.random() == reference_rng.random()
