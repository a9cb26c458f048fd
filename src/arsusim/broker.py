"""Simulated four-topic publish/subscribe broker.

The broker owns subscriptions and the delivery log but no timing: every
delay is supplied by the caller (one cellular half-RTT per road-user
leg). A road user publishing pays one leg to reach the broker; each
road-user subscriber pays one more leg; the gateway's own link to the
broker is free in both directions, mirroring how the composed-delay
table books exactly one cellular half per bridged direction.

Delivery is deterministic and loss-free by default; a drop probability
can be configured for lossy experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .messages import MqttEnvelope, Topic

#: Client identity of the gateway on the broker.
ARSU_CLIENT = "A-RSU"

#: Topics only the gateway may publish to; road users own Cell.
_ARSU_TOPICS = frozenset({Topic.IPU, Topic.DSRC, Topic.CV2X})


class TopicOwnershipError(ValueError):
    """Publisher attempted a topic it does not own."""


@dataclass(frozen=True)
class Delivery:
    envelope: MqttEnvelope
    publisher: str
    recipient: str
    published_at_us: int
    delivered_at_us: int


class Broker:
    def __init__(
        self,
        arsu_client: str = ARSU_CLIENT,
        drop_probability: float = 0.0,
        rng=None,
    ):
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")
        if drop_probability > 0.0 and rng is None:
            raise ValueError("a seeded rng is required when drops are enabled")
        self.arsu_client = arsu_client
        self.drop_probability = drop_probability
        self._rng = rng
        # Insertion-ordered: (client, topic) pairs drive fan-out order.
        self._subscriptions: list[tuple[str, Topic]] = []
        self._subscribed: set[tuple[str, Topic]] = set()
        self.delivery_log: list[Delivery] = []
        self.publish_count = 0
        self.drop_count = 0
        self._published_topics: dict[str, set[Topic]] = {}

    def subscribe(self, client: str, topic: Topic, now_us: int) -> bool:
        """Register interest; duplicates are no-ops. Returns True if new."""
        if not isinstance(topic, Topic):
            raise ValueError(f"unknown topic {topic!r}")
        key = (client, topic)
        if key in self._subscribed:
            return False
        self._subscribed.add(key)
        self._subscriptions.append(key)
        return True

    def subscriptions_of(self, client: str) -> set[Topic]:
        return {t for c, t in self._subscribed if c == client}

    def published_topics_of(self, publisher: str) -> set[Topic]:
        return set(self._published_topics.get(publisher, set()))

    def publish(
        self,
        publisher: str,
        envelope: MqttEnvelope,
        now_us: int,
        user_leg_delay_us,
    ) -> list[Delivery]:
        """Fan a message out to the topic's current subscribers.

        Exactly one delivery per subscriber, excluding the publisher
        itself. Delivery time is ``now`` plus one cellular leg delay per
        road-user endpoint on the path (0, 1 or 2 legs); the gateway's
        side of the broker is free. ``user_leg_delay_us`` is either an
        integer (one delay for everyone) or a callable mapping a client
        id to its leg delay.
        """
        topic = envelope.topic
        if publisher == self.arsu_client:
            if topic not in _ARSU_TOPICS:
                raise TopicOwnershipError(
                    f"{publisher} may not publish to topic {topic.value}"
                )
        elif topic is not Topic.CELL:
            raise TopicOwnershipError(
                f"road user {publisher} may only publish to topic "
                f"{Topic.CELL.value}, not {topic.value}"
            )
        if callable(user_leg_delay_us):
            leg_of = user_leg_delay_us
        else:
            def leg_of(client: str, fixed=int(user_leg_delay_us)) -> int:
                return fixed

        self.publish_count += 1
        self._published_topics.setdefault(publisher, set()).add(topic)
        uplink_us = 0 if publisher == self.arsu_client else leg_of(publisher)
        deliveries = []
        for client, sub_topic in self._subscriptions:
            if sub_topic is not topic or client == publisher:
                continue
            if self.drop_probability > 0.0 and (
                self._rng.random() < self.drop_probability
            ):
                self.drop_count += 1
                continue
            downlink_us = 0 if client == self.arsu_client else leg_of(client)
            delivery = Delivery(
                envelope=envelope,
                publisher=publisher,
                recipient=client,
                published_at_us=now_us,
                delivered_at_us=now_us + uplink_us + downlink_us,
            )
            self.delivery_log.append(delivery)
            deliveries.append(delivery)
        return deliveries
