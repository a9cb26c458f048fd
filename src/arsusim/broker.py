"""Simulated four-topic publish/subscribe broker.

The broker owns subscriptions (by topic) and the delivery log but no
timing: the caller supplies one mapping from each road user's client id
to its leg delay (its cellular half-RTT). A road user publishing pays
its leg to reach the broker; each road-user subscriber pays its own leg;
the gateway's own link to the broker is free in both directions,
mirroring how the composed-delay table books exactly one cellular half
per bridged direction.

Delivery is deterministic and loss-free by default; a drop probability
can be configured for lossy experiments.
"""

from __future__ import annotations

from collections.abc import Mapping
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
    def __init__(self, drop_probability: float = 0.0, rng=None):
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")
        if drop_probability > 0.0 and rng is None:
            raise ValueError("a seeded rng is required when drops are enabled")
        self.drop_probability = drop_probability
        self._rng = rng
        # Each topic's subscribers, in subscription order: the fan-out order.
        self._subscribers: dict[Topic, dict[str, None]] = {
            topic: {} for topic in Topic
        }
        self.delivery_log: list[Delivery] = []
        self.publish_count = 0
        self.drop_count = 0
        self._published_topics: dict[str, set[Topic]] = {}

    def subscribe(self, client: str, topic: Topic) -> bool:
        """Register interest; duplicates are no-ops. Returns True if new."""
        if not isinstance(topic, Topic):
            raise ValueError(f"unknown topic {topic!r}")
        subscribers = self._subscribers[topic]
        if client in subscribers:
            return False
        subscribers[client] = None
        return True

    def subscriptions_of(self, client: str) -> set[Topic]:
        return {
            topic for topic, clients in self._subscribers.items()
            if client in clients
        }

    def published_topics_of(self, publisher: str) -> set[Topic]:
        return set(self._published_topics.get(publisher, set()))

    def publish(
        self,
        publisher: str,
        envelope: MqttEnvelope,
        now_us: int,
        legs_us: Mapping[str, int],
    ) -> list[Delivery]:
        """Fan a message out to the topic's current subscribers.

        Exactly one delivery per subscriber, excluding the publisher
        itself. Delivery time is ``now`` plus the leg delay
        ``legs_us[client]`` of each road-user endpoint on the path (0, 1
        or 2 legs); the gateway's side of the broker is free.
        """
        topic = envelope.topic
        if publisher == ARSU_CLIENT:
            if topic not in _ARSU_TOPICS:
                raise TopicOwnershipError(
                    f"{publisher} may not publish to topic {topic.value}"
                )
        elif topic is not Topic.CELL:
            raise TopicOwnershipError(
                f"road user {publisher} may only publish to topic "
                f"{Topic.CELL.value}, not {topic.value}"
            )
        self.publish_count += 1
        self._published_topics.setdefault(publisher, set()).add(topic)
        uplink_us = 0 if publisher == ARSU_CLIENT else legs_us[publisher]
        deliveries = []
        for client in self._subscribers[topic]:
            if client == publisher:
                continue
            if self.drop_probability > 0.0 and (
                self._rng.random() < self.drop_probability
            ):
                self.drop_count += 1
                continue
            downlink_us = 0 if client == ARSU_CLIENT else legs_us[client]
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
