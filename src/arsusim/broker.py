"""Simulated four-topic publish/subscribe broker.

The broker owns subscriptions (by topic) and the delivery log but no
timing: the caller supplies one mapping from each road user's client id
to its leg delay (its cellular half-RTT). A road user publishing pays
its leg to reach the broker; each road-user subscriber pays its own leg;
the gateway's own link to the broker is free in both directions,
mirroring how the composed-delay table books exactly one cellular half
per bridged direction.

Delivery is deterministic and loss-free by default; a drop probability
can be configured for lossy experiments. A publish is one batch: the
drop draws for all of the topic's subscribers (the publisher excluded)
are taken in one ``rng.random(k)`` call, in subscription order, which
gives the same doubles as ``k`` scalar draws. It returns one ``FanOut``:
the envelope, the publisher, the publish time and the kept recipients.
``Broker.delivery_log`` holds these records, one per publish that
delivered, and expands them into ``Delivery`` records only when read.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from itertools import compress
from typing import NamedTuple

from .messages import MqttEnvelope, Topic

#: Client identity of the gateway on the broker.
ARSU_CLIENT = "A-RSU"

#: Topics only the gateway may publish to; road users own Cell.
_ARSU_TOPICS = frozenset({Topic.IPU, Topic.DSRC, Topic.CV2X})


class TopicOwnershipError(ValueError):
    """Publisher attempted a topic it does not own."""


class Delivery(NamedTuple):
    envelope: MqttEnvelope
    publisher: str
    recipient: str
    published_at_us: int
    delivered_at_us: int


@dataclass(slots=True)
class FanOut:
    """One publish: its envelope, publisher and time, and the recipients
    it reached, in fan-out order. Its ``len()`` is the number of
    deliveries; iterating it yields one ``Delivery`` per recipient.

    Delivery times are worked out from the publish's leg mapping when
    asked, so that mapping must not change afterwards.
    """

    envelope: MqttEnvelope
    publisher: str
    published_at_us: int
    recipients: tuple[str, ...]
    legs_us: Mapping[str, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.recipients)

    def delivered_at_us(self) -> list[int]:
        """Each recipient's delivery time (µs), in recipient order: the
        publish time plus the legs of the road users at either end."""
        legs = self.legs_us
        sent_us = self.published_at_us
        if self.publisher != ARSU_CLIENT:
            sent_us += legs[self.publisher]
        return [
            sent_us if client == ARSU_CLIENT else sent_us + legs[client]
            for client in self.recipients
        ]

    def __iter__(self) -> Iterator[Delivery]:
        for recipient, at_us in zip(self.recipients, self.delivered_at_us()):
            yield Delivery(self.envelope, self.publisher, recipient,
                           self.published_at_us, at_us)


class DeliveryLog:
    """Every delivery the broker made, one ``Delivery`` each, in order;
    held as one ``FanOut`` per publish that delivered. Its length is a
    running count; it is read only by iteration."""

    def __init__(self):
        self.fan_outs: list[FanOut] = []
        self.delivered = 0

    def __len__(self) -> int:
        return self.delivered

    def __iter__(self) -> Iterator[Delivery]:
        for fan_out in self.fan_outs:
            yield from fan_out


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
        self.delivery_log = DeliveryLog()
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
    ) -> FanOut:
        """Fan a message out to the topic's current subscribers.

        At most one delivery per subscriber, excluding the publisher
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
        recipients = tuple(
            c for c in self._subscribers[topic] if c != publisher
        )
        if self.drop_probability > 0.0 and recipients:
            kept = self._rng.random(len(recipients)) >= self.drop_probability
            survivors = tuple(compress(recipients, kept.tolist()))
            self.drop_count += len(recipients) - len(survivors)
            recipients = survivors
        fan_out = FanOut(envelope, publisher, now_us, recipients, legs_us)
        if recipients:
            log = self.delivery_log
            log.fan_outs.append(fan_out)
            log.delivered += len(recipients)
        return fan_out
