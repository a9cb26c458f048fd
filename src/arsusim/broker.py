"""Simulated four-topic publish/subscribe broker.

The broker owns subscriptions (by topic), topic ownership, drop draws,
its counters and the delivery log. It keeps no clock: when a delivery
arrives is the simulation's to work out, from plans it fixes at setup.

Delivery is deterministic and loss-free by default; a drop probability
can be configured for lossy experiments. A publish is one batch: the
drop draws for all of the topic's subscribers (the publisher excluded)
are taken in one ``rng.random(k)`` call, in subscription order, which
gives the same doubles as ``k`` scalar draws. ``publish`` returns the
kept recipients as a tuple, in subscription order: the topic's cached
tuple of subscribers, sliced around the publisher when it subscribes to
its own topic.
``Broker.delivery_log`` is a sink that holds nothing by default
(``NO_LOG``): a publish then pays one identity check for it, and
``len()`` of it is 0. Attach a collecting ``DeliveryLog`` before a run
to keep one ``(envelope, publisher, recipients)`` record per publish that
delivered; it expands them into ``Delivery`` records only when read.
"""

from __future__ import annotations

from collections.abc import Iterator
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


#: ``Broker.delivery_log`` while nothing collects: empty, and it stays so.
NO_LOG: tuple = ()


class DeliveryLog:
    """A collector of every delivery the broker made, one ``Delivery``
    each, in order; held as one ``(envelope, publisher, recipients)``
    record per publish that delivered. Attach it as
    ``Broker.delivery_log`` before the run."""

    def __init__(self):
        self.publishes: list[tuple[MqttEnvelope, str, tuple[str, ...]]] = []

    def __len__(self) -> int:
        return sum(len(recipients) for _, _, recipients in self.publishes)

    def __iter__(self) -> Iterator[Delivery]:
        for envelope, publisher, recipients in self.publishes:
            for recipient in recipients:
                yield Delivery(envelope, publisher, recipient,
                               envelope.published_at_us)


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
        #: Each topic's subscribers as a tuple, taken at its first publish.
        self._recipients: dict[Topic, tuple[str, ...]] = {}
        self.delivery_log: DeliveryLog | tuple = NO_LOG
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
        self._recipients.pop(topic, None)
        return True

    def subscriptions_of(self, client: str) -> set[Topic]:
        return {
            topic for topic, clients in self._subscribers.items()
            if client in clients
        }

    def published_topics_of(self, publisher: str) -> set[Topic]:
        return set(self._published_topics.get(publisher, set()))

    def publish(
        self, publisher: str, envelope: MqttEnvelope
    ) -> tuple[str, ...]:
        """Fan a message out to the topic's current subscribers; return
        the recipients kept, in subscription order.

        At most one delivery per subscriber, excluding the publisher
        itself.
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
        published = self._published_topics.get(publisher)
        if published is None:
            published = self._published_topics[publisher] = set()
        published.add(topic)
        subscribers = self._subscribers[topic]
        recipients = self._recipients.get(topic)
        if recipients is None:
            recipients = self._recipients[topic] = tuple(subscribers)
        if publisher in subscribers:
            at = recipients.index(publisher)
            recipients = recipients[:at] + recipients[at + 1:]
        if self.drop_probability > 0.0 and recipients:
            kept = self._rng.random(len(recipients)) >= self.drop_probability
            survivors = tuple(compress(recipients, kept.tolist()))
            self.drop_count += len(recipients) - len(survivors)
            recipients = survivors
        if self.delivery_log is not NO_LOG and recipients:
            self.delivery_log.publishes.append(
                (envelope, publisher, recipients))
        return recipients
