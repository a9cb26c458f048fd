"""A run's trace: the tape it is held as, the words of every row, and
the one writer of ``trace.csv``.

A trace row is ``(at_ms, kind, actor, subject, detail)``, one per event,
under ``TRACE_HEADER``. The simulation hands ``TraceRows`` facts, not
text, and the tape keeps them compactly: one kind byte per entry, in
event order, in ``_kinds``; each entry's integers (its instant first) in
``_ints``, its floats in ``_floats``, and references to objects the run
already shares in ``_refs``:

- BsmTx: the user's index; the reported latitude and longitude.
- IpuFrame: the detection count.
- A frame's DetectionReady rows: their count; per detection, its
  subject and its detail.
- A gateway arrival: its ``(kind, detail)`` label and the BSM's subject.
- GraceDeadline: the track id; its detail.
- MetricsTick: the coverage, NaN for none.
- A delivery record: its generation time; its receivers (the plan
  group, or a cut group's bitmask), subjects and duplicate flags, a
  receiver bitmask for each BSM some receiver already had, by position.

A detail or label is built once per distinct value, so entries share
it; the caches are bounded by users and tracks. Nothing is formatted
while the run goes: the tape supports only ``len()``, a running count,
and iteration, which formats each instant's ``at_ms`` once and each
delivery path's label once per latency.
"""

from __future__ import annotations

import csv
import math
from array import array
from collections.abc import Iterable, Iterator
from itertools import compress, repeat
from typing import Optional, TextIO

from .broker import ARSU_CLIENT
from .gateway import GENERATION_TARGETS, DetectionOutcome
from .geo import LocalFrame
from .messages import Detection, LinkTech, Position, Topic, us_to_ms

TRACE_HEADER = ("at_ms", "kind", "actor", "subject", "detail")

#: Tape entry kinds, one byte per entry. A delivery record's kind is
#: ``_DELIVERY`` plus the number of its (uplink, downlink, topic) path.
_BSM_TX, _IPU_FRAME, _DETECTIONS, _GATEWAY_RX, _GRACE, _TICK, _DELIVERY = (
    range(7))

#: A confirmation's GraceDeadline detail.
_CONFIRMED = f"confirmed NonConnected actions={len(GENERATION_TARGETS)}"


class TraceRows:
    def __init__(self, user_ids: list[str], frame: LocalFrame):
        self._ids = user_ids
        self._frame = frame
        self._kinds = bytearray()
        self._ints = array("q")
        self._floats = array("d")
        self._refs: list = []
        #: (uplink, downlink, topic) by path number, and the reverse.
        self._paths: list[tuple[LinkTech, LinkTech, Optional[Topic]]] = []
        self._path_numbers: dict[tuple, int] = {}
        #: A detection's detail by (matched id, track id, whether it
        #: generated nothing), and a gateway arrival's label by (medium,
        #: action count).
        self._details: dict[tuple, str] = {}
        self._labels: dict[tuple, tuple[str, str]] = {}
        self._rows = 0

    def __len__(self) -> int:
        return self._rows

    def bsm_tx(self, at_us: int, user_index: int, reported: Position) -> None:
        self._kinds.append(_BSM_TX)
        self._ints.append(at_us)
        self._ints.append(user_index)
        self._floats.append(reported.lat_deg)
        self._floats.append(reported.lon_deg)
        self._rows += 1

    def ipu_frame(self, at_us: int, detections: int) -> None:
        self._kinds.append(_IPU_FRAME)
        self._ints.append(at_us)
        self._ints.append(detections)
        self._rows += 1

    def detections(self, at_us: int, detections: list[Detection],
                   outcomes: list[DetectionOutcome]) -> None:
        """A frame's DetectionReady rows: each detection with the
        gateway's outcome for it."""
        details = self._details
        refs = self._refs
        for detection, outcome in zip(detections, outcomes):
            status, matched_id, track_id, _, generated = outcome
            # Only a match is Connected, and only a refresh generates: the
            # key gives the status without hashing it.
            key = (matched_id, track_id, generated is None)
            detail = details.get(key)
            if detail is None:
                detail = status.value
                if matched_id is not None:
                    detail += f" matched={matched_id}"
                if track_id is not None:
                    detail += f" track={track_id}"
                details[key] = detail
            refs.append(detection.truth_id or "?")
            refs.append(detail)
        self._kinds.append(_DETECTIONS)
        self._ints.append(at_us)
        self._ints.append(len(outcomes))
        self._rows += len(outcomes)

    def gateway_rx(self, at_us: int, medium: LinkTech, actions: int,
                   subject: str) -> None:
        """The gateway heard ``subject``'s BSM over ``medium`` and took
        ``actions`` actions: over Cell, a publish on the Cell topic."""
        key = (medium, actions)
        label = self._labels.get(key)
        if label is None:
            if medium is LinkTech.CELL_MQTT:
                kind, detail = "MqttDelivery", f"topic={Topic.CELL.value}"
            else:
                kind, detail = "RadioDelivery", f"via={medium.value}"
            label = self._labels[key] = (kind, f"{detail} actions={actions}")
        self._kinds.append(_GATEWAY_RX)
        self._ints.append(at_us)
        self._refs.append(label)
        self._refs.append(subject)
        self._rows += 1

    def grace_deadline(self, at_us: int, track_id: int,
                       confirmed: bool) -> None:
        self._kinds.append(_GRACE)
        self._ints.append(at_us)
        self._ints.append(track_id)
        self._refs.append(_CONFIRMED if confirmed else "resolved earlier")
        self._rows += 1

    def metrics_tick(self, at_us: int, coverage: Optional[float]) -> None:
        self._kinds.append(_TICK)
        self._ints.append(at_us)
        self._floats.append(math.nan if coverage is None else coverage)
        self._rows += 1

    def delivery(self, record: tuple, rows: int) -> None:
        """A delivery record, a ``sim.DeliveryGroup``, of ``rows``
        (subject, receiver) pairs."""
        (receivers, subjects, _, uplink, downlink, generated_at_us,
         delivered_at_us, topic, duplicates) = record
        path = (uplink, downlink, topic)
        number = self._path_numbers.get(path)
        if number is None:
            number = self._path_numbers[path] = len(self._paths)
            self._paths.append(path)
        self._kinds.append(_DELIVERY + number)
        self._ints.append(delivered_at_us)
        self._ints.append(generated_at_us)
        self._refs.append(receivers.mask if receivers.cut else receivers)
        self._refs.append(subjects)
        self._refs.append(duplicates)
        self._rows += rows

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        ids = self._ids
        xy_of = self._frame.xy_of
        paths = self._paths
        next_int = iter(self._ints).__next__
        next_float = iter(self._floats).__next__
        next_ref = iter(self._refs).__next__
        #: (kind, detail, duplicate detail) by (path number, latency):
        #: bounded by the run's paths.
        labels: dict[tuple[int, int], tuple[str, str, str]] = {}
        at_us, at_ms = None, ""  # the tape is in time order
        for kind in self._kinds:
            now_us = next_int()
            if now_us != at_us:
                at_us, at_ms = now_us, f"{us_to_ms(now_us):.3f}"
            if kind >= _DELIVERY:
                latency_us = at_us - next_int()
                receivers, subjects, duplicates = (
                    next_ref(), next_ref(), next_ref())
                if type(receivers) is int:
                    receivers = _receivers_of(receivers)
                label = labels.get((kind, latency_us))
                if label is None:
                    uplink, downlink, topic = paths[kind - _DELIVERY]
                    label = labels[kind, latency_us] = _delivery_label(
                        uplink, downlink, us_to_ms(latency_us), topic)
                kind_name, detail, duplicate = label
                flags_of = (repeat(None) if duplicates is None else
                            map(dict(duplicates).get, range(len(subjects))))
                for subject, flags in zip(subjects, flags_of):
                    if flags is None:
                        for r in receivers:
                            yield (at_ms, kind_name, ids[r], subject, detail)
                        continue
                    for r in receivers:
                        yield (at_ms, kind_name, ids[r], subject,
                               duplicate if flags >> r & 1 else detail)
            elif kind == _BSM_TX:
                user = ids[next_int()]
                x_m, y_m = xy_of(Position(next_float(), next_float()))
                yield (at_ms, "BsmTx", user, "",
                       f"x_m={x_m:.3f} y_m={y_m:.3f}")
            elif kind == _DETECTIONS:
                for _ in range(next_int()):
                    yield (at_ms, "DetectionReady", ARSU_CLIENT, next_ref(),
                           next_ref())
            elif kind == _GATEWAY_RX:
                kind_name, detail = next_ref()
                yield (at_ms, kind_name, ARSU_CLIENT, next_ref(), detail)
            elif kind == _IPU_FRAME:
                yield (at_ms, "IpuFrame", ARSU_CLIENT, "",
                       f"detections={next_int()}")
            elif kind == _GRACE:
                yield (at_ms, "GraceDeadline", ARSU_CLIENT,
                       f"track={next_int()}", next_ref())
            else:
                coverage = next_float()
                yield (at_ms, "MetricsTick", "sim", "",
                       "coverage=no-pairs" if math.isnan(coverage)
                       else f"coverage={coverage:.4f}")


#: Maps the digits of ``bin()`` to bytes 0 and 1.
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _receivers_of(mask: int) -> tuple[int, ...]:
    """The user indices whose bits are set in ``mask``, in increasing
    order: a cut group's receivers."""
    bits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
    return tuple(compress(range(len(bits)), bits))


def _delivery_label(uplink: LinkTech, downlink: LinkTech, latency_ms: float,
                    topic: Optional[Topic]) -> tuple[str, str, str]:
    """A delivery row's kind, detail, and detail when it is a
    duplicate."""
    detail = (f"up={uplink.value} down={downlink.value}"
              f" latency_ms={latency_ms:.3f}")
    kind = "RadioDelivery"
    if topic is not None:
        kind = "MqttDelivery"
        detail += f" topic={topic.value}"
    return kind, detail, detail + " duplicate"


def write_trace(fh: TextIO, rows: Iterable[tuple[str, ...]]) -> None:
    """Write ``TRACE_HEADER`` and then ``rows`` to ``fh`` as CSV; open
    ``fh`` with ``newline=""``."""
    writer = csv.writer(fh)
    writer.writerow(TRACE_HEADER)
    writer.writerows(rows)
