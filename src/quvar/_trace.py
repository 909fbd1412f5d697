"""The trace of a repeated-measurement run: its StepRecords, the flat rows
quvar.ozawa.run_protocol holds them in, and its CSV.

run_protocol writes one row per round and this module reads them; the
row layout is documented on ProtocolTrace. quvar.ozawa re-exports
StepRecord and ProtocolTrace.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .gaussian import GaussianState


@dataclass(frozen=True)
class StepRecord:
    """One measurement: state before coupling, reading, state after collapse."""

    index: int
    time: float
    y_reading: float
    pre: GaussianState
    post: GaussianState
    meter: GaussianState


class Records(Sequence):
    """run_protocol's StepRecords, read from its rows: len() builds none, any
    other access builds them all, once. Two compare equal, and hash, as the
    tuples of records they stand for."""

    def __init__(self, rows):
        self.rows, self.records = rows, None

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, index):
        if self.records is None:
            self.records = tuple(
                StepRecord(i, t, y, GaussianState(mx, mp, *s[0]), GaussianState(qx, qp, *s[1]),
                           GaussianState(ux, up, *s[2]))
                for i, t, y, s, mx, mp, qx, qp, ux, up in self.rows
            )
        return self.records[index]

    def __eq__(self, other):
        return self[:] == (other[:] if isinstance(other, Records) else other)

    def __hash__(self):
        return hash(self[:])


@dataclass(frozen=True)
class ProtocolTrace:
    """Per-measurement records of a protocol run.

    A trace from run_protocol holds its StepRecords as flat rows, one per
    round: (index, time, y_reading, the round's covariance step, then
    mean_x and mean_p of the pre-measurement, posterior and meter states).
    A covariance step is one tuple for every round from the same
    covariance, and it begins with those states' covariances, each
    (vxx, vpp, vxp). The records are built from the rows on first access,
    all at once, and kept; len(steps) builds none. A trace may also be
    built from a sequence of records."""

    steps: Sequence[StepRecord]

    def csv_lines(self) -> Iterator[str]:
        """The trace CSV one newline-terminated line at a time: the header,
        then one row per measurement with floats at 17 significant digits.
        The seven covariance cells are formatted once per covariance step. A
        trace built from records is first given rows of its own, each with a
        covariance list in place of the step."""
        yield "i,t,y_reading,vxx_pre,vxp_pre,vpp_pre,vxx_post,vxp_post,vpp_post,vyy_meter\n"
        rows = self.steps.rows if isinstance(self.steps, Records) else [
            (s.index, s.time, s.y_reading, [(g.vxx, g.vpp, g.vxp) for g in (s.pre, s.post, s.meter)])
            for s in self.steps
        ]
        cells = {}  # id(covariances) -> cells; the rows keep each one alive
        for row in rows:
            c = cells.get(id(row[3]))
            if c is None:
                pre, post, meter = row[3][:3]
                c = cells[id(row[3])] = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % (
                    pre[0], pre[2], pre[1], post[0], post[2], post[1], meter[0])
            yield f"{row[0]},{row[1]:.17g},{row[2]:.17g},{c}\n"

    def to_csv(self) -> str:
        return "".join(self.csv_lines())
