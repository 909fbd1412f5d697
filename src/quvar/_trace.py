"""The trace of a repeated-measurement run: its StepRecords, read from the
flat rows quvar.ozawa.run_protocol writes, and its CSV.

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


class ProtocolTrace(Sequence):
    """The StepRecords of a protocol run, one per round, read from the rows
    run_protocol writes: (y_reading, the round's covariance step, then
    mean_x and mean_p of the pre-measurement, posterior and meter states).
    A covariance step is one tuple for every round from the same
    covariance, and it begins with those states' covariances, each
    (vxx, vpp, vxp). Round i (from 1) is the i-th row, at time
    (i - 1) * period. len() builds no record; any other access builds them
    all, once. A trace compares equal, and hashes, as the tuple of records
    it stands for; steps is the trace itself."""

    def __init__(self, rows: list, period: float):
        self.rows, self.period, self.records = rows, period, None

    @property
    def steps(self) -> ProtocolTrace:
        return self

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, index):
        if self.records is None:
            t = self.period
            self.records = tuple(
                StepRecord(i, (i - 1) * t, y, GaussianState(mx, mp, *s[0]),
                           GaussianState(qx, qp, *s[1]), GaussianState(ux, up, *s[2]))
                for i, (y, s, mx, mp, qx, qp, ux, up) in enumerate(self.rows, 1)
            )
        return self.records[index]

    def __eq__(self, other):
        return self[:] == other

    def __hash__(self):
        return hash(self[:])

    def csv_lines(self) -> Iterator[str]:
        """The trace CSV one newline-terminated line at a time: the header,
        then one row per measurement with floats at 17 significant digits.
        The seven covariance cells are formatted once per covariance step."""
        yield "i,t,y_reading,vxx_pre,vxp_pre,vpp_pre,vxx_post,vxp_post,vpp_post,vyy_meter\n"
        t, cells = self.period, {}  # id(step) -> cells; the rows keep each step alive
        for i, row in enumerate(self.rows, 1):
            c = cells.get(id(row[1]))
            if c is None:
                pre, post, meter = row[1][:3]
                c = cells[id(row[1])] = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % (
                    pre[0], pre[2], pre[1], post[0], post[2], post[1], meter[0])
            yield f"{i},{(i - 1) * t:.17g},{row[0]:.17g},{c}\n"

    def to_csv(self) -> str:
        return "".join(self.csv_lines())
