"""The trace of a repeated-measurement run: its StepRecords, read from the
packed rows quvar.ozawa.run_protocol writes, and its CSV.

run_protocol writes one ROW per round and this module reads them; the
layout is documented on ProtocolTrace. quvar.ozawa re-exports
StepRecord and ProtocolTrace.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .gaussian import GaussianState

ROW = struct.Struct("7dq")  # native and aligned: 64 B


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
    """The StepRecords of a protocol run, one per round, read from the
    bytearray rows, one ROW per round: (y_reading, mean_x and mean_p of the
    pre-measurement, posterior and meter states, the index of the round's
    covariance step in covariance_steps). Those are the distinct steps in
    first-use order, each a tuple that begins with the three states'
    covariances (vxx, vpp, vxp). Round i (from 1) is the i-th record, at
    time (i - 1) * period. len() builds no record; any other access builds
    them all, once. A trace compares equal, and hashes, as the tuple of
    records it stands for; the steps property is the trace itself."""

    def __init__(self, rows: bytearray, steps: list, period: float):
        self.rows, self.covariance_steps, self.period, self.records = rows, steps, period, None

    @property
    def steps(self) -> ProtocolTrace:
        return self

    def __len__(self):
        return len(self.rows) // ROW.size

    def __getitem__(self, index):
        if self.records is None:
            t, s = self.period, self.covariance_steps
            self.records = tuple(
                StepRecord(i, (i - 1) * t, y, GaussianState(mx, mp, *s[j][0]),
                           GaussianState(qx, qp, *s[j][1]), GaussianState(ux, up, *s[j][2]))
                for i, (y, mx, mp, qx, qp, ux, up, j) in enumerate(ROW.iter_unpack(self.rows), 1)
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
        t = self.period
        cells = ["%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % (
            pre[0], pre[2], pre[1], post[0], post[2], post[1], meter[0])
            for pre, post, meter, *_ in self.covariance_steps]
        for i, (y, _, _, _, _, _, _, j) in enumerate(ROW.iter_unpack(self.rows), 1):
            yield f"{i},{(i - 1) * t:.17g},{y:.17g},{cells[j]}\n"

    def to_csv(self) -> str:
        return "".join(self.csv_lines())
