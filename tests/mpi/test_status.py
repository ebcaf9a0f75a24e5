"""The status board behind rank-death detection, without a run: exit
codes described, and every op name a rank notes read back whole."""

import os

import pytest

from repro.mpi.status import StatusBoard, describe_exitcode
from tests.faults.collectives import OPS

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a Linux /dev/shm"
)


@pytest.fixture(autouse=True)
def spmd_backend():
    """Shadow the package sweep: nothing here launches a rank."""
    return None


@pytest.mark.parametrize("exitcode, text", [
    (None, "unknown exit"), (-9, "signal SIGKILL"), (-11, "signal SIGSEGV"),
    (-15, "signal SIGTERM"), (-200, "signal 200"), (0, "exit code 0"), (3, "exit code 3"),
])
def test_describe_exitcode(exitcode, text):
    assert describe_exitcode(exitcode) == text


@pytest.mark.parametrize("op", OPS)
def test_the_board_reports_the_whole_op_name(op):
    board = StatusBoard.create(3)
    try:
        board.note(1, op, 7)
        assert board.last_context(1) == f"{op}#7"
    finally:
        board.close()
        board.unlink()

