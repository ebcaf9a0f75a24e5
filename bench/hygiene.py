"""Process and shared-memory hygiene for the runner.

Every stage runs in its own session.  After it ends — by itself, by the
wall limit or by a signal to the runner — nothing it started may be alive
or defunct and ``/dev/shm`` may hold no segment it created; what is found
is removed and reported, and the runner then exits non-zero.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import time

PR_SET_CHILD_SUBREAPER = 36

#: Name prefixes of the runtime's segments: status and resource boards,
#: arena buckets, payloads and windows (``rps_``), hugetlbfs files (``rphp_``).
SEGMENT_PREFIXES = ("rps_", "rphp_")


def become_subreaper():
    """Orphaned descendants (rank workers, the multiprocessing resource
    tracker) are re-parented to this process, not to pid 1, so it can reap
    them; without this they linger as ``<defunct>`` children of init."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _segment_dirs():
    dirs = ["/dev/shm"]
    with open("/proc/mounts") as fh:
        dirs += [f[1] for f in map(str.split, fh) if len(f) > 2 and f[2] == "hugetlbfs"]
    return [d for d in dirs if os.path.isdir(d)]


def segments():
    """Paths of the runtime's shared-memory segments that exist now."""
    return {
        os.path.join(d, name)
        for d in _segment_dirs()
        for name in os.listdir(d)
        if name.startswith(SEGMENT_PREFIXES)
    }


def _creator_alive(path):
    """Segment names embed their creator's pid: ``rps_<pid>_<token>``."""
    try:
        os.kill(int(os.path.basename(path).split("_")[1]), 0)
    except (IndexError, ValueError, ProcessLookupError):
        return False
    except PermissionError:
        pass
    return True


def processes():
    """``(pid, state, ppid, session)`` of every process, zombies included."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while we looked
        yield int(entry), fields[0], int(fields[1]), int(fields[3])


def session_members(sid):
    """``{pid: state}`` of every process in session ``sid``."""
    return {pid: state for pid, state, _, session in processes() if session == sid}


def reap():
    """Collect every exited child; returns when none is left to wait for."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def sweep(sid, segments_before):
    """Remove what session ``sid`` left behind; returns it by name."""
    leftovers = []
    reap()
    members = session_members(sid)
    for pid, state in members.items():
        leftovers.append(f"process {pid} ({'defunct' if state == 'Z' else 'alive'})")
        if state != "Z":
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    deadline = time.monotonic() + 10.0
    while members and time.monotonic() < deadline:
        reap()
        members = session_members(sid)
        if members:
            time.sleep(0.01)
    leftovers += [f"process {pid} (unreaped)" for pid in members]
    # The session is dead by now, so a new segment with a live creator
    # belongs to somebody else on this machine.
    for path in sorted(segments() - segments_before):
        if _creator_alive(path):
            continue
        leftovers.append(f"segment {path}")
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
    return leftovers


class Stage:
    """One child in its own session, with a wall limit and a sweep."""

    def __init__(self, argv, env, cwd):
        self.segments_before = segments()
        self.proc = subprocess.Popen(
            argv, env=env, cwd=cwd, start_new_session=True,
            stdin=subprocess.DEVNULL, stdout=2,  # only the runner writes to stdout
        )
        self.sid = self.proc.pid

    def wait(self, limit):
        """Returns ``(exit status or None if killed at the limit, leftovers)``."""
        try:
            status = self.proc.wait(timeout=limit)
        except subprocess.TimeoutExpired:
            status = None
        return status, self.finish()

    def finish(self):
        """Kill the stage if it still runs, then sweep its session."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.sid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
        return sweep(self.sid, self.segments_before)
