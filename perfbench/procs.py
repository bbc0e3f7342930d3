"""Subprocesses that leave nothing running behind them.

Each benchmark subprocess starts in a session of its own, so whatever it
starts in turn (pool workers, ``multiprocessing``'s resource tracker)
shares its process group, and may outlive it: the resource tracker, for
one, only ends once it sees its parent's pipe close.  :func:`settle`
waits for the subprocess and then for every live process of its group,
and kills the group if any is left after a grace period; :func:`stop`
kills the group at once.  Callers stop the group on every error path,
so no benchmark process outlives the command that started it.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time

#: Seconds the rest of a group may take to end after its leader exited.
GRACE_S = 10.0
#: Seconds a killed group may take to be gone.
KILL_WAIT_S = 10.0


def members(pgid: int) -> list:
    """Pids of the live (not zombie) processes of group ``pgid``."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        # After the command name: state, ppid, pgrp, ...
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            alive.append(int(entry))
    return alive


def start(cmd, **kwargs) -> subprocess.Popen:
    """``subprocess.Popen`` in a new session, the leader of its own group."""
    return subprocess.Popen(cmd, start_new_session=True, **kwargs)


def _wait_gone(pgid: int, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while members(pgid):
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)
    return True


def _kill(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def settle(proc: subprocess.Popen, grace: float = GRACE_S) -> None:
    """Wait for ``proc``, then until no process of its group is left,
    killing the group once ``grace`` seconds have passed."""
    proc.wait()
    if _wait_gone(proc.pid, grace):
        return
    _kill(proc.pid)
    if not _wait_gone(proc.pid, KILL_WAIT_S):
        raise RuntimeError(f"processes {members(proc.pid)} of group {proc.pid} "
                           "did not end")


def stop(proc: subprocess.Popen) -> None:
    """Kill ``proc`` and its whole group, and wait until they have ended."""
    _kill(proc.pid)
    proc.communicate()
    settle(proc, grace=0.0)


def run(cmd, timeout=None, capture: bool = True, **kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run`` (text output, captured unless ``capture`` is
    false) that returns only once the command's whole group has ended."""
    if capture:
        kwargs.update(stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc = start(cmd, text=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        stop(proc)
        raise
    settle(proc)
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)
