"""Hard-kill a CLI subprocess together with every process it started.

Kill-and-resume tests SIGKILL a ``python -m repro ...`` child mid-run.  A
SIGKILL reaches only that one process: pool workers it forked would be
orphaned and keep sleeping on their task queue long after the test.  So
the child is launched as the leader of its own process group, and after
the kill the rest of the group gets SIGTERM.  The multiprocessing
resource tracker ignores SIGTERM; once the workers are gone it sees its
pipe close, unlinks any shared-memory segment the dead parent still
held, and exits.  :func:`kill_group` waits for that, so a test returns
only when nothing of the child is left.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time


def spawn_group(args: list[str], env: dict[str, str]) -> subprocess.Popen:
    """Start ``args`` as the leader of a new process group."""
    return subprocess.Popen(
        args,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )


def _group_alive(pgid: int) -> bool:
    """Whether any live (non-zombie) process is still in group ``pgid``."""
    if not os.path.isdir("/proc"):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return False
        return True
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        # fields after the parenthesized command: state, ppid, pgrp, ...
        fields = stat[stat.rindex(b")") + 2 :].split()
        if int(fields[2]) == pgid and fields[0] != b"Z":
            return True
    return False


def kill_group(process: subprocess.Popen, timeout: float = 60.0) -> None:
    """SIGKILL the leader, SIGTERM the rest of its group, wait for all."""
    if process.poll() is None:
        process.send_signal(signal.SIGKILL)
    process.wait(timeout=timeout)
    try:
        os.killpg(process.pid, signal.SIGTERM)
    except ProcessLookupError:
        return  # the whole group already exited
    deadline = time.monotonic() + timeout
    while _group_alive(process.pid):
        if time.monotonic() > deadline:
            raise AssertionError(
                f"processes of group {process.pid} outlived the kill"
            )
        time.sleep(0.02)
