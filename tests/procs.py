"""Processes as Linux's /proc shows them, for tests of the forked server."""

import os


def _stat_fields(pid: int):
    """The fields of /proc/<pid>/stat after the command name, or None once pid is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read()
    except (FileNotFoundError, ProcessLookupError):
        return None
    # the command name is in parentheses and may itself hold spaces or ")"
    return stat[stat.rindex(b")") + 2:].split()


def running(pid: int) -> bool:
    """pid exists and is neither a zombie nor dead."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] not in (b"Z", b"X")


def children(pid: int) -> list:
    """Pids whose parent is pid, zombies included, in ascending order."""
    out = []
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(int(name))
            if fields is not None and int(fields[1]) == pid:
                out.append(int(name))
    return sorted(out)
