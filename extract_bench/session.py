"""One Ray session of a benchmark run: start, worker processes, peak RSS, stop.

Ray gets as many CPUs as ``nproc`` prints (the affinity mask, capped by
``OMP_NUM_THREADS`` when that is set), never a configured count, and keeps
its session files inside the repository.  ``stop`` waits until every
process the session started has ended.
"""

from __future__ import annotations

import logging
import os
import signal
import subprocess
import sys
import time

# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp_dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
_SOCKET_SUFFIX_LEN = 62
_UNIX_PATH_MAX = 107


def nproc() -> int:
    return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)


def _ppid(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return None if fields[0] == "Z" else int(fields[1])


def descendants(root: int) -> list[int]:
    """Live (non-zombie) processes below ``root`` in the process tree."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            ppid = _ppid(int(name))
            if ppid is not None:
                children.setdefault(ppid, []).append(int(name))
    out, todo = [], [root]
    while todo:
        for child in children.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().decode(errors="replace")
    except OSError:
        return ""


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _alive(pid: int) -> bool:
    return _ppid(pid) is not None


def _reap(pids: list[int]) -> None:
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass


class RaySession:
    def __init__(self, temp_dir: str) -> None:
        temp_dir = os.path.abspath(temp_dir)
        if len(temp_dir) + _SOCKET_SUFFIX_LEN > _UNIX_PATH_MAX:
            # every session process starts in the repository root, so the
            # cwd-relative form names the same directory in all of them
            temp_dir = os.path.join("/proc/self/cwd", os.path.relpath(temp_dir))
        self.temp_dir = temp_dir

    def start(self, runtime_env: dict | None = None) -> None:
        import ray
        import ray.data

        ray.init(
            address="local",
            num_cpus=nproc(),
            object_store_memory=256 << 20,
            include_dashboard=False,
            logging_level=logging.ERROR,
            log_to_driver=False,
            runtime_env=runtime_env,
            _temp_dir=self.temp_dir,
        )
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

    def worker_pids(self) -> list[int]:
        return [p for p in descendants(os.getpid()) if _cmdline(p).startswith("ray::")]

    def reset_peak_rss(self) -> None:
        """Restart VmHWM of this process and the workers (clear_refs 5)."""
        for pid in [os.getpid(), *self.worker_pids()]:
            try:
                with open(f"/proc/{pid}/clear_refs", "w") as f:
                    f.write("5")
            except OSError:
                pass

    def peak_rss_mb(self) -> float:
        """Σ VmHWM of this process and the live Ray worker processes."""
        pids = [os.getpid(), *self.worker_pids()]
        return sum(_hwm_kb(p) for p in pids) / 1024

    def stop(self, grace_s: float = 3.0) -> None:
        """``ray.shutdown``, then SIGKILL whatever of the session is still
        running ``grace_s`` later, and wait until all of it has ended."""
        import ray

        started = descendants(os.getpid())
        ray.shutdown()
        left = started
        for kill in (False, True):
            for p in left if kill else ():
                print(f"killing {p} ({_cmdline(p)[:60]!r}) after ray.shutdown",
                      file=sys.stderr)
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + (10 * grace_s if kill else grace_s)
            while time.monotonic() < deadline:
                _reap(started)
                left = [p for p in started if _alive(p)]
                if not left:
                    return
                time.sleep(0.05)
        raise RuntimeError(f"processes {left} outlived the Ray session")
