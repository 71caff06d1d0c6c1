"""Run child processes one at a time and measure each one on its own.

Each child is reaped with ``os.wait4``, which returns the usage of that one
child.  ``resource.getrusage(RUSAGE_CHILDREN)`` would not do: its
``ru_maxrss`` is the maximum over every child reaped so far, so a small
child measured after a large one would report the large one's peak.

Children are also started from a small helper process, not from the
benchmark itself.  At exec, Linux folds the peak RSS of the address space
being left into the new program's ``ru_maxrss``, and a child started with
vfork leaves its parent's.  Started straight from the benchmark, which holds
numpy, sympy and the check tables, every child would report at least the
benchmark's own peak; the helper imports only the standard library.  The
child's stdout and stderr are pipes that the benchmark reads directly: their
write ends reach the helper over a Unix socket.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass

#: A child still running after this many seconds is killed and counted as
#: failed, so that one hung request cannot hold the whole run past its limit.
CHILD_TIMEOUT_S = 100.0
_MESSAGE_BYTES = 1 << 16


@dataclass(frozen=True)
class ChildResult:
    """Outcome of one child: exit code, captured output and its own usage."""

    exit_code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    timed_out: bool = False


class Launcher:
    """The helper process; children get its environment and directory.

    ``wall_s`` runs, in the helper, from just before the child is created to
    just after it is reaped, so it includes interpreter start-up.
    """

    def __init__(self, env: dict[str, str], cwd: str):
        self._sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self._proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), str(theirs.fileno())],
                pass_fds=[theirs.fileno()], stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, env=env, cwd=cwd,
            )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._sock.close()  # the helper exits when its socket closes
        self._proc.wait()

    def _reply(self) -> dict:
        reply = json.loads(self._sock.recv(_MESSAGE_BYTES) or b'{"error": "launcher exited"}')
        if "error" in reply:
            raise RuntimeError(f"could not start a child: {reply['error']}")
        return reply

    def run(self, cmd: list[str]) -> ChildResult:
        out_r, out_w = os.pipe()
        err_r, err_w = os.pipe()
        try:
            try:
                socket.send_fds(self._sock, [json.dumps(cmd).encode()], [out_w, err_w])
            finally:
                os.close(out_w)
                os.close(err_w)
            pid = self._reply()["pid"]
            stdout, stderr, timed_out = _drain(out_r, err_r, time.perf_counter() + CHILD_TIMEOUT_S)
            if timed_out:
                os.kill(pid, signal.SIGKILL)
            usage = self._reply()
        finally:
            os.close(out_r)
            os.close(err_r)
        return ChildResult(
            exit_code=usage["exit_code"],
            stdout=stdout,
            stderr=stderr,
            wall_s=usage["wall_s"],
            cpu_s=usage["cpu_s"],
            peak_rss_mb=usage["maxrss_kib"] / 1024,
            timed_out=timed_out,
        )


def _drain(out_fd: int, err_fd: int, deadline: float) -> tuple[bytes, bytes, bool]:
    """Read both pipes together until they close or the deadline passes."""
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    with selectors.DefaultSelector() as selector:
        for fd in chunks:
            selector.register(fd, selectors.EVENT_READ)
        while selector.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            for key, _ in selector.select(remaining):
                data = os.read(key.fd, 1 << 20)
                if data:
                    chunks[key.fd].append(data)
                else:
                    selector.unregister(key.fd)
        timed_out = bool(selector.get_map())
    return b"".join(chunks[out_fd]), b"".join(chunks[err_fd]), timed_out


def _serve(sock: socket.socket) -> None:
    """The helper's loop: start each requested child, reap it, report usage."""
    while True:
        message, fds, _, _ = socket.recv_fds(sock, _MESSAGE_BYTES, 2)
        if not message:
            return
        start = time.perf_counter()
        try:
            with open(os.devnull, "rb") as devnull:
                proc = subprocess.Popen(json.loads(message), stdin=devnull, stdout=fds[0], stderr=fds[1])
        except OSError as exc:
            sock.send(json.dumps({"error": str(exc)}).encode())
            continue
        finally:
            for fd in fds:
                os.close(fd)
        sock.send(json.dumps({"pid": proc.pid}).encode())
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        sock.send(json.dumps({
            "exit_code": proc.returncode,
            "wall_s": time.perf_counter() - start,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kib": usage.ru_maxrss,
        }).encode())


if __name__ == "__main__":
    with socket.socket(fileno=int(sys.argv[1])) as helper_socket:
        _serve(helper_socket)
