"""Starting and stopping `resopt-cli serve` for the serve-closed workload.

A server is started as a separate process on a Unix socket and is ready
once the probe given to `start` says it answers (run.py probes with
`harness --ping`, which speaks the library's own wire protocol).  A
server that exits, or does not answer within the start timeout, is
killed and reported as a start failure: starting never hangs.  Stopping
sends SIGTERM and waits, then SIGKILL.
"""

import os
import signal
import subprocess
import time


class StartFailure(Exception):
    pass


def start(argv, path, ready, timeout=20.0):
    """Start argv (which must listen on path) and wait until ready(path)
    is true.  Returns (process, seconds until ready); raises
    StartFailure, with the process stopped, when it never gets ready."""
    if os.path.exists(path):
        os.unlink(path)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    deadline = t0 + timeout
    while True:
        if proc.poll() is not None:
            raise StartFailure("server exited with code %d before answering"
                               % proc.returncode)
        if os.path.exists(path) and ready(path):
            return proc, time.perf_counter() - t0
        if time.perf_counter() > deadline:
            stop(proc)
            raise StartFailure("server did not answer a ping within %gs"
                               % timeout)
        time.sleep(0.002)


def stop(proc, grace=10.0):
    """SIGTERM, wait up to grace seconds, then SIGKILL and wait.
    Returns the exit code."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode
