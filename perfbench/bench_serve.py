"""The `repro serve` daemon as a separate process, and a closed-loop
keep-alive HTTP client for it."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlencode

from bench_corpus import TOPK_K

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
_ANNOUNCE = re.compile(r"on http://[^:]+:(\d+)")


class Daemon:
    """``python -m repro serve DIR --workers 1 --result-cache-size 0``
    (tracing at its default unless ``tracing=False``)."""

    def __init__(self, root: str, db_dir: str, log_path: str,
                 tracing: bool = True):
        self.root = root
        self.db_dir = db_dir
        self.log_path = log_path
        self.tracing = tracing
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def start(self) -> float:
        """Spawn the daemon; seconds until ``/healthz`` answers 200."""
        cmd = [sys.executable, "-m", "repro", "serve", self.db_dir,
               "--port", "0", "--workers", "1", "--result-cache-size", "0"]
        if not self.tracing:
            cmd.append("--no-tracing")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        started = time.perf_counter()
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(cmd, stdout=log,
                                         stderr=subprocess.STDOUT,
                                         stdin=subprocess.DEVNULL,
                                         cwd=self.root, env=env)
        while self.port is None:
            self._check_alive(started)
            with open(self.log_path, encoding="utf-8") as log:
                match = _ANNOUNCE.search(log.read())
            if match:
                self.port = int(match.group(1))
            else:
                time.sleep(0.005)
        conn = self.connect()
        try:
            while True:
                self._check_alive(started)
                try:
                    status, _ = get(conn, "/healthz")
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = self.connect()
                    status = 0
                if status == 200:
                    return time.perf_counter() - started
                time.sleep(0.005)
        finally:
            conn.close()

    def _check_alive(self, started: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"daemon exited with {self.proc.returncode}; "
                               f"see {self.log_path}")
        if time.perf_counter() - started > START_TIMEOUT_S:
            raise RuntimeError("daemon did not become healthy in "
                               f"{START_TIMEOUT_S:.0f} s")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=60)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; SIGKILL if it hangs."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=STOP_TIMEOUT_S)


def get(conn: http.client.HTTPConnection, path: str) -> Tuple[int, bytes]:
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, response.read()


def request_path(endpoint: str, terms: Sequence[str]) -> str:
    params = {"q": " ".join(terms)}
    if endpoint == "/topk":
        params["k"] = str(TOPK_K)
    return f"{endpoint}?{urlencode(params)}"


Sample = Tuple[int, float, float, int, bytes]


def drive(daemon: Daemon, paths: Sequence[str],
          seconds: Optional[float] = None, passes: Optional[int] = None,
          after: Optional[Callable[[http.client.HTTPConnection, Sample],
                                   None]] = None) -> List[Sample]:
    """Closed loop over `paths` (cycled) on one keep-alive connection:
    each request goes out after the previous reply.  One connection, so
    that client, daemon front and the two shard workers never want more
    than the host's two cores at once.  Stops after `passes` full
    passes, or at the first pass boundary after `seconds`.  Returns
    ``(request index, start, end, status, body)`` samples.  `after` runs
    after each reply, outside the timed interval."""
    limit = None if passes is None else passes * len(paths)
    deadline = None if seconds is None else time.perf_counter() + seconds
    samples: List[Sample] = []
    conn = daemon.connect()
    try:
        index = 0
        while not ((limit is not None and index >= limit)
                   or (deadline is not None and index % len(paths) == 0
                       and time.perf_counter() >= deadline)):
            start = time.perf_counter()
            try:
                status, body = get(conn, paths[index % len(paths)])
            except (OSError, http.client.HTTPException):
                conn.close()
                conn = daemon.connect()
                status, body = 0, b""
            sample = (index, start, time.perf_counter(), status, body)
            samples.append(sample)
            if after is not None:
                after(conn, sample)
            index += 1
    finally:
        conn.close()
    return samples


def metrics(daemon: Daemon) -> Dict[str, float]:
    from bench_util import parse_prometheus

    conn = daemon.connect()
    try:
        status, body = get(conn, "/metrics")
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return parse_prometheus(body.decode("utf-8"))


def fetch_trace(conn: http.client.HTTPConnection,
                trace_id: str) -> Optional[Dict]:
    status, body = get(conn, f"/debug/traces?trace_id={trace_id}")
    return json.loads(body) if status == 200 else None
