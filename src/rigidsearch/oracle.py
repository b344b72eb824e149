"""Client for external realization-counting oracles.

Counting Plane#/Sphere#/m-Bezout realizations needs an algebraic-geometry
stack that stays outside this package.  The oracle is any child process
speaking one line per query on stdio:

    request:  <INVARIANT> <n> <integer-code>\n     INVARIANT in PLANE SPHERE MBEZOUT
    reply:    OK <count>\n   or   ERR <message>\n

A bundled stub (rigidsearch.stub_oracle) serves replies from a whitespace
separated table file, which is what the tests and the packaged fixture data
use.
"""

from __future__ import annotations

import os
import selectors
import shlex
import subprocess
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager

from . import stub_oracle
from .graphs import Graph, encode_int

INVARIANTS = ("plane", "sphere", "mbezout")
CLOSE_TIMEOUT_S = 5.0  # a worker still running this long after its hang-up is killed


class ConfigError(ValueError):
    """Invalid or inconsistent configuration (the CLI exits 2)."""


class OracleError(Exception):
    """Base class for oracle failures."""


class OracleTransportError(OracleError):
    """The oracle process is gone or its pipes broke."""


class OracleProtocolError(OracleError):
    """The oracle replied with something other than OK/ERR lines."""


class OracleDomainError(OracleError):
    """The oracle answered ERR for this query."""


def in_order(fn, items) -> list:
    """fn over items, one after another."""
    return [fn(x) for x in items]


class OracleClient:
    """One oracle child process, answering one query at a time."""

    def __init__(self, command: str | list[str]):
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        self.command = argv
        try:
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise OracleTransportError(f"cannot start oracle {argv!r}: {exc}") from exc
        self.request_count = 0

    def query(self, invariant: str, n: int, code: int) -> int:
        if invariant not in INVARIANTS:
            raise ValueError(f"unknown invariant {invariant!r}")
        if self._proc.poll() is not None:
            raise OracleTransportError(
                f"oracle exited with status {self._proc.returncode}")
        try:
            self._proc.stdin.write(f"{invariant.upper()} {n} {code}\n")
            self._proc.stdin.flush()
            line = self._proc.stdout.readline()
        except (BrokenPipeError, OSError) as exc:
            raise OracleTransportError(f"oracle pipe failed: {exc}") from exc
        self.request_count += 1
        if line == "":
            raise OracleTransportError("oracle closed its output stream")
        parts = line.strip().split(maxsplit=1)
        if parts and parts[0] == "OK" and len(parts) == 2:
            try:
                return int(parts[1])
            except ValueError:
                raise OracleProtocolError(f"bad OK payload: {line.strip()!r}") from None
        if parts and parts[0] == "ERR":
            raise OracleDomainError(parts[1] if len(parts) == 2 else "unspecified")
        raise OracleProtocolError(f"unparseable oracle reply: {line.strip()!r}")

    map = staticmethod(in_order)

    def _hang_up(self) -> None:
        """Close the worker's input; a worker exits at its end."""
        try:
            self._proc.stdin.close()
        except OSError:
            pass

    def close(self) -> None:
        """Hang up, then kill the worker if it still runs CLOSE_TIMEOUT_S later."""
        self._hang_up()
        self._reap(time.monotonic() + CLOSE_TIMEOUT_S)

    def _reap(self, deadline: float) -> None:
        """Wait until `deadline` (monotonic) for the worker to exit, then kill
        it.  The wait watches for the end of the worker's output, which comes
        as it exits; `Popen.wait(timeout)` polls and would see it late."""
        with selectors.DefaultSelector() as sel:
            sel.register(self._proc.stdout, selectors.EVENT_READ)
            while (left := deadline - time.monotonic()) > 0 and sel.select(left):
                if not os.read(self._proc.stdout.fileno(), 1 << 16):  # drops late output
                    break
        try:
            self._proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def __enter__(self) -> "OracleClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class OraclePool:
    """Several clients running the same oracle command.  A query takes the
    client idle longest and hands it back when its reply is in, so queries
    from several threads never share a client and one caller's queries
    alternate between the clients."""

    def __init__(self, command: str | list[str], procs: int = 1):
        if procs < 1:
            raise ValueError("need at least one oracle process")
        self.clients = [OracleClient(command) for _ in range(procs)]
        self._idle = deque(self.clients)
        self._free = threading.Semaphore(procs)

    @property
    def request_count(self) -> int:
        return sum(c.request_count for c in self.clients)

    def query(self, invariant: str, n: int, code: int) -> int:
        with self._free:
            client = self._idle.popleft()
            try:
                return client.query(invariant, n, code)
            finally:
                self._idle.append(client)

    def map(self, fn, items) -> list:
        """fn over items on one thread per client, results in input order.
        Items start in input order, and none starts after a failure; once
        the calls in flight end, the failure of the earliest item raises,
        as it would have one item at a time."""
        items = list(items)
        results: list = [None] * len(items)
        failures: dict[int, Exception] = {}
        todo = iter(range(len(items)))
        lock = threading.Lock()

        def work():
            while True:
                with lock:
                    i = None if failures else next(todo, None)
                if i is None:
                    return
                try:
                    results[i] = fn(items[i])
                except Exception as exc:
                    failures[i] = exc

        threads = [threading.Thread(target=work, daemon=True)
                   for _ in range(min(len(self.clients), len(items)) - 1)]
        for t in threads:
            t.start()
        work()
        for t in threads:
            t.join()
        if failures:
            raise failures[min(failures)]
        return results

    def close(self) -> None:
        """Hang up on every worker before waiting for any, so they all wind
        down at once, and kill those still running CLOSE_TIMEOUT_S later."""
        for c in self.clients:
            c._hang_up()
        deadline = time.monotonic() + CLOSE_TIMEOUT_S
        for c in self.clients:
            c._reap(deadline)

    def __enter__(self) -> "OraclePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def oracle_query(client, invariant: str, g: Graph) -> int:
    """Ask for an invariant of a concrete graph."""
    return client.query(invariant, g.n, encode_int(g))


def stub_oracle_command(table_path: str) -> list[str]:
    """Command line that serves the given table with the bundled stub.

    The stub runs as a script under `-S`: it imports only `sys`, so it needs
    neither `site` nor rigidsearch on the path, and each start skips the
    `.pth` hooks that `site` runs.  (`-I` would also drop PYTHONHOME, since
    it implies `-E`, and `-P` needs Python 3.11.)  `python -m
    rigidsearch.stub_oracle TABLE` serves a table the same way."""
    return [sys.executable, "-S", os.path.abspath(stub_oracle.__file__), str(table_path)]


@contextmanager
def open_oracle(command: str | list[str] | None = None, table: str | None = None,
                procs: int = 1):
    """The one way to start oracle workers: `table` means the bundled stub
    serving that table, read here first (ConfigError if it will not load).
    Yields None without a command, one OracleClient for one process and an
    OraclePool for several; every worker is closed when the block exits."""
    if table:
        try:
            stub_oracle.load_table(table)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"oracle table: {exc}") from exc
        command = stub_oracle_command(table)
    if not command:
        yield None
        return
    with (OracleClient(command) if procs == 1 else OraclePool(command, procs)) as oracle:
        yield oracle


def bundled_stub_table() -> str:
    """Path of the answer table shipped with the package."""
    from importlib import resources  # only here, so importing this module skips it

    return str(resources.files("rigidsearch").joinpath("data/stub_table.txt"))
