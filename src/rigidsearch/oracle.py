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

import shlex
import subprocess
import sys
from contextlib import contextmanager
from importlib import resources

from .graphs import Graph, encode_int
from .stub_oracle import load_table

INVARIANTS = ("plane", "sphere", "mbezout")


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

    def close(self) -> None:
        proc = self._proc
        if proc.poll() is None:
            try:
                proc.stdin.close()
            except OSError:
                pass
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def __enter__(self) -> "OracleClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class OraclePool:
    """Round-robin over several clients running the same oracle command."""

    def __init__(self, command: str | list[str], procs: int = 1):
        if procs < 1:
            raise ValueError("need at least one oracle process")
        self.clients = [OracleClient(command) for _ in range(procs)]
        self._next = 0

    @property
    def request_count(self) -> int:
        return sum(c.request_count for c in self.clients)

    def query(self, invariant: str, n: int, code: int) -> int:
        client = self.clients[self._next]
        self._next = (self._next + 1) % len(self.clients)
        return client.query(invariant, n, code)

    def close(self) -> None:
        for c in self.clients:
            c.close()

    def __enter__(self) -> "OraclePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def oracle_query(client, invariant: str, g: Graph) -> int:
    """Ask for an invariant of a concrete graph."""
    return client.query(invariant, g.n, encode_int(g))


def stub_oracle_command(table_path: str) -> list[str]:
    """Command line that serves the given table with the bundled stub."""
    return [sys.executable, "-m", "rigidsearch.stub_oracle", str(table_path)]


@contextmanager
def open_oracle(command: str | list[str] | None = None, table: str | None = None,
                procs: int = 1):
    """The one way to start oracle workers: `table` means the bundled stub
    serving that table, read here first (ConfigError if it will not load).
    Yields None without a command, one OracleClient for one process and an
    OraclePool for several; every worker is closed when the block exits."""
    if table:
        try:
            load_table(table)
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
    return str(resources.files("rigidsearch").joinpath("data/stub_table.txt"))
