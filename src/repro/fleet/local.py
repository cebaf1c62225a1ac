"""Spawn a local N-node fleet: real ``repro serve`` processes.

Used by ``repro fleet serve --spawn N`` / ``repro fleet spawn`` and the
fleet chaos scenarios.  Each node is a genuine subprocess
running ``python -m repro serve --port 0`` (ephemeral port, parsed from
the startup banner), so killing one is real node death: the socket
refuses, the gateway's router fails over, and in-memory state is gone --
exactly the failure the fleet is built to absorb.

With ``data_root`` each node gets its own persistent data directory
(``--data-dir <data_root>/node<i>``), which is what makes
:func:`respawn_node` interesting: the replacement process rebinds the
dead node's port and rejoins with its shard's results and tuned plans
warm on disk -- the warm-reboot chaos scenario.  With
``lease_dir`` every node heartbeats a lease file there, so a
lease-driven :class:`~repro.fleet.nodes.NodeRegistry` discovers the
fleet without any static ``--nodes`` list.

:func:`gateway_over` is the other half of every local fleet: a registry
and a gateway thread in front of the nodes, torn down with them.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import ExitStack, contextmanager
from types import SimpleNamespace
from typing import Dict, Iterator, List, Optional

from .gateway import make_gateway
from .nodes import NodeRegistry

__all__ = ["LocalNode", "gateway_over", "respawn_node", "spawn_local_fleet"]

_BANNER = "repro service on "


class LocalNode:
    """One spawned ``repro serve`` subprocess and its base URL.

    ``cmd``/``env`` record exactly how the process was started so
    :func:`respawn_node` can bring up a bit-compatible replacement after
    a kill (same node id, same data directory, same port).
    """

    def __init__(self, proc: subprocess.Popen, url: str, node_id: str,
                 cmd: Optional[List[str]] = None,
                 env: Optional[Dict[str, str]] = None):
        self.proc = proc
        self.url = url
        self.node_id = node_id
        self.cmd = list(cmd) if cmd else None
        self.env = dict(env) if env else None
        # Keep draining stdout so the child never blocks on a full pipe.
        self._drain = threading.Thread(target=self._drain_stdout,
                                       daemon=True)
        self._drain.start()

    def _drain_stdout(self) -> None:
        try:
            for _ in self.proc.stdout:
                pass
        except (ValueError, OSError):
            pass

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def kill(self) -> None:
        """SIGKILL: abrupt node death (no drain, no spool)."""
        if self.alive:
            try:
                self.proc.kill()
            except OSError:
                pass
        self.proc.wait(timeout=10)

    def terminate(self) -> None:
        """SIGTERM: the node drains gracefully before exiting."""
        if self.alive:
            try:
                self.proc.send_signal(signal.SIGTERM)
            except OSError:
                pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.kill()


def _src_root() -> str:
    """The directory containing the ``repro`` package (for PYTHONPATH)."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def spawn_local_fleet(n: int, *, workers: int = 1, mode: Optional[str] = None,
                      host: str = "127.0.0.1",
                      data_root: Optional[str] = None,
                      lease_dir: Optional[str] = None,
                      startup_timeout_s: float = 30.0) -> List[LocalNode]:
    """Start ``n`` independent serve nodes on ephemeral ports.

    Each node gets a stable ``REPRO_NODE_ID`` of ``node<i>`` (visible in
    ``/healthz`` and result provenance) -- the one setting that travels
    in the child's environment; everything else is in its argv:
    ``mode`` its ``--mode`` (unnamed, the node runs ``repro serve``'s
    default), ``data_root`` gives node *i* ``--data-dir
    <data_root>/node<i>`` and ``lease_dir`` makes it heartbeat a
    membership lease.  Raises
    ``RuntimeError`` -- after killing any nodes already up -- if a node
    fails to print its startup banner in time.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = _src_root() + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nodes: List[LocalNode] = []
    try:
        for i in range(n):
            node_env = dict(env, REPRO_NODE_ID=f"node{i}")
            cmd = [sys.executable, "-m", "repro", "serve",
                   "--host", host, "--port", "0", "--workers", str(workers)]
            if mode:
                cmd += ["--mode", mode]
            if data_root:
                cmd += ["--data-dir", os.path.join(data_root, f"node{i}")]
            if lease_dir:
                cmd += ["--lease-dir", lease_dir]
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, env=node_env)
            url = _wait_for_banner(proc, startup_timeout_s)
            nodes.append(LocalNode(proc, url, f"node{i}",
                                   cmd=cmd, env=node_env))
    except Exception:
        for node in nodes:
            node.kill()
        raise
    return nodes


def respawn_node(node: LocalNode,
                 startup_timeout_s: float = 30.0) -> LocalNode:
    """Restart a dead node as the same fleet member: same ``node_id``,
    same data directory (``--data-dir`` travels in the recorded argv)
    and -- crucially -- the same port, so the ring placement and every
    cached URL stay valid.  The node's persistent store makes the reboot
    *warm*: committed results come back as store hits, not re-solves.
    """
    if node.cmd is None or node.env is None:
        raise ValueError("node was not spawned by spawn_local_fleet "
                         "(no recorded cmd/env to respawn from)")
    port = node.url.rsplit(":", 1)[1]
    cmd = list(node.cmd)
    for i, arg in enumerate(cmd):
        if arg == "--port":
            cmd[i + 1] = port
            break
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=dict(node.env))
    url = _wait_for_banner(proc, startup_timeout_s)
    return LocalNode(proc, url, node.node_id, cmd=cmd, env=node.env)


@contextmanager
def gateway_over(nodes: list, *, heartbeat_s: Optional[float] = None,
                 **gateway_kwargs) -> Iterator[SimpleNamespace]:
    """A :class:`NodeRegistry` and a gateway thread in front of ``nodes``
    (any objects with ``.url`` and ``.kill()``: :class:`LocalNode`
    subprocesses, in-process test nodes) -> a namespace of ``base`` (the
    gateway URL), ``registry``, ``gateway`` and ``nodes``.

    Liveness is probed once up front and then only when the caller says
    ``registry.check_once()``, so every transition is deterministic;
    ``heartbeat_s`` starts the background heartbeat instead.  On exit,
    pass or fail, the gateway and the registry stop and every member of
    ``nodes`` is killed -- put a respawned node back into that list.
    ``gateway_kwargs`` go to :func:`make_gateway`.
    """
    def kill_nodes() -> None:
        for node in nodes:
            node.kill()

    with ExitStack() as stack:  # unwinds in reverse: gateway first
        stack.callback(kill_nodes)
        registry = NodeRegistry([n.url for n in nodes], dead_after=1,
                                timeout_s=10.0,
                                interval_s=heartbeat_s or 3600.0)
        stack.callback(registry.stop)
        registry.check_once()  # learn node ids before the first request
        gateway = make_gateway(registry, **gateway_kwargs)
        stack.callback(gateway.server_close)
        # shutdown() waits out one poll interval: keep teardown short.
        thread = threading.Thread(target=gateway.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        stack.callback(thread.join, timeout=5.0)
        stack.callback(gateway.shutdown)
        if heartbeat_s:
            registry.start()
        yield SimpleNamespace(
            base=f"http://127.0.0.1:{gateway.server_port}",
            registry=registry, gateway=gateway, nodes=nodes)


def _wait_for_banner(proc: subprocess.Popen, timeout_s: float) -> str:
    deadline = time.monotonic() + timeout_s
    lines: List[str] = []
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                "fleet node exited before startup: " + " | ".join(lines))
        line = proc.stdout.readline()
        if not line:
            continue
        lines.append(line.strip())
        if _BANNER in line:
            # "repro service on http://127.0.0.1:PORT (...)"
            url = line.split(_BANNER, 1)[1].split()[0]
            return url.rstrip("/")
    proc.kill()
    raise RuntimeError(
        f"fleet node produced no startup banner within {timeout_s}s: "
        + " | ".join(lines))
