""":class:`WireTransport` — the real-clock
:class:`~repro.net.transport.Transport`, over asyncio TCP sockets.

Each *process* runs one ``WireTransport``, and its asyncio loop thread
(``wire-loop``) is the only thread that delivers.  Nodes registered on
it are **local**; node ids mapped through :meth:`register_peer` are
**remote**: a send to one is encoded through the compiled envelope
codecs, framed, and written to the peer's listener by the connection
manager (reconnect/backoff on the resilience retry schedule).
Incoming frames are decoded — every verb validated at the boundary —
and join the same window as local sends; the next loop turn flushes
it in chunks of ``batch_max``, so a burst of socket arrivals reaches
:meth:`~repro.kernel.mailbox.Mailbox.deliver_batch` whole.  A send
from another thread crosses onto the loop once
(``call_soon_threadsafe``); timers are ``loop.call_later``.

Reply routing is connection-oriented: when a frame from node ``S``
arrives on connection ``c`` and ``S`` is neither local nor a
registered peer, the transport learns ``S -> c`` and later sends to
``S`` ride that connection back.  A client behind an ephemeral port
therefore needs no listener: the :mod:`repro.fleet.wire` shard
processes answer the frontend on the connection its request arrived
on, exactly like the event-driven service buses this layer is modelled
on.

``stop()`` is the clean-shutdown contract the test suite's leak
fixture enforces: close the listener, flush and close every peer
connection, stop the event loop and join its thread.  Idempotent.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import TransportError, WireCodecError
from repro.net.message import Message
from repro.net.node import Endpoint
from repro.net.transport import Transport
from repro.net.wire.codec import decode_message, encode_message
from repro.net.wire.frames import DEFAULT_MAX_FRAME_BYTES, encode_frame
from repro.net.wire.peers import Address, ConnectionManager, fresh_counters
from repro.resilience.retry import RetryPolicy


class _Run(list):
    """A same-endpoint run that records how far its handler's ``for``
    walked it, so a raising handler costs only one message."""

    at = 0

    def __iter__(self):  # type: ignore[override]
        for self.at, message in enumerate(list.__iter__(self)):
            yield message


class WireTransport(Transport):
    """Transport whose remote edges are real TCP connections.

    ``listen_port=0`` binds an ephemeral port; read :attr:`address`
    after :meth:`start` to learn it.  ``batch_max`` caps one delivery
    chunk of the loop's window.  Caller threads still send, so
    ``concurrent_delivery`` stays True.
    """

    concurrent_delivery = True

    def __init__(
        self,
        listen_host: str = "127.0.0.1",
        listen_port: int = 0,
        batch_max: int = 16,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        reconnect: "Optional[RetryPolicy]" = None,
        reconnect_seed: int = 0,
    ) -> None:
        super().__init__()
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        self.listen_host = listen_host
        self.listen_port = listen_port
        self.batch_max = batch_max
        self.max_frame_bytes = max_frame_bytes
        #: Wire-level counters (frames/bytes/reconnects/errors); one
        #: flat dict so tests and ledgers can snapshot it wholesale.
        self.wire_counters = fresh_counters()
        self._reconnect = reconnect
        self._reconnect_seed = reconnect_seed
        self._epoch = time.monotonic()
        self._peers: "Dict[str, Address]" = {}
        #: node id -> live connection a frame from it last arrived on.
        self._routes: "Dict[str, asyncio.StreamWriter]" = {}
        #: Local messages awaiting the next loop turn (loop thread only).
        self._window: "List[Message]" = []
        self._loop: "Optional[asyncio.AbstractEventLoop]" = None
        self._loop_ident: "Optional[int]" = None
        self._loop_thread: "Optional[threading.Thread]" = None
        self._loop_ready = threading.Event()
        self._server: "Optional[asyncio.base_events.Server]" = None
        self._manager: "Optional[ConnectionManager]" = None
        self._bound: "Optional[Tuple[str, int]]" = None
        self._started = False
        self._startup_error: "Optional[BaseException]" = None

    # Lifecycle --------------------------------------------------------------

    @property
    def address(self) -> "Tuple[str, int]":
        """The listener's actual ``(host, port)`` (after ``start()``)."""
        if self._bound is None:
            raise TransportError(
                "WireTransport has no bound address before start()"
            )
        return self._bound

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._loop_ready.clear()
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="wire-loop", daemon=True
        )
        self._loop_thread.start()
        if not self._loop_ready.wait(timeout=10.0):
            raise TransportError("wire event loop failed to start")
        if self._startup_error is not None:
            error = self._startup_error
            self.stop()
            raise TransportError(
                f"wire listener failed to bind on "
                f"{self.listen_host}:{self.listen_port}: {error}"
            )

    def _run_loop(self) -> None:
        self._startup_error = None
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._loop_ident = threading.get_ident()
        self._manager = ConnectionManager(
            loop,
            on_payload=self._on_payload,
            on_disconnect=self._on_disconnect,
            counters=self.wire_counters,
            reconnect=self._reconnect,
            rng=random.Random(self._reconnect_seed),
            max_frame_bytes=self.max_frame_bytes,
        )

        async def bring_up() -> None:
            try:
                self._server = await asyncio.start_server(
                    self._on_client, self.listen_host, self.listen_port
                )
                sock = self._server.sockets[0]
                self._bound = sock.getsockname()[:2]
            except OSError as exc:
                self._startup_error = exc
            finally:
                self._loop_ready.set()

        loop.create_task(bring_up())
        try:
            loop.run_forever()
        finally:
            # Cancel stragglers so loop.close() never warns.
            for task in asyncio.all_tasks(loop):
                task.cancel()
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def stop(self, timeout: float = 5.0) -> None:
        if not self._started:
            return
        self._started = False
        loop = self._loop
        if loop is not None and loop.is_running():
            done = threading.Event()

            async def bring_down() -> None:
                try:
                    if self._server is not None:
                        self._server.close()
                        await self._server.wait_closed()
                    if self._manager is not None:
                        await self._manager.aclose()
                finally:
                    done.set()
                    loop.stop()

            loop.call_soon_threadsafe(loop.create_task, bring_down())
            done.wait(timeout=timeout)
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=timeout)
            self._loop_thread = None
        for message in self._window:
            self.stats.record_dropped(message)
        self._window = []
        self._routes.clear()
        self._server = None
        self._manager = None
        self._loop = None
        self._loop_ident = None
        self._bound = None

    def __enter__(self) -> "WireTransport":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _post(self, callback: "Callable[..., None]", *args: Any) -> bool:
        """Run ``callback`` on the loop thread: inline when already
        there, else one ``call_soon_threadsafe`` crossing.  False once
        the loop is gone (a send racing ``stop()``)."""
        if threading.get_ident() == self._loop_ident:
            callback(*args)
            return True
        loop = self._loop
        if loop is None:
            return False
        try:
            loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:  # closed between the check and the call
            return False
        return True

    # Peer topology ----------------------------------------------------------

    def register_peer(self, node_id: str, address: "Tuple[str, int]") -> None:
        """Map a remote node id to its process's listener address.

        Re-registering (a recovered shard process listens on a new
        port) drops the old connection state; queued frames for the
        dead incarnation are dropped, as they would be on any failed
        host.
        """
        if self.has_node(node_id):
            raise TransportError(
                f"node {node_id!r} is local to this transport; it cannot "
                f"also be a remote peer"
            )
        address = (address[0], int(address[1]))
        previous = self._peers.get(node_id)
        self._peers[node_id] = address
        self._routes.pop(node_id, None)
        if previous is not None and previous != address:
            if self._manager is not None:
                self._post(self._manager.forget_peer, previous)

    def peers(self) -> "Dict[str, Tuple[str, int]]":
        return dict(self._peers)

    # Sending ----------------------------------------------------------------

    def send(self, message: Message) -> None:
        if not self._started:
            raise TransportError(
                "WireTransport.send called before start(); use it as a "
                "context manager or call start()"
            )
        if message.target in self._nodes:
            if self._precheck_send(message) and not self._post(
                self._enqueue, message
            ):
                self.stats.record_dropped(message)
            return
        route = self._routes.get(message.target)
        peer = self._peers.get(message.target)
        if route is None and peer is None:
            raise TransportError(
                f"unknown target node {message.target!r} (not local, not "
                f"a registered peer, no learned route)"
            )
        source = self._nodes.get(message.source)
        if source is not None and not source.up:
            return  # a dead host sends nothing
        self.stats.record_sent(message)
        try:
            frame = encode_frame(
                encode_message(message), self.max_frame_bytes
            )
        except WireCodecError:
            self.wire_counters["codec_errors"] += 1
            raise
        if not self._post(self._write, message.target, route, frame, peer):
            self.wire_counters["frames_dropped"] += 1

    def _write(
        self,
        node_id: str,
        writer: "Optional[asyncio.StreamWriter]",
        frame: bytes,
        peer: "Optional[Address]",
    ) -> None:
        """Loop-thread half of a remote send: the learned route first,
        falling back to the registered peer's connection."""
        manager = self._manager
        assert manager is not None  # set for the loop's whole life
        if writer is not None:
            if manager.send_via(writer, frame):
                return
            self._routes.pop(node_id, None)
        if peer is not None:
            manager.send_to_peer(peer, frame)

    # Local delivery (loop thread) -------------------------------------------

    def _enqueue(self, message: Message) -> None:
        """Join the window; its first message books the next turn's flush."""
        if not self._window:
            assert self._loop is not None
            self._loop.call_soon(self._flush)
        self._window.append(message)

    def _flush(self) -> None:
        window, self._window = self._window, []
        step = self.batch_max
        for start in range(0, len(window), step):
            chunk = window[start:start + step]
            if len(chunk) > 1:
                self.stats.record_batch_flush(len(chunk))
            self._deliver_batch_now(chunk)

    def _hand_over(self, endpoint: Endpoint, run: "List[Message]") -> None:
        """A raising handler loses only the message it was handling: it
        moves from delivered to dropped, the loop's exception handler
        reports it, and the rest of its run is handed over again."""
        run = _Run(run)
        while run:
            try:
                endpoint.deliver_batch(run)
                return
            except Exception as exc:  # noqa: BLE001 - see docstring
                self.stats.record_handler_error(run[run.at])
                self._loop.call_exception_handler({  # type: ignore[union-attr]
                    "message": f"handler {endpoint.name!r} raised",
                    "exception": exc,
                })
                run = _Run(run[run.at + 1:])

    # Timers and waiting -----------------------------------------------------

    def schedule(
        self, node_id: str, delay_ms: float, callback: Callable[[], None]
    ) -> Callable[[], None]:
        node = self.node(node_id)
        handle: "List[asyncio.TimerHandle]" = []

        def fire() -> None:
            # The loop's exception handler reports a raising callback.
            if node.up:
                callback()

        def arm() -> None:
            assert self._loop is not None
            handle.append(
                self._loop.call_later(max(0.0, delay_ms) / 1000.0, fire)
            )

        if not self._post(arm):
            raise TransportError("WireTransport.schedule before start()")
        return lambda: self._post(lambda: handle and handle[0].cancel())

    def now_ms(self) -> float:
        return (time.monotonic() - self._epoch) * 1000.0

    def wait_for(
        self, predicate: Callable[[], bool], timeout_ms: Optional[float] = None
    ) -> bool:
        if threading.get_ident() == self._loop_ident:
            raise TransportError(
                "WireTransport.wait_for called on the wire-loop thread: "
                "it delivers the messages the predicate waits for, so "
                "the wait could never finish"
            )
        deadline = (
            None if timeout_ms is None
            else time.monotonic() + timeout_ms / 1000.0
        )
        while not predicate():
            if deadline is not None and time.monotonic() >= deadline:
                return predicate()
            time.sleep(0.001)
        return True

    # Receiving (loop thread) ------------------------------------------------

    async def _on_client(
        self,
        reader: "asyncio.StreamReader",
        writer: "asyncio.StreamWriter",
    ) -> None:
        manager = self._manager
        if manager is None:
            writer.close()
            return
        manager.adopt(reader, writer)

    def _on_payload(
        self, payload: bytes, writer: "asyncio.StreamWriter"
    ) -> None:
        try:
            message = decode_message(payload)
        except WireCodecError:
            # One bad message does not poison the connection (framing
            # is intact); it is counted and dropped, like a malformed
            # body at the mailbox boundary.
            self.wire_counters["codec_errors"] += 1
            return
        source = message.source
        if source not in self._nodes and self._routes.get(source) is not writer:
            self._routes[source] = writer
            self.wire_counters["routes_learned"] += 1
        if message.target not in self._nodes:
            self.stats.record_dropped(message)
            return
        self._enqueue(message)

    def _on_disconnect(self, writer: "asyncio.StreamWriter") -> None:
        for node_id in [
            n for n, w in self._routes.items() if w is writer
        ]:
            del self._routes[node_id]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        where = self._bound if self._bound else "unbound"
        return (
            f"<WireTransport {where} local={list(self._nodes)} "
            f"peers={list(self._peers)}>"
        )
