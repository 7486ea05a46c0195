import threading

import pytest

from ringtrain.errors import CommunicationError
from ringtrain.transport.tcp import listen, serve_probe


@pytest.fixture
def probe_session():
    """Serve one probe session on loopback, on a thread of its own; yields the address,
    the thread and a list that receives the type of the session's failure."""
    listener = listen("127.0.0.1", 0, 1)
    address, failures = listener.getsockname(), []

    def serve():
        try:
            serve_probe(listener)
        except CommunicationError as exc:   # not exc: its frames would keep a leak alive
            failures.append(type(exc))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield address, thread, failures
    thread.join(timeout=10.0)
    assert not thread.is_alive()
