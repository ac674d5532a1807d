"""The served workloads' server: one child process, default ``ServeOptions``.

Started by :class:`workloads.ServerProc` with ``PYTHONPATH`` and the
hermetic ``REPRO_*`` directories already in its environment.  Prints
``PORT <n>`` once the TCP front-end listens; SIGTERM drains and exits
(the pattern of ``tests/serve/test_drain_sigterm.py``).
"""

import asyncio

from repro.serve import StencilServer, serve_tcp


async def main() -> None:
    server = StencilServer()
    await server.start()
    # The idempotency journal keeps whole responses.  At the default 256
    # entries and 16.8 MB per large job it retains 4 GB, and the child's
    # steady growth crosses into memory the VM has not backed yet, where
    # page faults cost twice as much: latency doubled mid-run, at a point
    # that moved between runs.  16 entries bound the child's memory.
    net = await serve_tcp(server, "127.0.0.1", 0, journal_limit=16)
    net.install_signal_handlers()
    print("PORT", net.port, flush=True)
    await net.serve_forever()


if __name__ == "__main__":
    asyncio.run(main())
