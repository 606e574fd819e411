//! The line transports shared by `lift_server` and `lift_router`: one
//! JSON line in, a stream of event lines out, over stdin/stdout or TCP.
//!
//! Both binaries speak the same wire protocol and differ only in what a
//! line *does* — the server admits it to the job queue, the router
//! forwards it to a replica. [`LineHandler`] captures that difference;
//! [`serve_stdio`] and [`serve_listener`] own the loops, so the
//! transports are written (and tested) once.
//!
//! A cache hit answers in tens of microseconds, so the transport must
//! not add waits of its own: every event leaves in one write, every
//! protocol socket runs with `TCP_NODELAY` (see [`connect`]), and the
//! listener blocks in `accept()` instead of polling.

use std::collections::HashMap;
use std::io::{BufRead, ErrorKind, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::protocol::Event;
use crate::server::{EventSink, LineAction, ServerHandle};

/// One connection's request processor: the server and the router each
/// implement it, and the transports below drive it. A fresh handler is
/// created per connection (its request-id namespace), so implementations
/// may keep per-connection state behind `&self`.
pub trait LineHandler {
    /// Executes one wire line; events (including errors) go to `sink`.
    fn handle_line(&self, line: &str, sink: &EventSink) -> LineAction;

    /// The connection went away without a `shutdown` request: stop any
    /// work the peer can no longer observe.
    fn on_disconnect(&self) {}
}

impl LineHandler for ServerHandle {
    fn handle_line(&self, line: &str, sink: &EventSink) -> LineAction {
        ServerHandle::handle_line(self, line, sink)
    }

    fn on_disconnect(&self) {
        // Abandoned lifts must not keep burning workers.
        let cancelled = self.cancel_all();
        if cancelled > 0 {
            eprintln!(
                "lift_server: client disconnected, cancelled {cancelled} in-flight lift(s)"
            );
        }
    }
}

/// Serves one client on stdin/stdout until EOF or a `shutdown` request.
/// EOF means "no more requests", not "stop": the caller decides whether
/// to drain outstanding work (the batch idiom) before exiting.
pub fn serve_stdio<H: LineHandler>(handler: &H) -> LineAction {
    let stdout = Arc::new(Mutex::new(std::io::stdout()));
    let sink: EventSink = Arc::new(move |event: &Event| {
        let mut out = stdout.lock().expect("stdout poisoned");
        let _ = out.write_all(event_line(event).as_bytes());
        let _ = out.flush();
    });
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if handler.handle_line(&line, &sink) == LineAction::Shutdown {
            return LineAction::Shutdown;
        }
    }
    LineAction::Continue
}

/// Opens a protocol connection: resolves `addr`, connects within
/// `timeout` and sets `TCP_NODELAY`, so no event line waits on Nagle's
/// algorithm for the peer's delayed ACK.
///
/// # Errors
///
/// Resolution, connect or socket-option errors.
pub fn connect(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            ErrorKind::InvalidInput,
            format!("`{addr}` resolves to no address"),
        )
    })?;
    let stream = TcpStream::connect_timeout(&resolved, timeout)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Accepts TCP clients on an already-bound listener (callers bind —
/// tests use port 0) until one of them requests shutdown, creating one
/// handler per connection via `new_handler`. The accept blocks; the
/// connection that carries `shutdown` wakes it by connecting to the
/// listener itself. A registry of live connections lets the shutdown
/// unblock siblings idle in blocking reads by shutting their sockets
/// down, so it stops the whole process promptly. Each connection leaves
/// the registry when it ends, so it never holds a closed client's
/// socket. `label` prefixes connection log lines.
pub fn serve_listener<H, F>(listener: TcpListener, label: &str, new_handler: F)
where
    H: LineHandler + Send,
    F: Fn() -> H + Sync,
{
    let wake_addr = loopback_if_unspecified(listener.local_addr().expect("listener address"));
    let stop = AtomicBool::new(false);
    let connections: Mutex<HashMap<u64, TcpStream>> = Mutex::new(HashMap::new());
    std::thread::scope(|scope| {
        for id in 0u64.. {
            let (stream, peer) = match listener.accept() {
                Ok(accepted) => accepted,
                Err(e) => match e.kind() {
                    // A signal landed, or the peer gave up before the accept.
                    ErrorKind::Interrupted | ErrorKind::ConnectionAborted => continue,
                    _ => {
                        eprintln!("{label}: accept failed: {e}");
                        break;
                    }
                },
            };
            if stop.load(Ordering::Acquire) {
                break;
            }
            eprintln!("{label}: client {peer} connected");
            let _ = stream.set_nodelay(true);
            if let Ok(clone) = stream.try_clone() {
                connections
                    .lock()
                    .expect("connections poisoned")
                    .insert(id, clone);
            }
            let handler = new_handler();
            let (stop, connections) = (&stop, &connections);
            scope.spawn(move || {
                let action = serve_connection(&handler, stream);
                connections
                    .lock()
                    .expect("connections poisoned")
                    .remove(&id);
                if action == LineAction::Shutdown {
                    stop.store(true, Ordering::Release);
                    if let Err(e) = connect(&wake_addr.to_string(), WAKE_TIMEOUT) {
                        eprintln!("{label}: could not wake the listener at {wake_addr}: {e}");
                    }
                }
            });
        }
        // Unblock every connection thread parked in a read; their loops
        // then exit and the scope join completes.
        for conn in connections.lock().expect("connections poisoned").values() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    });
}

/// How long the shutdown wake-up may take to reach the listener.
const WAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// The address a local client reaches a listener at: a listener bound
/// to `0.0.0.0` or `::` is reached over loopback.
fn loopback_if_unspecified(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        let loopback: IpAddr = match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        };
        addr.set_ip(loopback);
    }
    addr
}

/// An event as one wire line, newline included, so each event leaves in
/// a single write.
fn event_line(event: &Event) -> String {
    let mut line = event.to_line();
    line.push('\n');
    line
}

/// Serves one TCP client until disconnect or a `shutdown` request.
fn serve_connection<H: LineHandler>(handler: &H, stream: TcpStream) -> LineAction {
    let Ok(writer) = stream.try_clone() else {
        return LineAction::Continue;
    };
    let writer = Mutex::new(writer);
    let sink: EventSink = Arc::new(move |event: &Event| {
        // A disconnected peer just drops its events.
        let mut out = writer.lock().expect("writer poisoned");
        let _ = out.write_all(event_line(event).as_bytes());
    });
    let reader = std::io::BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if handler.handle_line(&line, &sink) == LineAction::Shutdown {
            return LineAction::Shutdown;
        }
    }
    handler.on_disconnect();
    LineAction::Continue
}
