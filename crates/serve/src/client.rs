//! A small synchronous TCP client for `lift_server`, used by the
//! `lift_client` binary and available to scripted consumers.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use gtl_trace::SpanRecord;

use crate::protocol::{Event, LiftRequest, Request, ServerStats, WireError};

/// A connected client: sends [`Request`]s, reads [`Event`]s.
pub struct LiftClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A client-side failure: transport error or a malformed server line.
#[derive(Debug)]
pub enum ClientError {
    /// The TCP connection failed or dropped.
    Io(std::io::Error),
    /// The server sent a line that does not decode as an event.
    Protocol(WireError),
    /// The server closed the stream before the expected event arrived.
    Disconnected,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl LiftClient {
    /// Connects to a running `lift_server` (or `lift_router`), with
    /// `TCP_NODELAY` set like every protocol socket.
    ///
    /// # Errors
    ///
    /// Any connection error.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<LiftClient, ClientError> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(LiftClient { writer, reader })
    }

    /// Applies a read timeout to [`LiftClient::next_event`]; `None`
    /// blocks indefinitely (the default). A timed-out read surfaces as
    /// [`ClientError::Io`] with kind `WouldBlock`/`TimedOut`.
    ///
    /// # Errors
    ///
    /// Any socket-option error.
    pub fn set_read_timeout(&mut self, timeout: Option<std::time::Duration>) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// Any write error.
    pub fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        let mut line = request.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    /// Reads the next event; `None` on a cleanly closed connection.
    ///
    /// # Errors
    ///
    /// Read errors, or a server line that does not decode.
    pub fn next_event(&mut self) -> Result<Option<Event>, ClientError> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            if line.trim().is_empty() {
                continue;
            }
            return Event::parse_line(line.trim())
                .map(Some)
                .map_err(ClientError::Protocol);
        }
    }

    /// Submits a lift and blocks until its stream terminates, returning
    /// every event of the request (interleaved events of *other*
    /// requests on this connection are returned too — a scripted client
    /// normally has one request in flight).
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or disconnection mid-stream.
    pub fn lift(&mut self, request: LiftRequest) -> Result<Vec<Event>, ClientError> {
        let id = request.id.clone();
        self.send(&Request::Lift(request))?;
        let mut events = Vec::new();
        loop {
            match self.next_event()? {
                None => return Err(ClientError::Disconnected),
                Some(event) => {
                    let terminal =
                        event.is_terminal() && event.id().is_none_or(|eid| eid == id);
                    events.push(event);
                    if terminal {
                        return Ok(events);
                    }
                }
            }
        }
    }

    /// Cancels an in-flight lift.
    ///
    /// # Errors
    ///
    /// Any write error.
    pub fn cancel(&mut self, id: impl Into<String>) -> Result<(), ClientError> {
        self.send(&Request::Cancel { id: id.into() })
    }

    /// Fetches a server statistics snapshot. Must not be called while a
    /// lift of this connection is still streaming (events would
    /// interleave); scripted clients call it between lifts.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or disconnection before the answer.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        self.send(&Request::Stats)?;
        loop {
            match self.next_event()? {
                None => return Err(ClientError::Disconnected),
                Some(Event::Stats { stats }) => return Ok(stats),
                Some(_) => continue, // stale events of finished lifts
            }
        }
    }

    /// Fetches the Prometheus text-format metrics exposition. Same
    /// interleaving caveat as [`LiftClient::stats`].
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or disconnection before the answer.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.send(&Request::Metrics)?;
        loop {
            match self.next_event()? {
                None => return Err(ClientError::Disconnected),
                Some(Event::Metrics { text }) => return Ok(text),
                Some(_) => continue, // stale events of finished lifts
            }
        }
    }

    /// Fetches the recent spans recorded under one trace ID (through a
    /// router, the concatenation over every replica). Same interleaving
    /// caveat as [`LiftClient::stats`].
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or disconnection before the answer.
    pub fn trace(&mut self, trace_id: impl Into<String>) -> Result<Vec<SpanRecord>, ClientError> {
        let trace_id = trace_id.into();
        self.send(&Request::Trace {
            trace_id: trace_id.clone(),
        })?;
        loop {
            match self.next_event()? {
                None => return Err(ClientError::Disconnected),
                Some(Event::Trace { trace_id: got, spans }) if got == trace_id => {
                    return Ok(spans)
                }
                Some(_) => continue, // stale events of finished lifts
            }
        }
    }

    /// Asks the server to shut down.
    ///
    /// # Errors
    ///
    /// Any write error.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Shutdown)
    }
}
