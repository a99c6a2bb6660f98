//! The TCP front end: frames on a socket in, engine submissions out.
//!
//! One thread accepts connections; each connection gets a handler
//! thread speaking the `proto` frame protocol. The handler is a thin
//! adapter — every admission, coalescing and durability decision lives
//! in the [`Engine`]; the handler only translates [`Submission`]s and
//! [`JobEvent`]s into response frames.
//!
//! Corrupt input never kills the daemon: a frame that fails to decode
//! gets a best-effort [`Response::Invalid`] and the connection is
//! closed; the listener keeps serving everyone else. Neither can a
//! client that stops reading: a response write that makes no progress
//! for [`SERVE_POLICY`]'s write timeout (2 s) closes its connection.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use ddsc_util::net::{Listener, StopHandle, SERVE_POLICY};

use crate::engine::{Engine, EngineConfig, JobEvent, Outcome, Submission};
use crate::proto::{read_request, write_response, Request, Response, StatsSnapshot, WireError};

/// A bound, ready-to-run service front end.
pub struct Server {
    listener: Listener,
    engine: Arc<Engine>,
}

/// What the daemon did over its lifetime, reported when `run` returns.
#[derive(Debug, Clone, Copy)]
pub struct ServeSummary {
    /// Final counter snapshot.
    pub stats: StatsSnapshot,
    /// Connections accepted.
    pub connections: u64,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// engine. With `port_file`, the actual bound address is published
    /// atomically so scripts can wait for it.
    ///
    /// # Errors
    ///
    /// Returns bind / journal-open / port-file errors.
    pub fn bind(
        addr: &str,
        engine: EngineConfig,
        port_file: Option<&std::path::Path>,
    ) -> io::Result<Server> {
        let listener = Listener::bind(addr, port_file)?;
        let engine = Arc::new(Engine::start(engine)?);
        Ok(Server { listener, engine })
    }

    /// The actually bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// A handle that can stop the accept loop from another thread.
    pub fn stop_handle(&self) -> StopHandle {
        self.listener.stop_handle()
    }

    /// Runs the accept loop until a `Shutdown` request (or a
    /// [`StopHandle`]) stops it, then drains the engine. Blocking —
    /// callers wanting a background server spawn a thread around it.
    pub fn run(self) -> ServeSummary {
        let mut connections = 0u64;
        self.listener.accept_until_stopped(SERVE_POLICY, |stream| {
            connections += 1;
            let engine = Arc::clone(&self.engine);
            let stop = self.listener.stop_handle();
            std::thread::spawn(move || handle_connection(&stream, &engine, &stop));
        });
        self.engine.shutdown();
        ServeSummary {
            stats: self.engine.stats(),
            connections,
        }
    }
}

/// Answers one connection's requests. Each response is one frame
/// written straight to the socket; a timed-out write errors out of the
/// loop like any other failed send, and the connection closes.
fn handle_connection(stream: &TcpStream, engine: &Engine, stop: &StopHandle) {
    let mut reader = BufReader::new(stream);
    let mut writer = stream;

    loop {
        let sent = match read_request(&mut reader) {
            Ok(None) | Err(WireError::Io(_)) => break,
            Ok(Some(Request::Ping)) => write_response(&mut writer, &Response::Pong),
            Ok(Some(Request::Stats)) => {
                write_response(&mut writer, &Response::Stats(engine.stats()))
            }
            Ok(Some(Request::Shutdown)) => {
                let _ = write_response(&mut writer, &Response::ShuttingDown);
                stop.stop();
                break;
            }
            Ok(Some(Request::Submit(req))) => handle_submit(&mut writer, engine, &req),
            Err(e) => {
                // Corrupt framing: answer with a typed error if the
                // socket still writes, then drop the connection — the
                // stream position is no longer trustworthy.
                let _ = write_response(
                    &mut writer,
                    &Response::Invalid {
                        reason: format!("bad frame: {e}"),
                    },
                );
                break;
            }
        };
        if sent.is_err() {
            break;
        }
    }
}

fn handle_submit(
    writer: &mut impl Write,
    engine: &Engine,
    req: &crate::proto::SubmitRequest,
) -> io::Result<()> {
    match engine.submit(req) {
        Submission::Cached(outcome) => write_response(writer, &outcome_response(&outcome)),
        Submission::Invalid { reason } => write_response(writer, &Response::Invalid { reason }),
        Submission::RejectedBusy { reason } => {
            write_response(writer, &Response::Rejected { reason })
        }
        Submission::Joined { events, depth, .. } => {
            write_response(writer, &Response::Queued { depth })?;
            loop {
                match events.recv() {
                    Ok(JobEvent::Started) => write_response(writer, &Response::Started)?,
                    Ok(JobEvent::Finished(outcome)) => {
                        return write_response(writer, &outcome_response(&outcome));
                    }
                    // Engine shut down before the cell ran: terminal
                    // failure, never a hang.
                    Err(_) => {
                        return write_response(
                            writer,
                            &Response::Failed {
                                error: "server shut down before the cell ran".to_string(),
                            },
                        );
                    }
                }
            }
        }
    }
}

fn outcome_response(outcome: &Outcome) -> Response {
    match outcome {
        Outcome::Done { digest, body } => Response::Result {
            digest: *digest,
            body: (**body).clone(),
        },
        Outcome::Failed { error } => Response::Failed {
            error: error.clone(),
        },
        Outcome::TimedOut { error } => Response::TimedOut {
            error: error.clone(),
        },
    }
}
