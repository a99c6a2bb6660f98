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
//! for `WRITE_TIMEOUT` (2 s) closes its connection.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ddsc_util::publish_atomic;

use crate::engine::{Engine, EngineConfig, JobEvent, Outcome, Submission};
use crate::proto::{read_request, write_response, Request, Response, StatsSnapshot, WireError};

/// How long a handler's response write may make no progress before its
/// connection is closed, so a client that stops reading cannot park the
/// handler thread for good. The dist coordinator gives its connections
/// the same.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// A bound, ready-to-run service front end.
pub struct Server {
    listener: TcpListener,
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
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
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        if let Some(path) = port_file {
            publish_atomic(path, addr.to_string().as_bytes())?;
        }
        let engine = Arc::new(Engine::start(engine)?);
        Ok(Server {
            listener,
            engine,
            stop: Arc::new(AtomicBool::new(false)),
            addr,
        })
    }

    /// The actually bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can stop the accept loop from another thread.
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle {
            stop: Arc::clone(&self.stop),
            addr: self.addr,
        }
    }

    /// Runs the accept loop until a `Shutdown` request (or a
    /// [`StopHandle`]) stops it, then drains the engine. Blocking —
    /// callers wanting a background server spawn a thread around it.
    pub fn run(self) -> ServeSummary {
        let mut connections = 0u64;
        for stream in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            connections += 1;
            let engine = Arc::clone(&self.engine);
            let stop = Arc::clone(&self.stop);
            let addr = self.addr;
            std::thread::spawn(move || {
                handle_connection(stream, &engine, &stop, addr);
            });
        }
        self.engine.shutdown();
        ServeSummary {
            stats: self.engine.stats(),
            connections,
        }
    }
}

/// Stops a running server's accept loop from outside.
#[derive(Clone)]
pub struct StopHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl StopHandle {
    /// Requests the accept loop to exit (idempotent).
    pub fn stop(&self) {
        request_stop(&self.stop, self.addr);
    }
}

fn request_stop(stop: &AtomicBool, addr: SocketAddr) {
    stop.store(true, Ordering::SeqCst);
    // The accept loop only observes the flag on its next accept; a
    // throwaway self-connection delivers one.
    let _ = TcpStream::connect(addr);
}

fn handle_connection(stream: TcpStream, engine: &Engine, stop: &AtomicBool, addr: SocketAddr) {
    // A timed-out write errors out of the loop below like any other
    // failed send, and the connection closes.
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let reader = stream.try_clone();
    let Ok(reader) = reader else { return };
    let mut reader = BufReader::new(reader);
    let mut writer = BufWriter::new(stream);

    loop {
        match read_request(&mut reader) {
            Ok(None) => break,
            Ok(Some(Request::Ping)) => {
                if send(&mut writer, &Response::Pong).is_err() {
                    break;
                }
            }
            Ok(Some(Request::Stats)) => {
                if send(&mut writer, &Response::Stats(engine.stats())).is_err() {
                    break;
                }
            }
            Ok(Some(Request::Shutdown)) => {
                let _ = send(&mut writer, &Response::ShuttingDown);
                request_stop(stop, addr);
                break;
            }
            Ok(Some(Request::Submit(req))) => {
                if handle_submit(&mut writer, engine, &req).is_err() {
                    break;
                }
            }
            Err(WireError::Io(_)) => break,
            Err(e) => {
                // Corrupt framing: answer with a typed error if the
                // socket still writes, then drop the connection — the
                // stream position is no longer trustworthy.
                let _ = send(
                    &mut writer,
                    &Response::Invalid {
                        reason: format!("bad frame: {e}"),
                    },
                );
                break;
            }
        }
    }
    // Every answer sent was flushed; what is left unflushed is an answer
    // whose write failed, and flushing it on drop would block on the
    // same client once more.
    drop(writer.into_parts());
}

fn handle_submit(
    writer: &mut impl Write,
    engine: &Engine,
    req: &crate::proto::SubmitRequest,
) -> io::Result<()> {
    match engine.submit(req) {
        Submission::Cached(outcome) => send(writer, &outcome_response(&outcome)),
        Submission::Invalid { reason } => send(writer, &Response::Invalid { reason }),
        Submission::RejectedBusy { reason } => send(writer, &Response::Rejected { reason }),
        Submission::Joined { events, depth, .. } => {
            send(writer, &Response::Queued { depth })?;
            loop {
                match events.recv() {
                    Ok(JobEvent::Started) => send(writer, &Response::Started)?,
                    Ok(JobEvent::Finished(outcome)) => {
                        return send(writer, &outcome_response(&outcome));
                    }
                    // Engine shut down before the cell ran: terminal
                    // failure, never a hang.
                    Err(_) => {
                        return send(
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

fn send(writer: &mut impl Write, resp: &Response) -> io::Result<()> {
    write_response(writer, resp)?;
    writer.flush()
}
