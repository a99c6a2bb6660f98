//! The one connection layer of the TCP front doors (`ddsc serve`, the
//! dist coordinator and the chaos proxy): a [`Listener`] with one accept
//! loop and one [`StopHandle`], and one [`SocketPolicy`] constant per
//! caller. No other library code sets a socket option.
//!
//! A stop sets a flag and makes a throwaway connection to the listener,
//! so a blocked `accept` returns and the loop sees the flag. A stop
//! requested before the loop runs leaves that connection in the
//! backlog, and the loop's first accept ends it.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::publish_atomic;

/// The options one caller sets on each of its sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocketPolicy {
    /// `TCP_NODELAY`: send each write at once, where Nagle's algorithm
    /// holds a small one back until the peer acknowledges the last.
    pub nodelay: bool,
    /// How long a read may wait for data; `None` waits for good.
    pub read_timeout: Option<Duration>,
    /// How long a write may make no progress; `None` waits for good.
    pub write_timeout: Option<Duration>,
}

/// `ddsc serve`'s accepted sockets. The write timeout closes the
/// connection of a client that stops reading, where a blocked answer
/// write would park its handler thread for good. Nagle stays on:
/// turning it off moves serve's latency and memory, and is measured on
/// its own.
pub const SERVE_POLICY: SocketPolicy = SocketPolicy {
    nodelay: false,
    read_timeout: None,
    write_timeout: Some(Duration::from_secs(2)),
};

/// The coordinator's accepted worker sockets. The read timeout doubles
/// as a completion poll, so a handler exits shortly after the grid
/// finishes even if its worker hangs mid-cell. The write timeout keeps
/// a peer (or an interposed proxy) that stops draining from wedging a
/// handler, and `run`'s thread scope with it, in a blocked write; the
/// worker is then treated as lost and its leases re-dispatch.
pub const COORDINATOR_POLICY: SocketPolicy = SocketPolicy {
    nodelay: true,
    read_timeout: Some(Duration::from_millis(500)),
    write_timeout: Some(Duration::from_secs(2)),
};

/// A worker's socket to its coordinator. The timeouts bound how long a
/// worker hangs on a coordinator (or proxy) that goes silent or stops
/// draining; either way the session errors out and the worker
/// reconnects.
pub const WORKER_POLICY: SocketPolicy = SocketPolicy {
    nodelay: true,
    read_timeout: Some(Duration::from_secs(30)),
    write_timeout: Some(Duration::from_secs(30)),
};

/// Both legs of each connection the chaos proxy forwards.
pub const CHAOS_PROXY_POLICY: SocketPolicy = SocketPolicy {
    nodelay: true,
    read_timeout: None,
    write_timeout: None,
};

impl SocketPolicy {
    /// Sets the policy's options on `stream`, accepted or connected. An
    /// option the socket refuses keeps its OS default.
    pub fn apply(&self, stream: &TcpStream) {
        let _ = stream.set_nodelay(self.nodelay);
        let _ = stream.set_read_timeout(self.read_timeout);
        let _ = stream.set_write_timeout(self.write_timeout);
    }
}

/// A bound listener with one accept loop and one stop handle.
pub struct Listener {
    inner: TcpListener,
    stop: StopHandle,
}

impl Listener {
    /// Binds `addr` (port 0 picks an ephemeral port). With `port_file`,
    /// the bound address is published there atomically, so scripts can
    /// wait for it.
    ///
    /// # Errors
    ///
    /// Bind and port-file errors.
    pub fn bind(addr: &str, port_file: Option<&Path>) -> io::Result<Listener> {
        let inner = TcpListener::bind(addr)?;
        let addr = inner.local_addr()?;
        if let Some(path) = port_file {
            publish_atomic(path, addr.to_string().as_bytes())?;
        }
        let stopped = Arc::new(AtomicBool::new(false));
        Ok(Listener {
            inner,
            stop: StopHandle { stopped, addr },
        })
    }

    /// The bound address (port 0 resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.stop.addr
    }

    /// The handle that ends [`Listener::accept_until_stopped`].
    pub fn stop_handle(&self) -> StopHandle {
        self.stop.clone()
    }

    /// Accepts connections until the stop handle fires, and hands each
    /// accepted stream to `handle` with `policy` applied. `handle` runs
    /// on the loop's thread and spawns whatever thread serves the
    /// connection. A failed accept is skipped.
    pub fn accept_until_stopped(&self, policy: SocketPolicy, mut handle: impl FnMut(TcpStream)) {
        for stream in self.inner.incoming() {
            if self.stop.stopped.load(Ordering::SeqCst) {
                return;
            }
            if let Ok(stream) = stream {
                policy.apply(&stream);
                handle(stream);
            }
        }
    }
}

/// Ends a [`Listener`]'s accept loop from any thread.
#[derive(Clone)]
pub struct StopHandle {
    stopped: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl StopHandle {
    /// Ends the accept loop, whether it is running or yet to run. A
    /// second stop does nothing.
    pub fn stop(&self) {
        if !self.stopped.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Instant;

    fn loopback() -> Listener {
        Listener::bind("127.0.0.1:0", None).expect("bind")
    }

    #[test]
    fn each_caller_keeps_its_socket_policy() {
        let (ms, s) = (Duration::from_millis, Duration::from_secs);
        // One row per caller: policy, nodelay, read and write timeouts.
        // `ddsc loadtest` has no row: its sockets keep the OS defaults.
        for (got, nodelay, read_timeout, write_timeout) in [
            (SERVE_POLICY, false, None, Some(s(2))),
            (COORDINATOR_POLICY, true, Some(ms(500)), Some(s(2))),
            (WORKER_POLICY, true, Some(s(30)), Some(s(30))),
            (CHAOS_PROXY_POLICY, true, None, None),
        ] {
            let want = SocketPolicy {
                nodelay,
                read_timeout,
                write_timeout,
            };
            assert_eq!(got, want);
        }
    }

    #[test]
    fn a_stop_before_the_loop_runs_ends_it_at_once() {
        let listener = loopback();
        listener.stop_handle().stop();
        let t0 = Instant::now();
        let mut accepted = 0;
        listener.accept_until_stopped(CHAOS_PROXY_POLICY, |_| accepted += 1);
        assert_eq!(accepted, 0, "the stop's own connection is not handed on");
        assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
    }

    #[test]
    fn a_second_stop_is_harmless() {
        let listener = loopback();
        let stop = listener.stop_handle();
        stop.stop();
        stop.clone().stop();
        listener.accept_until_stopped(CHAOS_PROXY_POLICY, |_| {});
        drop(listener);
        stop.stop();
    }

    #[test]
    fn a_stop_from_a_handler_thread_ends_the_loop() {
        // As serve's `Shutdown` request does: the handler of a
        // connection stops the loop that accepted it.
        let listener = loopback();
        let addr = listener.local_addr();
        let client = std::thread::spawn(move || TcpStream::connect(addr).expect("connect"));
        let mut handlers = Vec::new();
        listener.accept_until_stopped(SERVE_POLICY, |stream| {
            let stop = listener.stop_handle();
            handlers.push(std::thread::spawn(move || {
                drop(stream);
                stop.stop();
            }));
        });
        assert_eq!(handlers.len(), 1);
        for h in handlers {
            h.join().expect("handler");
        }
        client.join().expect("client");
    }

    #[test]
    fn the_port_file_holds_the_bound_address() {
        let dir = std::env::temp_dir().join(format!("ddsc-net-port-{}", std::process::id()));
        let path = dir.join("port");
        let listener = Listener::bind("127.0.0.1:0", Some(&path)).expect("bind");
        assert_ne!(listener.local_addr().port(), 0, "port 0 is resolved");
        let published = std::fs::read_to_string(&path).expect("port file");
        assert_eq!(published, listener.local_addr().to_string());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn accepted_and_client_streams_read_back_their_policy() {
        for policy in [
            SERVE_POLICY,
            COORDINATOR_POLICY,
            WORKER_POLICY,
            CHAOS_PROXY_POLICY,
        ] {
            let listener = loopback();
            let client = TcpStream::connect(listener.local_addr()).expect("connect");
            policy.apply(&client);
            let (tx, rx) = mpsc::channel();
            listener.accept_until_stopped(policy, |stream| {
                let read_back = |s: &TcpStream| SocketPolicy {
                    nodelay: s.nodelay().expect("nodelay"),
                    read_timeout: s.read_timeout().expect("read timeout"),
                    write_timeout: s.write_timeout().expect("write timeout"),
                };
                tx.send((read_back(&stream), read_back(&client)))
                    .expect("send");
                listener.stop_handle().stop();
            });
            let (accepted, connected) = rx.recv().expect("one stream");
            assert_eq!(accepted, policy, "accepted stream");
            assert_eq!(connected, policy, "client stream");
        }
    }
}
