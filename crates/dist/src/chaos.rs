//! A deterministic network-chaos proxy for the coordinator/worker
//! fleet.
//!
//! [`ChaosProxy`] sits between workers and the coordinator on loopback
//! TCP and applies a **seeded script** of faults to each proxied
//! connection: delays, dropped bytes, bit flips, duplicated bytes,
//! stream truncations and mid-stream connection resets. The script for
//! a connection is a pure function of `(seed, connection index,
//! direction)` — see [`script`] — and events are anchored at byte
//! *offsets* in the stream, not at read-call boundaries, so the same
//! seed always yields the same event script regardless of how TCP
//! happens to chunk the bytes. Chaos drills are therefore reproducible
//! CI artifacts, not flaky luck.
//!
//! None of the faults can corrupt the merged grid: the dist protocol's
//! frames are checksummed (a flipped bit or dropped range makes the
//! frame undecodable, the connection is treated as lost, and the
//! worker reconnects with backoff), results are validated and deduped
//! by digest on ingest, and byzantine counters are the spot checks'
//! job. The proxy exists to *prove* that under a hostile transport the
//! run still completes byte-identical to a single-process run.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ddsc_util::net::{Listener, StopHandle, CHAOS_PROXY_POLICY};
use ddsc_util::{fnv1a, StreamFault, StreamFaultPlan};

/// Longest delay the proxy actually sleeps per event, whatever the
/// script says — keeps drills fast without changing the script.
const MAX_DELAY: Duration = Duration::from_millis(200);
/// Forwarded-bytes tail kept per direction for `Duplicate` replays.
const TAIL_CAP: usize = 256;

/// Which way bytes are flowing through one proxied connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Worker → coordinator.
    Upstream,
    /// Coordinator → worker.
    Downstream,
}

impl Direction {
    fn tag(self) -> u64 {
        match self {
            Direction::Upstream => 0x55,
            Direction::Downstream => 0xAA,
        }
    }
}

/// Tunables of the chaos schedule.
#[derive(Debug, Clone, Copy)]
pub struct ChaosOptions {
    /// Master seed; every per-connection script derives from it.
    pub seed: u64,
    /// Maximum fault events per connection direction.
    pub events_per_conn: usize,
    /// Minimum byte gap between events.
    pub min_gap: u64,
    /// Maximum byte gap between events (exclusive).
    pub max_gap: u64,
}

impl Default for ChaosOptions {
    fn default() -> ChaosOptions {
        ChaosOptions {
            seed: 0xC4A05,
            events_per_conn: 32,
            min_gap: 600,
            max_gap: 4000,
        }
    }
}

/// The deterministic fault script for connection `conn` in direction
/// `dir`: a pure function of the options, so two proxies (or two runs)
/// with the same seed produce identical scripts.
pub fn script(opts: &ChaosOptions, conn: u64, dir: Direction) -> StreamFaultPlan {
    let mut key = [0u8; 24];
    key[..8].copy_from_slice(&opts.seed.to_le_bytes());
    key[8..16].copy_from_slice(&conn.to_le_bytes());
    key[16..24].copy_from_slice(&dir.tag().to_le_bytes());
    StreamFaultPlan::seeded(
        fnv1a(&key),
        opts.events_per_conn,
        opts.min_gap,
        opts.max_gap,
    )
}

/// Counters of faults actually applied (events beyond a connection's
/// lifetime never fire, so these are ≤ the scripted totals).
#[derive(Debug, Default)]
struct ChaosStats {
    connections: AtomicU64,
    delays: AtomicU64,
    drops: AtomicU64,
    flips: AtomicU64,
    duplicates: AtomicU64,
    truncations: AtomicU64,
    resets: AtomicU64,
}

/// What one proxy run did, for logging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSummary {
    /// Connections proxied.
    pub connections: u64,
    /// Delay events applied.
    pub delays: u64,
    /// Byte-drop events applied.
    pub drops: u64,
    /// Bit-flip events applied.
    pub flips: u64,
    /// Duplicate-bytes events applied.
    pub duplicates: u64,
    /// Stream truncations applied.
    pub truncations: u64,
    /// Connection resets applied.
    pub resets: u64,
}

/// The chaos proxy: listens on one loopback address, forwards every
/// accepted connection to `upstream`, and perturbs both directions per
/// the seeded per-connection scripts.
pub struct ChaosProxy {
    listener: Listener,
    upstream: String,
    opts: ChaosOptions,
}

impl ChaosProxy {
    /// Binds the proxy's listen side (pass port 0 for ephemeral).
    /// `upstream` is resolved per connection, so the coordinator may
    /// bind after the proxy does.
    pub fn bind(
        listen: &str,
        upstream: impl Into<String>,
        opts: ChaosOptions,
    ) -> io::Result<ChaosProxy> {
        Ok(ChaosProxy {
            listener: Listener::bind(listen, None)?,
            upstream: upstream.into(),
            opts,
        })
    }

    /// The bound listen address workers should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// A handle that stops [`ChaosProxy::run`] from another thread.
    pub fn stop_handle(&self) -> StopHandle {
        self.listener.stop_handle()
    }

    /// Accepts and proxies connections until stopped; returns the
    /// applied-fault summary.
    pub fn run(self) -> ChaosSummary {
        let stats = &ChaosStats::default();
        std::thread::scope(|s| {
            self.listener
                .accept_until_stopped(CHAOS_PROXY_POLICY, |client| {
                    let Ok(server) = TcpStream::connect(&self.upstream) else {
                        // Upstream unreachable: drop the client; it will
                        // retry with backoff.
                        return;
                    };
                    CHAOS_PROXY_POLICY.apply(&server);
                    let conn = stats.connections.fetch_add(1, Ordering::Relaxed);
                    let up_plan = script(&self.opts, conn, Direction::Upstream);
                    let down_plan = script(&self.opts, conn, Direction::Downstream);
                    let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) else {
                        return;
                    };
                    s.spawn(move || pump(client, server, up_plan, stats));
                    s.spawn(move || pump(s2, c2, down_plan, stats));
                });
        });
        ChaosSummary {
            connections: stats.connections.load(Ordering::Relaxed),
            delays: stats.delays.load(Ordering::Relaxed),
            drops: stats.drops.load(Ordering::Relaxed),
            flips: stats.flips.load(Ordering::Relaxed),
            duplicates: stats.duplicates.load(Ordering::Relaxed),
            truncations: stats.truncations.load(Ordering::Relaxed),
            resets: stats.resets.load(Ordering::Relaxed),
        }
    }
}

/// Forwards `src` → `dst`, applying `plan`'s faults at their byte
/// offsets. Returns when either side closes, errors, or a terminal
/// fault fires.
fn pump(mut src: TcpStream, mut dst: TcpStream, plan: StreamFaultPlan, stats: &ChaosStats) {
    let shutdown_both = |a: &TcpStream, b: &TcpStream| {
        let _ = a.shutdown(Shutdown::Both);
        let _ = b.shutdown(Shutdown::Both);
    };
    let mut events = plan.events().iter().peekable();
    let mut pos = 0u64; // source-stream offset
    let mut drop_left = 0u64; // bytes still to swallow
    let mut flip_bit: Option<u8> = None; // pending bit flip
    let mut truncated = false; // discard (but keep draining) after Truncate
    let mut tail: Vec<u8> = Vec::with_capacity(TAIL_CAP); // recent forwarded bytes
    let mut buf = [0u8; 1024];
    loop {
        // Fire every event at or before the current offset.
        while events.peek().is_some_and(|&&(off, _)| off <= pos) {
            let &(_, fault) = events.next().unwrap();
            match fault {
                StreamFault::Delay { ms } => {
                    stats.delays.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(u64::from(ms)).min(MAX_DELAY));
                }
                StreamFault::Drop { len } => {
                    stats.drops.fetch_add(1, Ordering::Relaxed);
                    drop_left += u64::from(len);
                }
                StreamFault::FlipBit { bit } => {
                    stats.flips.fetch_add(1, Ordering::Relaxed);
                    flip_bit = Some(bit % 8);
                }
                StreamFault::Duplicate { len } => {
                    stats.duplicates.fetch_add(1, Ordering::Relaxed);
                    let n = (len as usize).min(tail.len());
                    if n > 0 && !truncated {
                        let replay = tail[tail.len() - n..].to_vec();
                        if dst.write_all(&replay).is_err() {
                            shutdown_both(&src, &dst);
                            return;
                        }
                    }
                }
                StreamFault::Truncate => {
                    stats.truncations.fetch_add(1, Ordering::Relaxed);
                    truncated = true;
                }
                StreamFault::Reset => {
                    stats.resets.fetch_add(1, Ordering::Relaxed);
                    shutdown_both(&src, &dst);
                    return;
                }
            }
        }
        // Read at most up to the next event boundary so events land at
        // exact byte offsets.
        let until = events
            .peek()
            .map(|&&(off, _)| off - pos)
            .unwrap_or(u64::MAX)
            .min(buf.len() as u64)
            .max(1) as usize;
        let n = match src.read(&mut buf[..until]) {
            Ok(0) => {
                // EOF: tear the whole proxied connection down, both
                // directions. A half-closed lane would leave the
                // paired pump as the only drain for the peer's writes
                // — and a pump that later exits without closing its
                // sockets can wedge that peer in a blocked `write`
                // forever. Full shutdown turns every such case into a
                // visible error both ends already handle (the worker
                // reconnects, the coordinator re-leases).
                shutdown_both(&src, &dst);
                return;
            }
            Ok(n) => n,
            Err(_) => {
                shutdown_both(&src, &dst);
                return;
            }
        };
        pos += n as u64;
        let mut chunk = &mut buf[..n];
        // Swallow dropped bytes from the front of the chunk.
        if drop_left > 0 {
            let eat = (drop_left as usize).min(chunk.len());
            drop_left -= eat as u64;
            chunk = &mut chunk[eat..];
        }
        if chunk.is_empty() {
            continue;
        }
        if let Some(bit) = flip_bit.take() {
            chunk[0] ^= 1 << bit;
        }
        if truncated {
            continue; // drain the source, forward nothing
        }
        if dst.write_all(chunk).is_err() {
            shutdown_both(&src, &dst);
            return;
        }
        // Keep the duplicate-replay tail current.
        if chunk.len() >= TAIL_CAP {
            tail.clear();
            tail.extend_from_slice(&chunk[chunk.len() - TAIL_CAP..]);
        } else {
            let overflow = (tail.len() + chunk.len()).saturating_sub(TAIL_CAP);
            tail.drain(..overflow);
            tail.extend_from_slice(chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn scripts_are_deterministic_per_connection_and_direction() {
        let opts = ChaosOptions::default();
        let a = script(&opts, 0, Direction::Upstream);
        let b = script(&opts, 0, Direction::Upstream);
        assert_eq!(a, b, "same (seed, conn, dir) must replay identically");
        assert_ne!(
            a,
            script(&opts, 0, Direction::Downstream),
            "directions must get independent scripts"
        );
        assert_ne!(
            a,
            script(&opts, 1, Direction::Upstream),
            "connections must get independent scripts"
        );
        let other = ChaosOptions {
            seed: opts.seed + 1,
            ..opts
        };
        assert_ne!(a, script(&other, 0, Direction::Upstream));
    }

    #[test]
    fn proxy_forwards_bytes_and_applies_scripted_faults() {
        // A quiet script (huge gaps) proxies an echo conversation
        // through untouched.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut conn, _) = upstream.accept().unwrap();
            let mut buf = [0u8; 64];
            loop {
                match conn.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => {
                        if conn.write_all(&buf[..n]).is_err() {
                            return;
                        }
                    }
                }
            }
        });
        let opts = ChaosOptions {
            min_gap: 1 << 30,
            max_gap: (1 << 30) + 1,
            ..ChaosOptions::default()
        };
        let proxy = ChaosProxy::bind("127.0.0.1:0", upstream_addr.to_string(), opts).unwrap();
        let addr = proxy.local_addr();
        let stop = proxy.stop_handle();
        let run = std::thread::spawn(move || proxy.run());
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(b"ping around the proxy").unwrap();
        let mut got = [0u8; 21];
        client.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"ping around the proxy");
        drop(client);
        stop.stop();
        let summary = run.join().unwrap();
        assert_eq!(summary.connections, 1);
        echo.join().unwrap();
    }
}
