//! The `ddsc serve` wire protocol: checksummed binary frames over TCP.
//!
//! The service talks a length-prefixed binary protocol rather than
//! HTTP: the repo deliberately has no external dependencies, and the
//! response body is already a binary codec ([`SimResult::encode_to`]).
//! Frames, strings and byte fields all come from [`ddsc_util::codec`],
//! the one owner of the `len:u32 ‖ payload ‖ fnv1a(payload):u64` frame
//! (capped at [`MAX_FRAME_LEN`]), so a torn or corrupted frame is
//! *detected*, never misparsed. This module owns only the payloads:
//!
//! ```text
//! payload  := version:u8 kind:u8 fields...
//! string   := len:u16 utf8[len]
//! bytes    := len:u32 raw[len]
//! ```
//!
//! A connection carries a sequence of client [`Request`] frames; the
//! server answers each with one or more [`Response`] frames. A `Submit`
//! is answered by zero or more *progress* frames (`Queued`, `Started`)
//! followed by exactly one *terminal* frame (`Result`, `Rejected`,
//! `Invalid`, `Failed` or `TimedOut` — see [`Response::is_terminal`]);
//! every other request kind is answered by a single terminal frame.
//!
//! Decoding is total: any byte sequence produces either a value or a
//! typed [`WireError`] — untrusted input can never panic the decoder.
//! That property is pinned by the fault-plan proptests in
//! `tests/proto_proptest.rs`, which mutate valid frames with
//! [`ddsc_util::fault::FaultPlan`] and assert the decoder returns.
//!
//! [`SimResult::encode_to`]: ddsc_core::SimResult::encode_to

use std::io::{self, Read, Write};

use ddsc_util::codec::{put_bytes, put_str, read_frame, write_frame, Reader};
pub use ddsc_util::codec::{WireError, MAX_FRAME_LEN};

/// Protocol version, checked implicitly: the version byte leads every
/// payload, and a mismatch is an [`WireError::UnknownVersion`].
pub const PROTO_VERSION: u8 = 1;

/// One experiment request: the full cell identity the digest is
/// computed from. `bench` and `config` are carried as strings so the
/// codec is closed under arbitrary inputs; semantic validation (known
/// benchmark, known configuration, sane bounds) happens in the engine,
/// not the decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitRequest {
    /// Benchmark short name (`compress`, `li`, ...).
    pub bench: String,
    /// Paper configuration label (`A`..`E`).
    pub config: String,
    /// Issue width.
    pub width: u32,
    /// Dynamic instructions to simulate.
    pub trace_len: u64,
    /// Workload data seed.
    pub seed: u64,
}

/// A client request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness / readiness probe.
    Ping,
    /// Submit one experiment cell.
    Submit(SubmitRequest),
    /// Fetch the server's counter snapshot.
    Stats,
    /// Ask the daemon to stop accepting work and exit its run loop.
    Shutdown,
}

/// The server's counter snapshot (the "stats endpoint").
///
/// All counters are cumulative since daemon start except `queue_depth`
/// (instantaneous) and `workers`/`resumed_cells` (fixed at start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Fresh submissions admitted to the job queue.
    pub accepted: u64,
    /// Jobs simulated to completion.
    pub completed: u64,
    /// Jobs whose simulation failed.
    pub failed: u64,
    /// Jobs cancelled on their wall-clock deadline.
    pub timed_out: u64,
    /// Submissions rejected because the queue was full (429-style).
    pub rejected_busy: u64,
    /// Submissions rejected by validation (400-style).
    pub rejected_invalid: u64,
    /// Submissions that joined an already in-flight identical cell.
    pub coalesced: u64,
    /// Submissions served from the in-memory result cache.
    pub cache_hits: u64,
    /// Cells restored from the journal + cell store at daemon start.
    pub resumed_cells: u64,
    /// Jobs currently waiting in the queue.
    pub queue_depth: u64,
    /// Fixed worker-pool size.
    pub workers: u64,
}

/// A server response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Progress: the submission was admitted; `depth` is the queue
    /// length just after the push.
    Queued {
        /// Queue length immediately after this job was enqueued.
        depth: u32,
    },
    /// Progress: a worker picked the cell up.
    Started,
    /// Terminal: the cell's result. `body` is exactly the
    /// [`SimResult::encode_to`](ddsc_core::SimResult::encode_to) bytes
    /// — the same canonical codec the cell store persists, so identical
    /// requests always receive byte-identical bodies.
    Result {
        /// The cell digest the result is stored under.
        digest: u64,
        /// Encoded `SimResult` bytes.
        body: Vec<u8>,
    },
    /// Terminal: admission control turned the request away (queue
    /// full). The client may retry later — nothing was enqueued.
    Rejected {
        /// Human-readable rejection reason.
        reason: String,
    },
    /// Terminal: the request failed validation (unknown benchmark,
    /// width out of range, ...). Retrying the same bytes cannot
    /// succeed.
    Invalid {
        /// What the validator objected to.
        reason: String,
    },
    /// Terminal: the simulation ran and failed.
    Failed {
        /// Rendered failure message.
        error: String,
    },
    /// Terminal: the cell exceeded its wall-clock deadline and was
    /// cancelled cooperatively (the exit-2-equivalent outcome).
    TimedOut {
        /// Rendered timeout message.
        error: String,
    },
    /// Terminal: answer to [`Request::Stats`].
    Stats(StatsSnapshot),
    /// Terminal: answer to [`Request::Shutdown`]; the daemon stops
    /// accepting connections after this frame.
    ShuttingDown,
}

impl Response {
    /// Whether this frame ends a request's response sequence.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, Response::Queued { .. } | Response::Started)
    }
}

const REQ_PING: u8 = 1;
const REQ_SUBMIT: u8 = 2;
const REQ_STATS: u8 = 3;
const REQ_SHUTDOWN: u8 = 4;

const RESP_PONG: u8 = 1;
const RESP_QUEUED: u8 = 2;
const RESP_STARTED: u8 = 3;
const RESP_RESULT: u8 = 4;
const RESP_REJECTED: u8 = 5;
const RESP_INVALID: u8 = 6;
const RESP_FAILED: u8 = 7;
const RESP_TIMED_OUT: u8 = 8;
const RESP_STATS: u8 = 9;
const RESP_SHUTTING_DOWN: u8 = 10;

impl Request {
    /// Encodes the payload (version, kind, fields — no framing).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.push(PROTO_VERSION);
        match self {
            Request::Ping => out.push(REQ_PING),
            Request::Submit(s) => {
                out.push(REQ_SUBMIT);
                put_str(&mut out, &s.bench);
                put_str(&mut out, &s.config);
                out.extend_from_slice(&s.width.to_le_bytes());
                out.extend_from_slice(&s.trace_len.to_le_bytes());
                out.extend_from_slice(&s.seed.to_le_bytes());
            }
            Request::Stats => out.push(REQ_STATS),
            Request::Shutdown => out.push(REQ_SHUTDOWN),
        }
        out
    }

    /// Decodes one payload. Total: any input yields a value or a typed
    /// [`WireError`].
    pub fn decode_payload(bytes: &[u8]) -> Result<Request, WireError> {
        let mut c = Reader::versioned(bytes, PROTO_VERSION)?;
        let kind = c.u8()?;
        let req = match kind {
            REQ_PING => Request::Ping,
            REQ_SUBMIT => Request::Submit(SubmitRequest {
                bench: c.str()?,
                config: c.str()?,
                width: c.u32()?,
                trace_len: c.u64()?,
                seed: c.u64()?,
            }),
            REQ_STATS => Request::Stats,
            REQ_SHUTDOWN => Request::Shutdown,
            other => return Err(WireError::UnknownKind(other)),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the payload (version, kind, fields — no framing).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.push(PROTO_VERSION);
        match self {
            Response::Pong => out.push(RESP_PONG),
            Response::Queued { depth } => {
                out.push(RESP_QUEUED);
                out.extend_from_slice(&depth.to_le_bytes());
            }
            Response::Started => out.push(RESP_STARTED),
            Response::Result { digest, body } => {
                out.push(RESP_RESULT);
                out.extend_from_slice(&digest.to_le_bytes());
                put_bytes(&mut out, body);
            }
            Response::Rejected { reason } => {
                out.push(RESP_REJECTED);
                put_str(&mut out, reason);
            }
            Response::Invalid { reason } => {
                out.push(RESP_INVALID);
                put_str(&mut out, reason);
            }
            Response::Failed { error } => {
                out.push(RESP_FAILED);
                put_str(&mut out, error);
            }
            Response::TimedOut { error } => {
                out.push(RESP_TIMED_OUT);
                put_str(&mut out, error);
            }
            Response::Stats(s) => {
                out.push(RESP_STATS);
                for v in [
                    s.accepted,
                    s.completed,
                    s.failed,
                    s.timed_out,
                    s.rejected_busy,
                    s.rejected_invalid,
                    s.coalesced,
                    s.cache_hits,
                    s.resumed_cells,
                    s.queue_depth,
                    s.workers,
                ] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Response::ShuttingDown => out.push(RESP_SHUTTING_DOWN),
        }
        out
    }

    /// Decodes one payload. Total: any input yields a value or a typed
    /// [`WireError`].
    pub fn decode_payload(bytes: &[u8]) -> Result<Response, WireError> {
        let mut c = Reader::versioned(bytes, PROTO_VERSION)?;
        let kind = c.u8()?;
        let resp = match kind {
            RESP_PONG => Response::Pong,
            RESP_QUEUED => Response::Queued { depth: c.u32()? },
            RESP_STARTED => Response::Started,
            RESP_RESULT => Response::Result {
                digest: c.u64()?,
                body: c.bytes()?,
            },
            RESP_REJECTED => Response::Rejected { reason: c.str()? },
            RESP_INVALID => Response::Invalid { reason: c.str()? },
            RESP_FAILED => Response::Failed { error: c.str()? },
            RESP_TIMED_OUT => Response::TimedOut { error: c.str()? },
            RESP_STATS => Response::Stats(StatsSnapshot {
                accepted: c.u64()?,
                completed: c.u64()?,
                failed: c.u64()?,
                timed_out: c.u64()?,
                rejected_busy: c.u64()?,
                rejected_invalid: c.u64()?,
                coalesced: c.u64()?,
                cache_hits: c.u64()?,
                resumed_cells: c.u64()?,
                queue_depth: c.u64()?,
                workers: c.u64()?,
            }),
            RESP_SHUTTING_DOWN => Response::ShuttingDown,
            other => return Err(WireError::UnknownKind(other)),
        };
        c.finish()?;
        Ok(resp)
    }
}

/// Writes one request as a frame.
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    write_frame(w, &req.encode_payload(), MAX_FRAME_LEN)
}

/// Writes one response as a frame.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    write_frame(w, &resp.encode_payload(), MAX_FRAME_LEN)
}

/// Reads one request frame; `Ok(None)` is clean end-of-stream.
pub fn read_request(r: &mut impl Read) -> Result<Option<Request>, WireError> {
    read_frame(r, MAX_FRAME_LEN)?
        .map(|payload| Request::decode_payload(&payload))
        .transpose()
}

/// Reads one response frame; `Ok(None)` is clean end-of-stream.
pub fn read_response(r: &mut impl Read) -> Result<Option<Response>, WireError> {
    read_frame(r, MAX_FRAME_LEN)?
        .map(|payload| Response::decode_payload(&payload))
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Submit(SubmitRequest {
                bench: "li".into(),
                config: "D".into(),
                width: 8,
                trace_len: 300_000,
                seed: 1996,
            }),
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::Queued { depth: 3 },
            Response::Started,
            Response::Result {
                digest: 0xdead_beef,
                body: vec![1, 2, 3, 4, 5],
            },
            Response::Rejected {
                reason: "queue full (depth 64)".into(),
            },
            Response::Invalid {
                reason: "unknown benchmark `nope`".into(),
            },
            Response::Failed {
                error: "cell panicked".into(),
            },
            Response::TimedOut {
                error: "exceeded 0.5 s deadline".into(),
            },
            Response::Stats(StatsSnapshot {
                accepted: 1,
                completed: 2,
                failed: 3,
                timed_out: 4,
                rejected_busy: 5,
                rejected_invalid: 6,
                coalesced: 7,
                cache_hits: 8,
                resumed_cells: 9,
                queue_depth: 10,
                workers: 11,
            }),
            Response::ShuttingDown,
        ]
    }

    #[test]
    fn every_message_round_trips_through_frames_and_sees_clean_eof() {
        let mut requests = Vec::new();
        for req in sample_requests() {
            write_request(&mut requests, &req).unwrap();
        }
        let mut r = &requests[..];
        for req in sample_requests() {
            assert_eq!(read_request(&mut r).unwrap(), Some(req));
        }
        assert!(read_request(&mut r).unwrap().is_none(), "clean EOF");
        let mut responses = Vec::new();
        for resp in sample_responses() {
            write_response(&mut responses, &resp).unwrap();
        }
        let mut r = &responses[..];
        for resp in sample_responses() {
            assert_eq!(read_response(&mut r).unwrap(), Some(resp));
        }
        assert!(read_response(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn an_over_long_multibyte_error_round_trips_cut_on_a_char_boundary() {
        // 70,000 bytes of a two-byte character overflow the u16 string
        // field; the cut must keep the payload valid UTF-8.
        let mut frame = Vec::new();
        let error = "é".repeat(35_000);
        write_response(&mut frame, &Response::Failed { error }).unwrap();
        assert_eq!(
            read_response(&mut &frame[..]).unwrap(),
            Some(Response::Failed {
                error: "é".repeat(32_767)
            })
        );
    }

    #[test]
    fn unknown_version_and_kind_are_rejected() {
        let mut payload = Request::Ping.encode_payload();
        payload[0] = 99;
        assert!(matches!(
            Request::decode_payload(&payload).unwrap_err(),
            WireError::UnknownVersion(99)
        ));
        let mut payload = Request::Ping.encode_payload();
        payload[1] = 200;
        assert!(matches!(
            Request::decode_payload(&payload).unwrap_err(),
            WireError::UnknownKind(200)
        ));
        let mut payload = Response::Pong.encode_payload();
        payload[1] = 200;
        assert!(matches!(
            Response::decode_payload(&payload).unwrap_err(),
            WireError::UnknownKind(200)
        ));
    }

    #[test]
    fn trailing_bytes_inside_a_payload_are_rejected() {
        let mut payload = Request::Stats.encode_payload();
        payload.push(0);
        assert!(matches!(
            Request::decode_payload(&payload).unwrap_err(),
            WireError::TrailingBytes
        ));
    }

    #[test]
    fn terminal_classification() {
        assert!(!Response::Queued { depth: 0 }.is_terminal());
        assert!(!Response::Started.is_terminal());
        for resp in sample_responses() {
            if !matches!(resp, Response::Queued { .. } | Response::Started) {
                assert!(resp.is_terminal(), "{resp:?}");
            }
        }
    }
}
