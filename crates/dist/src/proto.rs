//! The coordinator/worker wire protocol: a private message vocabulary
//! in the checksummed frames of [`ddsc_util::codec`].
//!
//! Frames, strings and byte fields all come from the shared codec — the
//! one owner of the `len:u32 ‖ payload ‖ fnv1a(payload):u64` frame,
//! capped at [`MAX_FRAME_LEN`] — so torn or corrupted frames are
//! *detected*, never misparsed, and the codec's frame fault suite pins
//! this wire too. Payloads open with a dist-protocol version byte and a
//! kind byte:
//!
//! ```text
//! payload := version:u8 kind:u8 fields...
//! string  := len:u16 utf8[len]
//! bytes   := len:u32 raw[len]
//! ```
//!
//! The conversation is strictly worker-driven request/response: every
//! worker frame except [`WorkerMsg::Heartbeat`] is answered by exactly
//! one coordinator frame, and heartbeats are one-way, so neither side
//! ever has two responses in flight to disambiguate. A cell result
//! travels as the canonical [`SimResult::encode_to`] bytes — the same
//! codec the cell store persists — which is what makes the coordinator's
//! merge byte-identical to local simulation.
//!
//! Decoding is total: any byte sequence yields a value or a typed
//! [`WireError`]; untrusted worker input can never panic the
//! coordinator.
//!
//! [`SimResult::encode_to`]: ddsc_core::SimResult::encode_to

use std::io::{Read, Write};

use ddsc_experiments::CellKey;

pub use ddsc_util::codec::WireError;
use ddsc_util::codec::{put_bytes, put_str, read_frame, write_frame, Reader, MAX_FRAME_LEN};

/// Dist protocol version; leads every payload. Distinct from the serve
/// protocol's version byte so a worker pointed at a `ddsc serve` port
/// (or vice versa) fails with `UnknownVersion`, not a misparse.
pub const DIST_VERSION: u8 = 2;

/// One grid cell as the coordinator dispatches it: the full input
/// identity (benchmark, config label, width, trace length, seed) plus
/// the cell digest the result will be keyed by. The worker parses the
/// identity into a [`CellKey`], recomputes the digest and refuses the
/// cell on any mismatch — catching a binary whose `SimConfig` or
/// [`MODEL_VERSION`](ddsc_experiments::MODEL_VERSION) differs before it
/// can produce a plausible-but-wrong result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
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
    /// [`CellKey::digest`] — the same digest the lab journals and the
    /// cell store keys by.
    pub digest: u64,
}

impl CellSpec {
    /// Parses the spec's input identity into its [`CellKey`].
    pub fn key(&self) -> Result<CellKey, String> {
        CellKey::parse(
            &self.bench,
            &self.config,
            self.width,
            self.seed,
            self.trace_len,
        )
    }
}

impl From<&CellKey> for CellSpec {
    fn from(key: &CellKey) -> CellSpec {
        let ((b, c, width), (_, seed, trace_len)) = (key.cell(), key.trace());
        CellSpec {
            bench: b.name().to_string(),
            config: c.label().to_string(),
            width,
            trace_len,
            seed,
            digest: key.digest(),
        }
    }
}

/// A frame from a worker to the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerMsg {
    /// First frame on every connection: introduces the worker.
    /// `worker_id` 0 asks for a fresh identity; a reconnecting worker
    /// passes the id it was welcomed with so its history carries over.
    Hello {
        /// Previously assigned id, or 0 for a new worker.
        worker_id: u64,
        /// The worker's OS process id (diagnostics only).
        pid: u64,
    },
    /// Ask for the next cell.
    Request {
        /// The requesting worker.
        worker_id: u64,
    },
    /// One-way liveness signal, sent on a timer while computing. The
    /// coordinator does not respond (responding would race the
    /// request/response conversation on the same stream).
    Heartbeat {
        /// The living worker.
        worker_id: u64,
    },
    /// A finished cell: `body` is the canonical
    /// [`SimResult::encode_to`](ddsc_core::SimResult::encode_to) bytes.
    Result {
        /// The reporting worker.
        worker_id: u64,
        /// The cell digest from the [`CellSpec`].
        digest: u64,
        /// Worker-side compute seconds, as `f64::to_bits`.
        seconds_bits: u64,
        /// Encoded `SimResult`.
        body: Vec<u8>,
    },
    /// The worker could not compute the cell (contained panic, digest
    /// mismatch, trace generation error).
    Failed {
        /// The reporting worker.
        worker_id: u64,
        /// The cell digest from the [`CellSpec`].
        digest: u64,
        /// Rendered failure message.
        error: String,
    },
}

/// A frame from the coordinator to a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordMsg {
    /// Answer to [`WorkerMsg::Hello`]: the worker's identity.
    Welcome {
        /// The id the worker must present from now on.
        worker_id: u64,
    },
    /// Answer to [`WorkerMsg::Request`]: one cell to compute.
    Assign(CellSpec),
    /// Answer to [`WorkerMsg::Request`] when nothing is dispatchable
    /// right now (everything leased, nothing stealable): ask again
    /// after `wait_ms`. The [`Coordinator`](crate::Coordinator) sends
    /// it with `wait_ms` 0, after it has held the request itself.
    Idle {
        /// Suggested poll delay in milliseconds.
        wait_ms: u32,
    },
    /// Answer to any request once the grid is complete: the worker
    /// should exit cleanly.
    AllDone,
    /// Answer to [`WorkerMsg::Result`] / [`WorkerMsg::Failed`]:
    /// received (whatever the scheduler decided about it).
    Ack,
}

const W_HELLO: u8 = 1;
const W_REQUEST: u8 = 2;
const W_HEARTBEAT: u8 = 3;
const W_RESULT: u8 = 4;
const W_FAILED: u8 = 5;

const C_WELCOME: u8 = 1;
const C_ASSIGN: u8 = 2;
const C_IDLE: u8 = 3;
const C_ALL_DONE: u8 = 4;
const C_ACK: u8 = 5;

impl CellSpec {
    fn encode_to(&self, out: &mut Vec<u8>) {
        put_str(out, &self.bench);
        put_str(out, &self.config);
        out.extend_from_slice(&self.width.to_le_bytes());
        out.extend_from_slice(&self.trace_len.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.digest.to_le_bytes());
    }

    fn decode(c: &mut Reader<'_>) -> Result<CellSpec, WireError> {
        Ok(CellSpec {
            bench: c.str()?,
            config: c.str()?,
            width: c.u32()?,
            trace_len: c.u64()?,
            seed: c.u64()?,
            digest: c.u64()?,
        })
    }
}

impl WorkerMsg {
    /// Encodes the payload (version, kind, fields — no framing).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.push(DIST_VERSION);
        match self {
            WorkerMsg::Hello { worker_id, pid } => {
                out.push(W_HELLO);
                out.extend_from_slice(&worker_id.to_le_bytes());
                out.extend_from_slice(&pid.to_le_bytes());
            }
            WorkerMsg::Request { worker_id } => {
                out.push(W_REQUEST);
                out.extend_from_slice(&worker_id.to_le_bytes());
            }
            WorkerMsg::Heartbeat { worker_id } => {
                out.push(W_HEARTBEAT);
                out.extend_from_slice(&worker_id.to_le_bytes());
            }
            WorkerMsg::Result {
                worker_id,
                digest,
                seconds_bits,
                body,
            } => {
                out.push(W_RESULT);
                out.extend_from_slice(&worker_id.to_le_bytes());
                out.extend_from_slice(&digest.to_le_bytes());
                out.extend_from_slice(&seconds_bits.to_le_bytes());
                put_bytes(&mut out, body);
            }
            WorkerMsg::Failed {
                worker_id,
                digest,
                error,
            } => {
                out.push(W_FAILED);
                out.extend_from_slice(&worker_id.to_le_bytes());
                out.extend_from_slice(&digest.to_le_bytes());
                put_str(&mut out, error);
            }
        }
        out
    }

    /// Decodes one payload. Total: any input yields a value or a typed
    /// [`WireError`].
    pub fn decode_payload(bytes: &[u8]) -> Result<WorkerMsg, WireError> {
        let mut c = Reader::versioned(bytes, DIST_VERSION)?;
        let kind = c.u8()?;
        let msg = match kind {
            W_HELLO => WorkerMsg::Hello {
                worker_id: c.u64()?,
                pid: c.u64()?,
            },
            W_REQUEST => WorkerMsg::Request {
                worker_id: c.u64()?,
            },
            W_HEARTBEAT => WorkerMsg::Heartbeat {
                worker_id: c.u64()?,
            },
            W_RESULT => WorkerMsg::Result {
                worker_id: c.u64()?,
                digest: c.u64()?,
                seconds_bits: c.u64()?,
                body: c.bytes()?,
            },
            W_FAILED => WorkerMsg::Failed {
                worker_id: c.u64()?,
                digest: c.u64()?,
                error: c.str()?,
            },
            other => return Err(WireError::UnknownKind(other)),
        };
        c.finish()?;
        Ok(msg)
    }
}

impl CoordMsg {
    /// Encodes the payload (version, kind, fields — no framing).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.push(DIST_VERSION);
        match self {
            CoordMsg::Welcome { worker_id } => {
                out.push(C_WELCOME);
                out.extend_from_slice(&worker_id.to_le_bytes());
            }
            CoordMsg::Assign(spec) => {
                out.push(C_ASSIGN);
                spec.encode_to(&mut out);
            }
            CoordMsg::Idle { wait_ms } => {
                out.push(C_IDLE);
                out.extend_from_slice(&wait_ms.to_le_bytes());
            }
            CoordMsg::AllDone => out.push(C_ALL_DONE),
            CoordMsg::Ack => out.push(C_ACK),
        }
        out
    }

    /// Decodes one payload. Total: any input yields a value or a typed
    /// [`WireError`].
    pub fn decode_payload(bytes: &[u8]) -> Result<CoordMsg, WireError> {
        let mut c = Reader::versioned(bytes, DIST_VERSION)?;
        let kind = c.u8()?;
        let msg = match kind {
            C_WELCOME => CoordMsg::Welcome {
                worker_id: c.u64()?,
            },
            C_ASSIGN => CoordMsg::Assign(CellSpec::decode(&mut c)?),
            C_IDLE => CoordMsg::Idle { wait_ms: c.u32()? },
            C_ALL_DONE => CoordMsg::AllDone,
            C_ACK => CoordMsg::Ack,
            other => return Err(WireError::UnknownKind(other)),
        };
        c.finish()?;
        Ok(msg)
    }
}

/// Writes one worker frame.
pub fn write_worker_msg(w: &mut impl Write, msg: &WorkerMsg) -> std::io::Result<()> {
    write_frame(w, &msg.encode_payload(), MAX_FRAME_LEN)
}

/// Writes one coordinator frame.
pub fn write_coord_msg(w: &mut impl Write, msg: &CoordMsg) -> std::io::Result<()> {
    write_frame(w, &msg.encode_payload(), MAX_FRAME_LEN)
}

/// Reads one worker frame; `Ok(None)` is clean end-of-stream.
pub fn read_worker_msg(r: &mut impl Read) -> Result<Option<WorkerMsg>, WireError> {
    read_frame(r, MAX_FRAME_LEN)?
        .map(|payload| WorkerMsg::decode_payload(&payload))
        .transpose()
}

/// Reads one coordinator frame; `Ok(None)` is clean end-of-stream.
pub fn read_coord_msg(r: &mut impl Read) -> Result<Option<CoordMsg>, WireError> {
    read_frame(r, MAX_FRAME_LEN)?
        .map(|payload| CoordMsg::decode_payload(&payload))
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> CellSpec {
        CellSpec {
            bench: "compress".into(),
            config: "D".into(),
            width: 8,
            trace_len: 300_000,
            seed: 1996,
            digest: 0xfeed_beef_dead_cafe,
        }
    }

    fn sample_worker_msgs() -> Vec<WorkerMsg> {
        vec![
            WorkerMsg::Hello {
                worker_id: 0,
                pid: 4242,
            },
            WorkerMsg::Request { worker_id: 7 },
            WorkerMsg::Heartbeat { worker_id: 7 },
            WorkerMsg::Result {
                worker_id: 7,
                digest: 99,
                seconds_bits: 1.25f64.to_bits(),
                body: vec![1, 2, 3],
            },
            WorkerMsg::Failed {
                worker_id: 7,
                digest: 99,
                error: "cell panicked".into(),
            },
        ]
    }

    fn sample_coord_msgs() -> Vec<CoordMsg> {
        vec![
            CoordMsg::Welcome { worker_id: 3 },
            CoordMsg::Assign(sample_spec()),
            CoordMsg::Idle { wait_ms: 50 },
            CoordMsg::AllDone,
            CoordMsg::Ack,
        ]
    }

    #[test]
    fn every_message_round_trips_through_frames_and_sees_clean_eof() {
        let mut worker = Vec::new();
        for msg in sample_worker_msgs() {
            write_worker_msg(&mut worker, &msg).unwrap();
        }
        let mut r = &worker[..];
        for msg in sample_worker_msgs() {
            assert_eq!(read_worker_msg(&mut r).unwrap(), Some(msg));
        }
        assert!(read_worker_msg(&mut r).unwrap().is_none(), "clean EOF");
        let mut coord = Vec::new();
        for msg in sample_coord_msgs() {
            write_coord_msg(&mut coord, &msg).unwrap();
        }
        let mut r = &coord[..];
        for msg in sample_coord_msgs() {
            assert_eq!(read_coord_msg(&mut r).unwrap(), Some(msg));
        }
        assert!(read_coord_msg(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn an_over_long_multibyte_error_round_trips_cut_on_a_char_boundary() {
        // 70,000 bytes of a two-byte character overflow the u16 string
        // field; the cut must keep the payload valid UTF-8.
        let failed = |error: String| WorkerMsg::Failed {
            worker_id: 7,
            digest: 99,
            error,
        };
        let mut frame = Vec::new();
        write_worker_msg(&mut frame, &failed("é".repeat(35_000))).unwrap();
        assert_eq!(
            read_worker_msg(&mut &frame[..]).unwrap(),
            Some(failed("é".repeat(32_767)))
        );
    }

    #[test]
    fn serve_frames_are_rejected_by_version() {
        // A `ddsc serve` payload leads with the serve protocol version
        // (here a serve `Ping`: version 1, kind 1); pointing a worker at
        // the wrong port is an UnknownVersion, not a misparse.
        let serve_payload = [1u8, 1];
        assert!(matches!(
            CoordMsg::decode_payload(&serve_payload),
            Err(WireError::UnknownVersion(_))
        ));
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_are_rejected() {
        let mut payload = CoordMsg::Ack.encode_payload();
        payload[1] = 200;
        assert!(matches!(
            CoordMsg::decode_payload(&payload).unwrap_err(),
            WireError::UnknownKind(200)
        ));
        let mut payload = WorkerMsg::Request { worker_id: 1 }.encode_payload();
        payload.push(0);
        assert!(matches!(
            WorkerMsg::decode_payload(&payload).unwrap_err(),
            WireError::TrailingBytes
        ));
    }

    #[test]
    fn every_truncation_of_every_message_is_a_typed_error() {
        for msg in sample_worker_msgs() {
            let payload = msg.encode_payload();
            for cut in 0..payload.len() {
                assert!(WorkerMsg::decode_payload(&payload[..cut]).is_err());
            }
        }
        for msg in sample_coord_msgs() {
            let payload = msg.encode_payload();
            for cut in 0..payload.len() {
                assert!(CoordMsg::decode_payload(&payload[..cut]).is_err());
            }
        }
    }
}
