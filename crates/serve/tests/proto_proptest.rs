//! Property tests for the serve wire codec.
//!
//! Two properties pin the protocol down:
//!
//! 1. **Lossless round-trip** — every representable request/response
//!    encodes to a frame that decodes back to an equal value.
//! 2. **Totality under corruption** — arbitrary mutations of valid
//!    frames (via the `ddsc-util` fault-plan byte mutator) and fully
//!    random byte soup always produce a value or a typed `WireError`;
//!    the decoders contain no panicking path on untrusted input.

use ddsc_serve::proto::{
    read_request, read_response, Request, Response, StatsSnapshot, SubmitRequest, WireError,
    MAX_FRAME_LEN,
};
use ddsc_util::codec::split_frame;
use ddsc_util::FaultPlan;
use proptest::prelude::*;

/// One wire frame around `payload`.
fn framed(payload: &[u8]) -> Vec<u8> {
    ddsc_util::codec::encode_frame(payload, MAX_FRAME_LEN).expect("payload fits a frame")
}

/// Arbitrary (possibly non-ASCII, possibly empty) string fields, built
/// from raw bytes since the vendored proptest has no string strategy.
fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..24)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

fn arb_submit() -> impl Strategy<Value = SubmitRequest> {
    (
        arb_string(),
        arb_string(),
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(bench, config, width, trace_len, seed)| SubmitRequest {
            bench,
            config,
            width,
            trace_len,
            seed,
        })
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        Just(Request::Stats),
        Just(Request::Shutdown),
        arb_submit().prop_map(Request::Submit),
    ]
}

fn arb_stats() -> impl Strategy<Value = StatsSnapshot> {
    proptest::collection::vec(any::<u64>(), 11..12).prop_map(|v| StatsSnapshot {
        accepted: v[0],
        completed: v[1],
        failed: v[2],
        timed_out: v[3],
        rejected_busy: v[4],
        rejected_invalid: v[5],
        coalesced: v[6],
        cache_hits: v[7],
        resumed_cells: v[8],
        queue_depth: v[9],
        workers: v[10],
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Pong),
        Just(Response::Started),
        Just(Response::ShuttingDown),
        any::<u32>().prop_map(|depth| Response::Queued { depth }),
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..512))
            .prop_map(|(digest, body)| Response::Result { digest, body }),
        arb_string().prop_map(|reason| Response::Rejected { reason }),
        arb_string().prop_map(|reason| Response::Invalid { reason }),
        arb_string().prop_map(|error| Response::Failed { error }),
        arb_string().prop_map(|error| Response::TimedOut { error }),
        arb_stats().prop_map(Response::Stats),
    ]
}

proptest! {
    /// Any representable request survives frame encode → decode.
    #[test]
    fn request_round_trips(req in arb_request()) {
        let frame = framed(&req.encode_payload());
        let (payload, consumed) = split_frame(&frame, MAX_FRAME_LEN).expect("own frame decodes");
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(Request::decode_payload(payload).expect("own payload decodes"), req);
    }

    /// Any representable response survives frame encode → decode, both
    /// via the buffer API and the stream API.
    #[test]
    fn response_round_trips(resp in arb_response()) {
        let frame = framed(&resp.encode_payload());
        let (payload, consumed) = split_frame(&frame, MAX_FRAME_LEN).expect("own frame decodes");
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(
            Response::decode_payload(payload).expect("own payload decodes"),
            resp.clone()
        );
        let mut stream = &frame[..];
        prop_assert_eq!(read_response(&mut stream).expect("stream decodes"), Some(resp));
    }

    /// Fault-plan-mutated request frames never panic the decoder: the
    /// result is a value or a typed error, and when the mutation left
    /// the frame intact the round-trip still holds.
    #[test]
    fn mutated_request_frames_decode_totally(
        req in arb_request(),
        seed in any::<u64>(),
        faults in 1usize..8,
    ) {
        let clean = framed(&req.encode_payload());
        let mut bytes = clean.clone();
        FaultPlan::seeded(seed, faults, bytes.len()).apply(&mut bytes);
        match split_frame(&bytes, MAX_FRAME_LEN) {
            Ok((payload, _)) => {
                // The checksum may genuinely still match (e.g. a
                // mutation past the frame end or an identity swap);
                // the payload decoder must stay total either way.
                let _ = Request::decode_payload(payload);
            }
            Err(e) => prop_assert!(
                matches!(
                    e,
                    WireError::Truncated
                        | WireError::Checksum
                        | WireError::BadLength(_)
                        | WireError::Io(_)
                ),
                "unexpected error class {e:?}"
            ),
        }
        if bytes == clean {
            let (payload, _) = split_frame(&bytes, MAX_FRAME_LEN).expect("untouched frame decodes");
            prop_assert_eq!(Request::decode_payload(payload).expect("decodes"), req);
        }
    }

    /// Fault-plan-mutated response frames never panic the stream reader.
    #[test]
    fn mutated_response_frames_decode_totally(
        resp in arb_response(),
        seed in any::<u64>(),
        faults in 1usize..8,
    ) {
        let mut bytes = framed(&resp.encode_payload());
        FaultPlan::seeded(seed, faults, bytes.len()).apply(&mut bytes);
        let mut stream = &bytes[..];
        // Must return, never panic; error class is free (Io covers
        // reads hitting a mutated length prefix).
        let _ = read_response(&mut stream);
    }

    /// Fully random byte soup never panics any decoding entry point.
    #[test]
    fn random_bytes_decode_totally(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = split_frame(&bytes, MAX_FRAME_LEN);
        let _ = Request::decode_payload(&bytes);
        let _ = Response::decode_payload(&bytes);
        let mut stream = &bytes[..];
        let _ = read_request(&mut stream);
        let mut stream = &bytes[..];
        let _ = read_response(&mut stream);
    }

    /// Every strict prefix of a valid frame is a typed truncation (or a
    /// clean EOF at zero bytes on the stream API).
    #[test]
    fn prefixes_are_truncations(req in arb_request(), cut_scale in 0.0f64..1.0) {
        let frame = framed(&req.encode_payload());
        let cut = ((frame.len() - 1) as f64 * cut_scale) as usize;
        match split_frame(&frame[..cut], MAX_FRAME_LEN) {
            Err(WireError::Truncated) => {}
            other => prop_assert!(false, "prefix {cut} gave {other:?}"),
        }
        let mut stream = &frame[..cut];
        match read_request(&mut stream) {
            Ok(None) if cut == 0 => {}
            Err(WireError::Truncated) => {}
            other => prop_assert!(false, "stream prefix {cut} gave {other:?}"),
        }
    }
}
