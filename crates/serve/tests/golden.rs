//! Golden byte fixtures for the `ddsc serve` wire protocol.
//!
//! Every request and response kind is pinned as the exact frame bytes
//! (`len ‖ payload ‖ fnv1a`) its writer puts on the socket. A codec
//! change that moves any byte fails here; a deliberate format change
//! must bump `PROTO_VERSION` and re-pin. On mismatch the test prints
//! the new bytes of every fixture at once.

use ddsc_serve::proto::{write_request, write_response, Request, Response, SubmitRequest};
use ddsc_serve::StatsSnapshot;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn check(fixtures: &[(&str, Vec<u8>, &str)]) {
    let stale: Vec<String> = fixtures
        .iter()
        .filter(|(_, bytes, want)| hex(bytes) != *want)
        .map(|(name, bytes, _)| format!("{name}: {}", hex(bytes)))
        .collect();
    assert!(
        stale.is_empty(),
        "golden bytes moved:\n{}",
        stale.join("\n")
    );
}

fn request(req: Request) -> Vec<u8> {
    let mut out = Vec::new();
    write_request(&mut out, &req).unwrap();
    out
}

fn response(resp: Response) -> Vec<u8> {
    let mut out = Vec::new();
    write_response(&mut out, &resp).unwrap();
    out
}

#[test]
fn every_request_kind_keeps_its_bytes() {
    check(&[
        (
            "ping",
            request(Request::Ping),
            "020000000101778ee8b407232f08",
        ),
        (
            "submit",
            request(Request::Submit(SubmitRequest {
                bench: "li".into(),
                config: "D".into(),
                width: 8,
                trace_len: 300_000,
                seed: 1996,
            })),
            "1d000000010202006c6901004408000000e093040000000000cc07000000000000caeb73908bc46dd6",
        ),
        (
            "stats",
            request(Request::Stats),
            "020000000103dd91e8b407252f08",
        ),
        (
            "shutdown",
            request(Request::Shutdown),
            "020000000104f885e8b4071e2f08",
        ),
    ]);
}

#[test]
fn every_response_kind_keeps_its_bytes() {
    check(&[
        ("pong", response(Response::Pong), "020000000101778ee8b407232f08"),
        ("queued", response(Response::Queued { depth: 3 }), "0600000001020300000039c314e013b3b174"),
        ("started", response(Response::Started), "020000000103dd91e8b407252f08"),
        (
            "result",
            response(Response::Result {
                digest: 0x0123_4567_89ab_cdef,
                body: vec![1, 2, 3, 4, 5],
            }),
            "130000000104efcdab8967452301050000000102030405001f21ee3ddafd76",
        ),
        (
            "rejected",
            response(Response::Rejected {
                reason: "queue full (depth 64)".into(),
            }),
            "190000000105150071756575652066756c6c20286465707468203634296a197d9f29d6c6c5",
        ),
        (
            "invalid",
            response(Response::Invalid {
                reason: "unknown benchmark `nope`".into(),
            }),
            "1c00000001061800756e6b6e6f776e2062656e63686d61726b20606e6f706560ed4d10e0f53b83a9",
        ),
        (
            "failed",
            response(Response::Failed {
                error: "cell panicked: é".into(),
            }),
            "150000000107110063656c6c2070616e69636b65643a20c3a9f7f06663b10b6155",
        ),
        (
            "timed_out",
            response(Response::TimedOut {
                error: "exceeded 0.5 s deadline".into(),
            }),
            "1b00000001081700657863656564656420302e35207320646561646c696e65760880a55855eb92",
        ),
        (
            "stats",
            response(Response::Stats(StatsSnapshot {
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
            })),
            "5a00000001090100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b00000000000000ffc0a973456ba458",
        ),
        ("shutting_down", response(Response::ShuttingDown), "02000000010a9282e8b4071c2f08"),
    ]);
}
