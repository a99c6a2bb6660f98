//! Golden byte fixtures for the coordinator/worker wire protocol.
//!
//! Every worker and coordinator message kind is pinned as the exact
//! frame bytes (`len ‖ payload ‖ fnv1a`) its writer puts on the socket.
//! A codec change that moves any byte fails here; a deliberate format
//! change must bump `DIST_VERSION` and re-pin. On mismatch the test
//! prints the new bytes of every fixture at once.

use ddsc_dist::proto::{write_coord_msg, write_worker_msg};
use ddsc_dist::{CellSpec, CoordMsg, WorkerMsg};

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

fn worker(msg: WorkerMsg) -> Vec<u8> {
    let mut out = Vec::new();
    write_worker_msg(&mut out, &msg).unwrap();
    out
}

fn coord(msg: CoordMsg) -> Vec<u8> {
    let mut out = Vec::new();
    write_coord_msg(&mut out, &msg).unwrap();
    out
}

#[test]
fn every_worker_message_kind_keeps_its_bytes() {
    check(&[
        (
            "hello",
            worker(WorkerMsg::Hello {
                worker_id: 0,
                pid: 4242,
            }),
            "12000000020100000000000000009210000000000000ae90e2607ee0ec1e",
        ),
        ("request", worker(WorkerMsg::Request { worker_id: 7 }), "0a00000002020700000000000000e241ff2f739f0165"),
        (
            "heartbeat",
            worker(WorkerMsg::Heartbeat { worker_id: 7 }),
            "0a00000002030700000000000000950800dd4bf4778b",
        ),
        (
            "result",
            worker(WorkerMsg::Result {
                worker_id: 7,
                digest: 0x0123_4567_89ab_cdef,
                seconds_bits: 1.25f64.to_bits(),
                body: vec![1, 2, 3],
            }),
            "2100000002040700000000000000efcdab8967452301000000000000f43f030000000102030a56a502bbbb484a",
        ),
        (
            "failed",
            worker(WorkerMsg::Failed {
                worker_id: 7,
                digest: 99,
                error: "cell panicked: é".into(),
            }),
            "25000000020507000000000000006300000000000000110063656c6c2070616e69636b65643a20c3a958bbab1a0233f1e2",
        ),
    ]);
}

#[test]
fn every_coordinator_message_kind_keeps_its_bytes() {
    check(&[
        ("welcome", coord(CoordMsg::Welcome { worker_id: 3 }), "0a000000020103000000000000006f1ccab39049a364"),
        (
            "assign",
            coord(CoordMsg::Assign(CellSpec {
                bench: "compress".into(),
                config: "D".into(),
                width: 8,
                trace_len: 300_000,
                seed: 1996,
                digest: 0xfeed_beef_dead_cafe,
            })),
            "2b00000002020800636f6d707265737301004408000000e093040000000000cc07000000000000fecaaddeefbeedfef986d006692c36f9",
        ),
        ("idle", coord(CoordMsg::Idle { wait_ms: 50 }), "06000000020332000000c09351ace90ecb5e"),
        ("all_done", coord(CoordMsg::AllDone), "020000000204732ff1b407503908"),
        ("ack", coord(CoordMsg::Ack), "020000000205c02df1b4074f3908"),
    ]);
}
