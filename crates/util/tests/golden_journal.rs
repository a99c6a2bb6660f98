//! Golden byte fixtures for the run journal.
//!
//! Every record kind is pinned as the exact frame bytes
//! (`len ‖ payload ‖ fnv1a`) an append writes, and one whole journal
//! file as `Journal::open` + `append` leave it on disk. A codec change
//! that moves any byte fails here; a deliberate format change must bump
//! `JOURNAL_VERSION` and re-pin. On mismatch the test prints the new
//! bytes of every fixture at once.

use ddsc_util::journal::{encode_record, Journal, JournalRecord};

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

fn records() -> Vec<JournalRecord> {
    vec![
        JournalRecord::RunStarted {
            config: "seed=1996 len=300000".into(),
        },
        JournalRecord::CellStarted {
            bench: "go".into(),
            config: "A".into(),
            width: 4,
        },
        JournalRecord::CellFinished {
            bench: "go".into(),
            config: "A".into(),
            width: 4,
            digest: 0xdead_beef_cafe_f00d,
        },
        JournalRecord::CellFailed {
            bench: "eqntott".into(),
            config: "B".into(),
            width: 8,
            error: "timed out: é".into(),
        },
        JournalRecord::ArtifactPublished {
            path: "results/repro_all.txt".into(),
        },
        JournalRecord::RunFinished { status: 2 },
    ]
}

#[test]
fn every_record_kind_keeps_its_bytes() {
    let recs = records();
    check(&[
        ("run_started", encode_record(&recs[0]), "17000000011400736565643d31393936206c656e3d33303030303026838c76f23367ab"),
        ("cell_started", encode_record(&recs[1]), "0c000000020200676f01004104000000abe32943c1814587"),
        ("cell_finished", encode_record(&recs[2]), "14000000030200676f010041040000000df0fecaefbeaddef9f39841812ccd68"),
        ("cell_failed", encode_record(&recs[3]), "2000000004070065716e746f7474010042080000000d0074696d6564206f75743a20c3a940ab24be13420b64"),
        ("artifact_published", encode_record(&recs[4]), "18000000051500726573756c74732f726570726f5f616c6c2e747874e4a0c6b0e95a28e1"),
        ("run_finished", encode_record(&recs[5]), "050000000602000000ab8df8d694e1530b"),
    ]);
}

#[test]
fn a_journal_file_keeps_its_bytes() {
    let dir = std::env::temp_dir().join(format!("ddsc-golden-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("run_journal.bin");
    let (journal, _) = Journal::open(&path).unwrap();
    for rec in &records()[..2] {
        journal.append(rec).unwrap();
    }
    drop(journal);
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    check(&[("file", bytes, "4444524a0100000017000000011400736565643d31393936206c656e3d33303030303026838c76f23367ab0c000000020200676f01004104000000abe32943c1814587")]);
}
