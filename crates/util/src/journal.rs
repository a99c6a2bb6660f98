//! Append-only write-ahead run journal.
//!
//! A long grid run records its progress as a sequence of checksummed
//! records in `results/run_journal.bin`. After a crash — a kill, a
//! power cut, a wedged cell — the journal is replayed on the next
//! `--resume` run: every record whose frame survives intact is
//! recovered, and a torn tail (a record half-written at the instant of
//! death) is truncated away. The journal is therefore *crash
//! consistent*: recovery never sees a partial record, only a clean
//! prefix of the run's history.
//!
//! # On-disk format
//!
//! ```text
//! header  := "DDRJ" version:u32
//! record  := len:u32 payload[len] fnv1a(payload):u64
//! payload := kind:u8 fields...          (all integers little-endian)
//! string  := len:u16 utf8[len]
//! ```
//!
//! Records, strings and frames come from [`crate::codec`], with a
//! 1 MiB payload cap.
//!
//! Each [`append`](Journal::append) issues a single `write_all` of one
//! complete frame followed by `sync_data`, so on any sane filesystem a
//! record is either durably whole or detectably torn — and the torn
//! case is exactly what [`decode_records`] discards.

use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::codec::{self, put_str, Reader, WireError};

/// Journal file magic: "DDRJ" (Data Dependence Run Journal).
pub const JOURNAL_MAGIC: [u8; 4] = *b"DDRJ";
/// Current journal format version.
pub const JOURNAL_VERSION: u32 = 1;
/// Header length: magic + version.
pub const JOURNAL_HEADER_LEN: usize = 8;
/// Sanity cap on a single record's payload: anything claiming to be
/// larger is corruption, not a record.
const MAX_RECORD_LEN: u32 = 1 << 20;

/// One entry in the run journal.
///
/// Cells are identified by `(bench, config, width)` — the same key the
/// lab's memoising cache uses — plus, on completion, a `digest` binding
/// the result to the exact trace bytes and configuration it came from.
/// A resumed run only trusts a `CellFinished` whose digest matches the
/// digest it would compute today; anything else is stale and re-runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A run began, with a human-readable config fingerprint
    /// (seed / trace length / widths).
    RunStarted {
        /// Run configuration fingerprint.
        config: String,
    },
    /// A grid cell began simulating.
    CellStarted {
        /// Benchmark name.
        bench: String,
        /// Configuration label (A..E).
        config: String,
        /// Issue width.
        width: u32,
    },
    /// A grid cell finished; `digest` identifies (trace, config, width).
    CellFinished {
        /// Benchmark name.
        bench: String,
        /// Configuration label (A..E).
        config: String,
        /// Issue width.
        width: u32,
        /// Cell digest: fnv1a over trace checksum ‖ config ‖ width.
        digest: u64,
    },
    /// A grid cell failed (panicked, faulted, or timed out).
    CellFailed {
        /// Benchmark name.
        bench: String,
        /// Configuration label (A..E).
        config: String,
        /// Issue width.
        width: u32,
        /// The failure message.
        error: String,
    },
    /// An artifact was atomically renamed into place.
    ArtifactPublished {
        /// Path of the published artifact.
        path: String,
    },
    /// The run ended with the given process exit status.
    RunFinished {
        /// Exit status (0 complete, 2 degraded).
        status: u32,
    },
}

const KIND_RUN_STARTED: u8 = 1;
const KIND_CELL_STARTED: u8 = 2;
const KIND_CELL_FINISHED: u8 = 3;
const KIND_CELL_FAILED: u8 = 4;
const KIND_ARTIFACT_PUBLISHED: u8 = 5;
const KIND_RUN_FINISHED: u8 = 6;

/// Encodes one record's *payload* (kind byte + fields, without the
/// frame's length prefix and checksum suffix).
fn encode_payload(rec: &JournalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    match rec {
        JournalRecord::RunStarted { config } => {
            out.push(KIND_RUN_STARTED);
            put_str(&mut out, config);
        }
        JournalRecord::CellStarted {
            bench,
            config,
            width,
        } => {
            out.push(KIND_CELL_STARTED);
            put_str(&mut out, bench);
            put_str(&mut out, config);
            out.extend_from_slice(&width.to_le_bytes());
        }
        JournalRecord::CellFinished {
            bench,
            config,
            width,
            digest,
        } => {
            out.push(KIND_CELL_FINISHED);
            put_str(&mut out, bench);
            put_str(&mut out, config);
            out.extend_from_slice(&width.to_le_bytes());
            out.extend_from_slice(&digest.to_le_bytes());
        }
        JournalRecord::CellFailed {
            bench,
            config,
            width,
            error,
        } => {
            out.push(KIND_CELL_FAILED);
            put_str(&mut out, bench);
            put_str(&mut out, config);
            out.extend_from_slice(&width.to_le_bytes());
            put_str(&mut out, error);
        }
        JournalRecord::ArtifactPublished { path } => {
            out.push(KIND_ARTIFACT_PUBLISHED);
            put_str(&mut out, path);
        }
        JournalRecord::RunFinished { status } => {
            out.push(KIND_RUN_FINISHED);
            out.extend_from_slice(&status.to_le_bytes());
        }
    }
    out
}

/// Decodes one payload. Any error means corruption (unknown kind,
/// short fields, trailing garbage, invalid UTF-8).
fn decode_payload(payload: &[u8]) -> Result<JournalRecord, WireError> {
    let mut r = Reader::new(payload);
    let rec = match r.u8()? {
        KIND_RUN_STARTED => JournalRecord::RunStarted { config: r.str()? },
        KIND_CELL_STARTED => JournalRecord::CellStarted {
            bench: r.str()?,
            config: r.str()?,
            width: r.u32()?,
        },
        KIND_CELL_FINISHED => JournalRecord::CellFinished {
            bench: r.str()?,
            config: r.str()?,
            width: r.u32()?,
            digest: r.u64()?,
        },
        KIND_CELL_FAILED => JournalRecord::CellFailed {
            bench: r.str()?,
            config: r.str()?,
            width: r.u32()?,
            error: r.str()?,
        },
        KIND_ARTIFACT_PUBLISHED => JournalRecord::ArtifactPublished { path: r.str()? },
        KIND_RUN_FINISHED => JournalRecord::RunFinished { status: r.u32()? },
        other => return Err(WireError::UnknownKind(other)),
    };
    // Trailing garbage inside a framed payload is corruption too.
    r.finish()?;
    Ok(rec)
}

/// Encodes one complete frame: `len ‖ payload ‖ fnv1a(payload)`.
pub fn encode_record(rec: &JournalRecord) -> Vec<u8> {
    // Three strings of at most 64 KiB each cannot reach the 1 MiB cap.
    codec::encode_frame(&encode_payload(rec), MAX_RECORD_LEN)
        .expect("journal records fit one frame")
}

/// Writes one record's frame to any writer as a single `write_all`.
///
/// This is the injectable seam [`Journal::append`] goes through: tests
/// drive it with a failing writer (e.g.
/// [`FailingWriter`](crate::fault::FailingWriter)) to prove that a
/// disk-full or short-write failure surfaces as a typed [`io::Error`]
/// — never a panic — and that whatever partial frame reached the disk
/// is exactly what [`decode_records`] truncates away on recovery.
///
/// # Errors
///
/// Any error from the underlying writer, `ErrorKind` preserved.
pub fn write_frame(w: &mut impl io::Write, rec: &JournalRecord) -> io::Result<()> {
    codec::write_frame(w, &encode_payload(rec), MAX_RECORD_LEN)
}

/// Decodes a journal byte stream (header + frames) into the longest
/// valid record prefix.
///
/// Returns the recovered records and the byte length of the valid
/// prefix (header included). Decoding stops — without error — at the
/// first frame that is short, checksum-damaged, or semantically
/// malformed; everything before it is trusted, everything from it on is
/// the torn tail. A missing or damaged header recovers zero records
/// with a zero-length valid prefix.
pub fn decode_records(bytes: &[u8]) -> (Vec<JournalRecord>, usize) {
    let mut header = Reader::new(bytes);
    if !header.take(4).is_ok_and(|magic| magic == JOURNAL_MAGIC)
        || !header.u32().is_ok_and(|v| v == JOURNAL_VERSION)
    {
        return (Vec::new(), 0);
    }
    let mut records = Vec::new();
    let mut pos = JOURNAL_HEADER_LEN;
    while let Ok((payload, used)) = codec::split_frame(&bytes[pos..], MAX_RECORD_LEN) {
        let Ok(rec) = decode_payload(payload) else {
            break;
        };
        records.push(rec);
        pos += used;
    }
    (records, pos)
}

/// Reads and decodes a journal file without modifying it.
///
/// A missing file is an empty journal; a torn tail is silently ignored
/// (only [`Journal::open`] truncates it). This is the read-only path
/// the `ddsc journal` inspection command uses.
///
/// # Errors
///
/// Only genuine I/O errors; corruption is recovered from, not reported.
pub fn read_journal(path: &Path) -> io::Result<Vec<JournalRecord>> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    Ok(decode_records(&bytes).0)
}

/// An open, append-only run journal.
///
/// [`Journal::open`] recovers the valid record prefix (truncating any
/// torn tail in place) and positions the file for appending; `append`
/// is atomic per record — one `write_all`, one `sync_data` — and safe
/// to call from multiple threads.
///
/// # Examples
///
/// ```
/// use ddsc_util::journal::{Journal, JournalRecord};
///
/// let dir = std::env::temp_dir().join(format!("ddsc-journal-doc-{}", std::process::id()));
/// let path = dir.join("run_journal.bin");
/// let (journal, recovered) = Journal::open(&path).unwrap();
/// assert!(recovered.is_empty());
/// journal.append(&JournalRecord::RunStarted { config: "seed=1996".into() }).unwrap();
/// drop(journal);
/// let (_, recovered) = Journal::open(&path).unwrap();
/// assert_eq!(recovered.len(), 1);
/// let _ = std::fs::remove_dir_all(&dir);
/// ```
#[derive(Debug)]
pub struct Journal {
    file: Mutex<File>,
    path: PathBuf,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, recovering the
    /// valid record prefix and truncating any torn tail.
    ///
    /// Returns the journal handle and the recovered records, in order.
    ///
    /// # Errors
    ///
    /// Any underlying filesystem error. Corruption never errors: an
    /// unreadable prefix simply recovers fewer records.
    pub fn open(path: &Path) -> io::Result<(Journal, Vec<JournalRecord>)> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (records, valid_len) = decode_records(&bytes);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        if valid_len == 0 {
            // Fresh file, or a header too damaged to trust: restart.
            file.set_len(0)?;
            file.write_all(&JOURNAL_MAGIC)?;
            file.write_all(&JOURNAL_VERSION.to_le_bytes())?;
            file.sync_data()?;
        } else if valid_len < bytes.len() {
            file.set_len(valid_len as u64)?;
            file.sync_data()?;
        }
        use std::io::Seek as _;
        file.seek(io::SeekFrom::End(0))?;
        Ok((
            Journal {
                file: Mutex::new(file),
                path: path.to_path_buf(),
            },
            records,
        ))
    }

    /// Appends one record durably: a single whole-frame `write_all`
    /// followed by `sync_data`.
    ///
    /// # Errors
    ///
    /// Any underlying filesystem error; on error the tail may hold a
    /// torn frame, which the next [`Journal::open`] truncates away.
    pub fn append(&self, rec: &JournalRecord) -> io::Result<()> {
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        write_frame(&mut *file, rec)?;
        file.sync_data()
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::RunStarted {
                config: "seed=1996 len=300000 widths=4,8,16".into(),
            },
            JournalRecord::CellStarted {
                bench: "099.go".into(),
                config: "A".into(),
                width: 4,
            },
            JournalRecord::CellFinished {
                bench: "099.go".into(),
                config: "A".into(),
                width: 4,
                digest: 0xdead_beef_cafe_f00d,
            },
            JournalRecord::CellFailed {
                bench: "023.eqntott".into(),
                config: "B".into(),
                width: 8,
                error: "cell timed out after 0.5s".into(),
            },
            JournalRecord::ArtifactPublished {
                path: "results/repro_all.txt".into(),
            },
            JournalRecord::RunFinished { status: 2 },
        ]
    }

    fn tmpfile(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ddsc-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d.join("run_journal.bin")
    }

    #[test]
    fn every_record_kind_round_trips() {
        for rec in sample_records() {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&JOURNAL_MAGIC);
            bytes.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
            bytes.extend_from_slice(&encode_record(&rec));
            let (back, valid) = decode_records(&bytes);
            assert_eq!(back, vec![rec]);
            assert_eq!(valid, bytes.len());
        }
    }

    #[test]
    fn open_append_reopen_recovers_everything() {
        let path = tmpfile("roundtrip");
        let (journal, recovered) = Journal::open(&path).unwrap();
        assert!(recovered.is_empty());
        for rec in sample_records() {
            journal.append(&rec).unwrap();
        }
        drop(journal);
        let (_, recovered) = Journal::open(&path).unwrap();
        assert_eq!(recovered, sample_records());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_tail_is_truncated_on_open_and_appending_continues() {
        let path = tmpfile("torn");
        let (journal, _) = Journal::open(&path).unwrap();
        for rec in sample_records() {
            journal.append(&rec).unwrap();
        }
        drop(journal);
        let clean = std::fs::read(&path).unwrap();

        // Tear the last frame in half.
        std::fs::write(&path, &clean[..clean.len() - 5]).unwrap();
        let (journal, recovered) = Journal::open(&path).unwrap();
        assert_eq!(recovered, sample_records()[..5]);
        // The torn bytes are gone from disk, and appends go after the
        // recovered prefix.
        journal
            .append(&JournalRecord::RunFinished { status: 0 })
            .unwrap();
        drop(journal);
        let (_, recovered) = Journal::open(&path).unwrap();
        assert_eq!(recovered.len(), 6);
        assert_eq!(recovered[5], JournalRecord::RunFinished { status: 0 });
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn bad_header_recovers_nothing_and_restarts() {
        let path = tmpfile("header");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, b"NOPE\x01\x00\x00\x00junkjunkjunk").unwrap();
        let (journal, recovered) = Journal::open(&path).unwrap();
        assert!(recovered.is_empty());
        journal
            .append(&JournalRecord::RunStarted { config: "x".into() })
            .unwrap();
        drop(journal);
        let (_, recovered) = Journal::open(&path).unwrap();
        assert_eq!(
            recovered,
            vec![JournalRecord::RunStarted { config: "x".into() }]
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn checksum_damage_cuts_the_stream_at_the_damaged_record() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&JOURNAL_MAGIC);
        bytes.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        let recs = sample_records();
        let mut offsets = Vec::new();
        for rec in &recs {
            offsets.push(bytes.len());
            bytes.extend_from_slice(&encode_record(rec));
        }
        // Flip one payload byte of record 3: records 0..3 survive.
        let mut damaged = bytes.clone();
        damaged[offsets[3] + 4] ^= 0xFF;
        let (back, valid) = decode_records(&damaged);
        assert_eq!(back, recs[..3]);
        assert_eq!(valid, offsets[3]);
    }

    #[test]
    fn read_journal_tolerates_missing_file_and_torn_tail() {
        let path = tmpfile("readonly");
        assert!(read_journal(&path).unwrap().is_empty());
        let (journal, _) = Journal::open(&path).unwrap();
        journal
            .append(&JournalRecord::RunStarted { config: "x".into() })
            .unwrap();
        drop(journal);
        // Append torn garbage; the read-only path must not truncate.
        let mut bytes = std::fs::read(&path).unwrap();
        let clean_len = bytes.len();
        bytes.extend_from_slice(&[9, 0, 0, 0, 1]);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_journal(&path).unwrap().len(), 1);
        assert_eq!(std::fs::read(&path).unwrap().len(), clean_len + 5);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn disk_full_mid_frame_is_a_typed_error_and_recovery_drops_the_torn_tail() {
        use crate::fault::FailingWriter;

        // A "disk" with room for the header, two whole records, and
        // half of a third: the classic ENOSPC-mid-append shape.
        let recs = sample_records();
        let mut disk = Vec::new();
        disk.extend_from_slice(&JOURNAL_MAGIC);
        disk.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        let header = disk.len();
        let frame_len = |r: &JournalRecord| encode_record(r).len();
        // The header is already on the "disk"; the budget meters only
        // what flows through the failing writer.
        let budget = frame_len(&recs[0]) + frame_len(&recs[1]) + 5;

        let mut w = FailingWriter::new(disk, budget);
        write_frame(&mut w, &recs[0]).unwrap();
        write_frame(&mut w, &recs[1]).unwrap();
        let err = write_frame(&mut w, &recs[2]).expect_err("device is full");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);

        // The short write left a torn third frame on the "disk";
        // recovery trusts exactly the two whole records before it.
        let disk = w.into_inner();
        assert_eq!(
            disk.len(),
            header + budget,
            "partial frame reached the disk"
        );
        let (recovered, valid) = decode_records(&disk);
        assert_eq!(recovered, recs[..2]);
        assert_eq!(valid, header + frame_len(&recs[0]) + frame_len(&recs[1]));
    }

    #[test]
    fn append_surfaces_write_errors_without_panicking() {
        // A directory is not writable as a file: opening the journal at
        // a path whose parent is a regular file must error, not panic.
        let path = tmpfile("notadir");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let blocker = path.parent().unwrap().join("blocker");
        std::fs::write(&blocker, b"file").unwrap();
        let under_file = blocker.join("run_journal.bin");
        assert!(Journal::open(&under_file).is_err());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn an_over_long_multibyte_error_keeps_every_record() {
        // 70,000 bytes of a two-byte character: the u16 string field
        // cuts it, and the cut must land on a char boundary or the
        // record (and every one after it) is lost on reopen.
        let path = tmpfile("multibyte");
        let (journal, _) = Journal::open(&path).unwrap();
        let failed = |error: String| JournalRecord::CellFailed {
            bench: "li".into(),
            config: "E".into(),
            width: 16,
            error,
        };
        journal
            .append(&JournalRecord::RunStarted { config: "x".into() })
            .unwrap();
        journal.append(&failed("é".repeat(35_000))).unwrap();
        journal
            .append(&JournalRecord::RunFinished { status: 2 })
            .unwrap();
        drop(journal);
        let (_, recovered) = Journal::open(&path).unwrap();
        assert_eq!(
            recovered,
            vec![
                JournalRecord::RunStarted { config: "x".into() },
                failed("é".repeat(32_767)),
                JournalRecord::RunFinished { status: 2 },
            ]
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
