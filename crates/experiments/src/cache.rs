//! An on-disk cache of generated benchmark traces.
//!
//! Workload execution is deterministic in `(benchmark, seed, length)`,
//! so a generated trace never changes — regenerating it at every
//! `ddsc repro` invocation is pure waste once traces get long. A
//! [`TraceCache`] stores each trace as one file
//! (`{benchmark}-s{seed}-n{len}-m{MODEL_VERSION}.bin`, conventionally
//! under `results/traces/`) and serves it back on the next run; a
//! version bump makes every older trace miss.
//!
//! # Chunked format (version 2)
//!
//! Paper-scale traces (250M instructions ≈ 6.5 GB of records) rule out
//! the version-1 layout, which checksummed and decoded the file as one
//! unit. Version 2 stores the records as a sequence of independently
//! checksummed *frames*:
//!
//! ```text
//! header : magic "DDTC", version:u32, seed:u64, len:u64,
//!          frame_records:u64, total:u64          (40 bytes)
//! frame  : count:u64, fnv1a(payload):u64, payload (count × 26 bytes)
//! ...
//! ```
//!
//! Frames let both directions stream in O(frame) memory:
//! [`TraceCache::store_source`] writes records as a
//! [`TraceSource`] produces them, and [`TraceCache::open_stream`]
//! returns a [`ChunkedReader`] — itself a [`TraceSource`] — that
//! validates each frame's checksum as it is pulled, never holding more
//! than one decoded frame.
//!
//! Robustness rules:
//!
//! * every frame carries its own FNV-1a checksum, and the header binds
//!   the generation key — any mismatch (truncation, corruption, stale
//!   format, foreign file) fails the load and the caller regenerates;
//! * writes go to a temporary sibling file first and are atomically
//!   renamed into place, so a crashed or concurrent run can never
//!   publish a half-written cache entry;
//! * the cache is an optimisation only: store failures are reported to
//!   the caller but safe to ignore (the trace can be regenerated).

use std::fmt;
use std::fs;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use ddsc_trace::io::{decode_record, encode_record, TraceIoError, RECORD_LEN};
use ddsc_trace::{SliceSource, SourceError, Trace, TraceInst, TraceSource};
use ddsc_util::codec::{Reader, WireError};
use ddsc_util::fault::{is_transient, Backoff};
use ddsc_util::{fnv1a, publish_atomic_with};

use crate::cell::MODEL_VERSION;

/// Cache-file magic: "DDSC Trace Cache".
const MAGIC: &[u8; 4] = b"DDTC";
/// Bump on any incompatible layout change; old files then just miss.
const VERSION: u32 = 2;
/// Magic + version + seed + len + frame_records + total.
const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8 + 8;
/// Byte offset of the header's `total` field (patched after a
/// streaming store discovers the final record count).
const TOTAL_OFFSET: u64 = 32;
/// Frame header: record count + payload checksum.
const FRAME_HEADER_LEN: usize = 8 + 8;

/// Records per frame when the caller does not choose: ~1.7 MB of
/// payload — large enough to amortise the per-frame syscalls and
/// checksum, small enough that one decoded frame is negligible next to
/// the simulator's own window.
pub const DEFAULT_FRAME_RECORDS: usize = 1 << 16;

/// Why a cache lookup failed — so callers can distinguish "never
/// cached" from "cached but damaged" from "the filesystem hiccuped",
/// each of which wants a different response (generate / regenerate /
/// retry).
#[derive(Debug)]
pub enum CacheError {
    /// No entry exists for the key.
    Missing,
    /// An entry exists but fails validation; the message names the
    /// first check that failed.
    Corrupt(String),
    /// The entry could not be read at all. Transient kinds (see
    /// [`ddsc_util::fault::is_transient`]) are worth retrying.
    Io(std::io::Error),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Missing => write!(f, "no cache entry"),
            CacheError::Corrupt(why) => write!(f, "corrupt cache entry: {why}"),
            CacheError::Io(e) => write!(f, "cache read failed: {e}"),
        }
    }
}

impl From<WireError> for CacheError {
    fn from(e: WireError) -> CacheError {
        CacheError::Corrupt(e.to_string())
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// A directory of cached benchmark traces.
#[derive(Debug, Clone)]
pub struct TraceCache {
    dir: PathBuf,
    /// Injected transient faults remaining: while non-zero, each load
    /// decrements it and fails with a timed-out error. Shared across
    /// clones so a fault budget set on the cache survives being handed
    /// to worker threads.
    transient_faults: Arc<AtomicU32>,
}

impl TraceCache {
    /// A cache rooted at `dir`. The directory is created lazily on the
    /// first store.
    pub fn new(dir: impl Into<PathBuf>) -> TraceCache {
        TraceCache {
            dir: dir.into(),
            transient_faults: Arc::new(AtomicU32::new(0)),
        }
    }

    /// Arms the cache to fail its next `n` loads with a transient
    /// (timed-out) I/O error before behaving normally — the
    /// deterministic stand-in for a flaky mount that retry-path tests
    /// are written against.
    pub fn with_transient_faults(self, n: u32) -> TraceCache {
        self.transient_faults.store(n, Ordering::SeqCst);
        self
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a given generation key lives at.
    pub fn path_for(&self, name: &str, seed: u64, len: usize) -> PathBuf {
        self.dir
            .join(format!("{name}-s{seed}-n{len}-m{MODEL_VERSION}.bin"))
    }

    fn take_injected_fault(&self) -> Option<CacheError> {
        self.transient_faults
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
            .then(|| {
                CacheError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "injected transient cache fault",
                ))
            })
    }

    /// Loads a cached trace, or `None` on any failure. Convenience
    /// wrapper over [`TraceCache::try_load`] for callers that treat
    /// every miss the same way.
    pub fn load(&self, name: &str, seed: u64, len: usize) -> Option<Trace> {
        self.try_load(name, seed, len).ok()
    }

    /// Loads a cached trace whole, classifying any failure:
    /// [`CacheError::Missing`] if no entry exists, [`CacheError::Corrupt`]
    /// naming the first failed validation check, [`CacheError::Io`] for
    /// read failures. Bounded-memory callers should prefer
    /// [`TraceCache::open_stream`].
    ///
    /// # Errors
    ///
    /// See [`CacheError`]; transient `Io` errors are worth retrying
    /// ([`TraceCache::load_with_retry`] does).
    pub fn try_load(&self, name: &str, seed: u64, len: usize) -> Result<Trace, CacheError> {
        let mut reader = self.open_stream(name, seed, len)?;
        let mut insts = Vec::with_capacity(reader.remaining_total().min(1 << 24));
        while reader.pull_into(&mut insts, usize::MAX)? > 0 {}
        Ok(Trace::from_parts(name.to_string(), insts))
    }

    /// Opens a cached trace for streamed reading: the header and key
    /// are validated up front, each frame's checksum as it is pulled.
    ///
    /// # Errors
    ///
    /// As for [`TraceCache::try_load`]; frame-level corruption surfaces
    /// later, from the reads themselves.
    pub fn open_stream(
        &self,
        name: &str,
        seed: u64,
        len: usize,
    ) -> Result<ChunkedReader, CacheError> {
        if let Some(fault) = self.take_injected_fault() {
            return Err(fault);
        }
        let file = match fs::File::open(self.path_for(name, seed, len)) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(CacheError::Missing),
            Err(e) => return Err(CacheError::Io(e)),
        };
        let corrupt = |why: &str| CacheError::Corrupt(why.to_string());
        let mut file = BufReader::new(file);
        let mut header = [0u8; HEADER_LEN];
        match file.read_exact(&mut header) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Err(corrupt("file shorter than the header"))
            }
            Err(e) => return Err(CacheError::Io(e)),
        }
        let mut h = Reader::new(&header);
        if h.take(4)? != MAGIC {
            return Err(corrupt("bad magic"));
        }
        if h.u32()? != VERSION {
            return Err(corrupt("format version mismatch"));
        }
        if h.u64()? != seed || h.u64()? != len as u64 {
            // The key is in the file name, so an in-file mismatch means
            // the entry was renamed or overwritten — corruption, not a
            // plain miss.
            return Err(corrupt("generation key does not match the file name"));
        }
        let frame_records = h.u64()?;
        if frame_records == 0 {
            return Err(corrupt("zero frame size"));
        }
        let total = h.u64()?;
        if total > len as u64 {
            return Err(corrupt("record total exceeds the generation key length"));
        }
        Ok(ChunkedReader {
            file,
            name: name.to_string(),
            frame_records,
            total,
            loaded: 0,
            pending: Vec::new(),
            cursor: 0,
        })
    }

    /// [`TraceCache::try_load`] with up to `retries` bounded-backoff
    /// retries of *transient* I/O errors. Missing entries, corruption
    /// and hard I/O errors return immediately — retrying cannot fix
    /// those.
    ///
    /// # Errors
    ///
    /// The final [`CacheError`] once retries are exhausted.
    pub fn load_with_retry(
        &self,
        name: &str,
        seed: u64,
        len: usize,
        retries: usize,
    ) -> Result<Trace, CacheError> {
        let mut delays = Backoff::for_cache().delays();
        let mut left = retries;
        loop {
            match self.try_load(name, seed, len) {
                Err(CacheError::Io(e)) if is_transient(&e) && left > 0 => {
                    left -= 1;
                    if let Some(delay) = delays.next() {
                        std::thread::sleep(delay);
                    }
                }
                outcome => return outcome,
            }
        }
    }

    /// Stores a trace under its generation key, atomically (write to a
    /// temporary sibling, fsync, then rename into place).
    ///
    /// # Errors
    ///
    /// Returns any underlying filesystem error. Callers may treat a
    /// failure as non-fatal — the cache is an optimisation.
    pub fn store(&self, name: &str, seed: u64, len: usize, trace: &Trace) -> std::io::Result<()> {
        self.store_source(
            name,
            seed,
            len,
            &mut SliceSource::new(trace),
            DEFAULT_FRAME_RECORDS,
        )
        .map(drop)
    }

    /// Stores the records a [`TraceSource`] produces, frame by frame,
    /// never holding more than `frame_records` records in memory —
    /// the write path for traces too large to materialise. Returns the
    /// number of records stored.
    ///
    /// # Errors
    ///
    /// Any underlying filesystem error, or a source failure (as
    /// [`std::io::ErrorKind::Other`]); either way the target path is
    /// untouched.
    pub fn store_source<S: TraceSource>(
        &self,
        name: &str,
        seed: u64,
        len: usize,
        source: &mut S,
        frame_records: usize,
    ) -> std::io::Result<u64> {
        let frame_records = frame_records.max(1);
        let mut total: u64 = 0;
        publish_atomic_with(&self.path_for(name, seed, len), |f| {
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(MAGIC);
            header.extend_from_slice(&VERSION.to_le_bytes());
            header.extend_from_slice(&seed.to_le_bytes());
            header.extend_from_slice(&(len as u64).to_le_bytes());
            header.extend_from_slice(&(frame_records as u64).to_le_bytes());
            header.extend_from_slice(&0u64.to_le_bytes()); // total, patched below
            f.write_all(&header)?;

            let mut records = Vec::with_capacity(frame_records);
            let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + frame_records * RECORD_LEN);
            loop {
                records.clear();
                let n = source
                    .fill(&mut records, frame_records)
                    .map_err(std::io::Error::other)?;
                if n == 0 {
                    break;
                }
                frame.clear();
                frame.extend_from_slice(&(n as u64).to_le_bytes());
                frame.extend_from_slice(&[0u8; 8]); // checksum, patched below
                for rec in &records {
                    encode_record(rec, &mut frame);
                }
                let checksum = fnv1a(&frame[FRAME_HEADER_LEN..]);
                frame[8..16].copy_from_slice(&checksum.to_le_bytes());
                f.write_all(&frame)?;
                total += n as u64;
            }
            f.seek(SeekFrom::Start(TOTAL_OFFSET))?;
            f.write_all(&total.to_le_bytes())?;
            Ok(())
        })?;
        Ok(total)
    }
}

/// A streamed view of one cached trace: a [`TraceSource`] that decodes
/// and checksum-validates one frame at a time.
#[derive(Debug)]
pub struct ChunkedReader {
    file: BufReader<fs::File>,
    name: String,
    /// Most records one frame may hold, from the header.
    frame_records: u64,
    /// Records the header promises.
    total: u64,
    /// Records decoded from frames so far.
    loaded: u64,
    /// The current decoded frame and the next record to serve from it.
    pending: Vec<TraceInst>,
    cursor: usize,
}

impl ChunkedReader {
    /// Total records the cache entry holds.
    pub fn total(&self) -> u64 {
        self.total
    }

    fn remaining_total(&self) -> usize {
        usize::try_from(self.total - self.loaded).unwrap_or(usize::MAX)
            + (self.pending.len() - self.cursor)
    }

    /// Reads and validates the next frame into `pending`.
    fn load_frame(&mut self) -> Result<(), CacheError> {
        let corrupt = |why: &str| CacheError::Corrupt(why.to_string());
        let mut head = [0u8; FRAME_HEADER_LEN];
        match self.file.read_exact(&mut head) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Err(corrupt("file ends before the promised record total"))
            }
            Err(e) => return Err(CacheError::Io(e)),
        }
        let mut h = Reader::new(&head);
        let (count, checksum) = (h.u64()?, h.u64()?);
        // A corrupt count must classify, never overflow: `loaded` never
        // passes `total`, and `count ≤ total ≤ len` fits a `usize`.
        let room = self.total - self.loaded;
        if count == 0 || count > self.frame_records || count > room {
            return Err(corrupt("frame record count disagrees with the header"));
        }
        let payload_len = (count as usize).checked_mul(RECORD_LEN);
        let mut payload = vec![0u8; payload_len.ok_or_else(|| corrupt("frame too large"))?];
        match self.file.read_exact(&mut payload) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Err(corrupt("frame payload is truncated"))
            }
            Err(e) => return Err(CacheError::Io(e)),
        }
        if fnv1a(&payload) != checksum {
            return Err(corrupt("frame checksum mismatch"));
        }
        self.pending.clear();
        self.cursor = 0;
        for rec in payload.chunks_exact(RECORD_LEN) {
            let rec: &[u8; RECORD_LEN] = rec.try_into().expect("chunks are exact");
            self.pending.push(
                decode_record(rec)
                    .map_err(|e: TraceIoError| CacheError::Corrupt(format!("bad record: {e}")))?,
            );
        }
        self.loaded += count;
        Ok(())
    }

    /// The classified-error twin of [`TraceSource::fill`].
    ///
    /// # Errors
    ///
    /// [`CacheError::Corrupt`] or [`CacheError::Io`] per frame.
    pub fn pull_into(&mut self, out: &mut Vec<TraceInst>, max: usize) -> Result<usize, CacheError> {
        let mut served = 0;
        while served < max {
            if self.cursor == self.pending.len() {
                if self.loaded == self.total {
                    break;
                }
                self.load_frame()?;
            }
            let take = (max - served).min(self.pending.len() - self.cursor);
            out.extend_from_slice(&self.pending[self.cursor..self.cursor + take]);
            self.cursor += take;
            served += take;
        }
        Ok(served)
    }
}

impl TraceSource for ChunkedReader {
    fn name(&self) -> &str {
        &self.name
    }

    fn fill(&mut self, out: &mut Vec<TraceInst>, max: usize) -> Result<usize, SourceError> {
        self.pull_into(out, max)
            .map_err(|e| SourceError::new(format!("trace cache: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddsc_isa::{Opcode, Reg};
    use ddsc_trace::TraceInst;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ddsc-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample(n: usize) -> Trace {
        let mut t = Trace::new("sample");
        for i in 0..n {
            t.push(TraceInst::alu(
                4 * i as u32,
                Opcode::Add,
                Reg::new(1),
                Reg::new(2),
                None,
                Some(i as i32),
                0,
            ));
        }
        t
    }

    #[test]
    fn round_trips_a_trace() {
        let cache = TraceCache::new(tmpdir("roundtrip"));
        let t = sample(100);
        assert!(cache.load("sample", 7, 100).is_none(), "cold cache misses");
        cache.store("sample", 7, 100, &t).unwrap();
        let back = cache.load("sample", 7, 100).expect("warm cache hits");
        assert_eq!(back, t);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn round_trips_across_frame_boundaries() {
        let cache = TraceCache::new(tmpdir("frames"));
        let t = sample(1000);
        // Frame sizes that divide, straddle, and exceed the trace.
        for frames in [1usize, 7, 1000, 4096] {
            let stored = cache
                .store_source("sample", 7, 1000, &mut SliceSource::new(&t), frames)
                .unwrap();
            assert_eq!(stored, 1000);
            assert_eq!(
                cache.load("sample", 7, 1000).expect("hits"),
                t,
                "frame size {frames}"
            );
        }
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn streamed_reads_match_whole_loads_at_any_pull_size() {
        let cache = TraceCache::new(tmpdir("pulls"));
        let t = sample(500);
        cache
            .store_source("sample", 7, 500, &mut SliceSource::new(&t), 64)
            .unwrap();
        for pull in [1usize, 13, 64, 100, 10_000] {
            let mut reader = cache.open_stream("sample", 7, 500).unwrap();
            assert_eq!(reader.total(), 500);
            let mut insts = Vec::new();
            loop {
                let before = insts.len();
                let n = reader.fill(&mut insts, pull).expect("clean read");
                assert_eq!(insts.len() - before, n);
                if n == 0 {
                    break;
                }
            }
            assert_eq!(insts, t.insts(), "pull size {pull}");
        }
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn key_mismatches_miss() {
        let cache = TraceCache::new(tmpdir("keys"));
        let t = sample(50);
        cache.store("sample", 7, 50, &t).unwrap();
        assert!(cache.load("sample", 8, 50).is_none(), "wrong seed");
        assert!(cache.load("sample", 7, 51).is_none(), "wrong length");
        assert!(cache.load("other", 7, 50).is_none(), "wrong benchmark");
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn entries_of_another_model_version_miss() {
        let cache = TraceCache::new(tmpdir("versions"));
        cache.store("sample", 3, 80, &sample(80)).unwrap();
        let current = cache.path_for("sample", 3, 80);
        // Valid files under the names another version gives the key:
        // the unversioned name of the first cache and the previous
        // version's.
        for foreign in [
            "sample-s3-n80.bin".to_string(),
            format!("sample-s3-n80-m{}.bin", MODEL_VERSION - 1),
        ] {
            fs::copy(&current, cache.dir().join(foreign)).unwrap();
        }
        fs::remove_file(&current).unwrap();
        assert!(matches!(
            cache.try_load("sample", 3, 80),
            Err(CacheError::Missing)
        ));
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corruption_is_detected() {
        let cache = TraceCache::new(tmpdir("corrupt"));
        let t = sample(80);
        cache.store("sample", 3, 80, &t).unwrap();
        let path = cache.path_for("sample", 3, 80);

        // Flip one payload byte: the frame checksum must catch it.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(cache.load("sample", 3, 80).is_none(), "bit flip");

        // Truncate mid-payload: the frame read must catch it.
        cache.store("sample", 3, 80, &t).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(cache.load("sample", 3, 80).is_none(), "truncation");

        // Garbage shorter than a header.
        fs::write(&path, b"DD").unwrap();
        assert!(cache.load("sample", 3, 80).is_none(), "tiny file");
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corruption_in_a_late_frame_fails_the_streamed_read_midway() {
        let cache = TraceCache::new(tmpdir("lateframe"));
        let t = sample(300);
        cache
            .store_source("sample", 3, 300, &mut SliceSource::new(&t), 100)
            .unwrap();
        // Flip a byte in the last frame's payload.
        let path = cache.path_for("sample", 3, 300);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let mut reader = cache.open_stream("sample", 3, 300).unwrap();
        let mut insts = Vec::new();
        // The first two frames are intact and serve fine.
        assert_eq!(reader.pull_into(&mut insts, 200).unwrap(), 200);
        assert_eq!(insts, t.insts()[..200]);
        // The damaged frame fails — and classifies as corruption.
        match reader.pull_into(&mut insts, 100) {
            Err(CacheError::Corrupt(why)) => assert!(why.contains("checksum"), "{why}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn an_overflowing_frame_count_is_corruption_not_a_panic() {
        let cache = TraceCache::new(tmpdir("overflow"));
        let t = sample(200);
        cache
            .store_source("sample", 3, 200, &mut SliceSource::new(&t), 100)
            .unwrap();
        // The second frame's count sits after the header and one whole
        // 100-record frame.
        let path = cache.path_for("sample", 3, 200);
        let mut bytes = fs::read(&path).unwrap();
        let second = HEADER_LEN + FRAME_HEADER_LEN + 100 * RECORD_LEN;
        bytes[second..second + 8].copy_from_slice(&(u64::MAX - 50).to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            cache.try_load("sample", 3, 200),
            Err(CacheError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn try_load_classifies_failures() {
        let cache = TraceCache::new(tmpdir("classify"));
        assert!(matches!(
            cache.try_load("sample", 3, 80),
            Err(CacheError::Missing)
        ));

        let t = sample(80);
        cache.store("sample", 3, 80, &t).unwrap();
        let path = cache.path_for("sample", 3, 80);
        let clean = fs::read(&path).unwrap();

        // Truncated mid-header: shorter than HEADER_LEN.
        fs::write(&path, &clean[..HEADER_LEN / 2]).unwrap();
        match cache.try_load("sample", 3, 80) {
            Err(CacheError::Corrupt(why)) => assert!(why.contains("header"), "{why}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // Truncated mid-payload: header intact, frames short.
        fs::write(&path, &clean[..clean.len() - 13]).unwrap();
        match cache.try_load("sample", 3, 80) {
            Err(CacheError::Corrupt(why)) => assert!(why.contains("truncated"), "{why}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // In-file key mismatch (file renamed under a foreign key).
        fs::write(&path, &clean).unwrap();
        fs::rename(&path, cache.path_for("sample", 4, 80)).unwrap();
        match cache.try_load("sample", 4, 80) {
            Err(CacheError::Corrupt(why)) => assert!(why.contains("key"), "{why}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }

        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn transient_faults_fail_loads_then_clear() {
        let cache = TraceCache::new(tmpdir("transient")).with_transient_faults(2);
        let t = sample(30);
        cache.store("sample", 9, 30, &t).unwrap();
        for _ in 0..2 {
            match cache.try_load("sample", 9, 30) {
                Err(CacheError::Io(e)) => assert!(ddsc_util::fault::is_transient(&e)),
                other => panic!("expected transient Io, got {other:?}"),
            }
        }
        assert_eq!(cache.try_load("sample", 9, 30).unwrap(), t);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn retry_rides_out_transient_faults() {
        let cache = TraceCache::new(tmpdir("retry")).with_transient_faults(2);
        let t = sample(30);
        cache.store("sample", 9, 30, &t).unwrap();
        assert_eq!(cache.load_with_retry("sample", 9, 30, 3).unwrap(), t);

        // Exhausted retries surface the transient error.
        let cache = cache.with_transient_faults(5);
        assert!(matches!(
            cache.load_with_retry("sample", 9, 30, 2),
            Err(CacheError::Io(_))
        ));

        // Non-transient failures do not retry (would hang otherwise if
        // they decremented nothing; here just assert classification).
        let cache = cache.with_transient_faults(0);
        assert!(matches!(
            cache.load_with_retry("missing", 9, 30, 3),
            Err(CacheError::Missing)
        ));
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stores_leave_no_temp_files_behind() {
        let cache = TraceCache::new(tmpdir("atomic"));
        cache.store("sample", 1, 20, &sample(20)).unwrap();
        cache.store("sample", 1, 20, &sample(20)).unwrap(); // overwrite
        let entries: Vec<_> = fs::read_dir(cache.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(entries, vec![format!("sample-s1-n20-m{MODEL_VERSION}.bin")]);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn an_empty_trace_round_trips() {
        let cache = TraceCache::new(tmpdir("empty"));
        cache.store("sample", 1, 0, &sample(0)).unwrap();
        let back = cache.load("sample", 1, 0).expect("hits");
        assert!(back.is_empty());
        let _ = fs::remove_dir_all(cache.dir());
    }
}
