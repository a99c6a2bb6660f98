//! An on-disk store of finished per-cell simulation results.
//!
//! The run journal (see [`ddsc_util::journal`]) records *that* a cell
//! finished and the digest of the inputs it was computed from, but a
//! resumed run also needs the cell's [`SimResult`] back — re-rendering
//! every artifact from digests alone is impossible. A [`CellStore`]
//! keeps one small file per finished cell
//! (`cell-{digest:016x}.bin`, conventionally under
//! `results/cells/`), written atomically via
//! [`publish_atomic`](ddsc_util::publish_atomic) so a crash can never
//! publish a half-written result.
//!
//! Robustness rules mirror the trace cache:
//!
//! * each file carries a magic, format version, the cell digest and an
//!   FNV-1a checksum of the payload — any mismatch makes
//!   [`CellStore::load`] return `None` and the cell simply re-runs;
//! * the configuration is *not* stored; the caller reconstructs it from
//!   the [`CellKey`](crate::CellKey) whose digest it looked up. Entries
//!   of other inputs or another [`MODEL_VERSION`](crate::MODEL_VERSION)
//!   are never looked up, but only a version bump tells models apart;
//! * the store is an optimisation: a failed save is reported but the
//!   in-memory result is already correct.

use std::fs;
use std::path::{Path, PathBuf};

use ddsc_core::{SimConfig, SimResult};
use ddsc_util::codec::Reader;
use ddsc_util::{fnv1a, publish_atomic};

/// Cell-store magic: "DDSC Cell Result".
const MAGIC: &[u8; 4] = b"DDCR";
/// Bump on any incompatible layout change; old files then just miss.
const VERSION: u32 = 1;
/// Magic + version + digest + payload_len + checksum.
const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8;

/// A directory of finished cell results, keyed by cell digest.
#[derive(Debug, Clone)]
pub struct CellStore {
    dir: PathBuf,
}

impl CellStore {
    /// A store rooted at `dir`. The directory is created lazily on the
    /// first save.
    pub fn new(dir: impl Into<PathBuf>) -> CellStore {
        CellStore { dir: dir.into() }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a given cell digest lives at.
    pub fn path_for(&self, digest: u64) -> PathBuf {
        self.dir.join(format!("cell-{digest:016x}.bin"))
    }

    /// Saves one finished cell result under its digest, atomically.
    ///
    /// # Errors
    ///
    /// Returns any underlying filesystem error. Callers may treat a
    /// failure as non-fatal — the cell can always be re-simulated.
    pub fn save(&self, digest: u64, result: &SimResult) -> std::io::Result<()> {
        let mut payload = Vec::new();
        result.encode_to(&mut payload);

        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&digest.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);

        publish_atomic(&self.path_for(digest), &bytes)
    }

    /// Loads the cell result stored under `digest`, attaching the
    /// caller-reconstructed `config`. `None` on any failure — missing
    /// entry, truncation, corruption, foreign file — in which case the
    /// caller re-simulates.
    pub fn load(&self, digest: u64, config: SimConfig) -> Option<SimResult> {
        let bytes = fs::read(self.path_for(digest)).ok()?;
        let mut r = Reader::new(&bytes);
        let (magic, version, stored_digest) = (r.take(4).ok()?, r.u32().ok()?, r.u64().ok()?);
        let (payload_len, checksum) = (r.u64().ok()?, r.u64().ok()?);
        let payload = r.rest();
        if magic != MAGIC
            || version != VERSION
            || stored_digest != digest
            || payload_len != payload.len() as u64
            || checksum != fnv1a(payload)
        {
            return None;
        }
        let mut pos = 0;
        let result = SimResult::decode(payload, &mut pos, config)?;
        // Reject trailing garbage: a longer-than-expected payload means
        // the file is not what this version would have written.
        (pos == payload.len()).then_some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddsc_core::{simulate, PaperConfig};
    use ddsc_workloads::Benchmark;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ddsc-cell-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample_result() -> SimResult {
        let trace = Benchmark::Compress.trace(1996, 2_000).unwrap();
        simulate(&trace, &SimConfig::paper(PaperConfig::C, 8))
    }

    #[test]
    fn round_trips_a_real_result() {
        let store = CellStore::new(tmpdir("roundtrip"));
        let result = sample_result();
        assert!(store.load(0xBEEF, result.config).is_none(), "cold miss");
        store.save(0xBEEF, &result).unwrap();
        let back = store.load(0xBEEF, result.config).expect("warm hit");
        assert_eq!(back, result);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corruption_and_foreign_digests_miss() {
        let store = CellStore::new(tmpdir("corrupt"));
        let result = sample_result();
        store.save(7, &result).unwrap();
        let path = store.path_for(7);

        // A different digest misses even if a file exists at its path.
        fs::rename(&path, store.path_for(8)).unwrap();
        assert!(store.load(8, result.config).is_none(), "digest mismatch");
        fs::rename(store.path_for(8), &path).unwrap();

        // Flip a payload byte: the checksum must catch it.
        let clean = fs::read(&path).unwrap();
        let mut bytes = clean.clone();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(7, result.config).is_none(), "bit flip");

        // Truncate at every 97th prefix (cheap but covers header,
        // counter block and collapse payload regions).
        for cut in (0..clean.len()).step_by(97) {
            fs::write(&path, &clean[..cut]).unwrap();
            assert!(store.load(7, result.config).is_none(), "truncated at {cut}");
        }

        // Trailing garbage is rejected too.
        let mut long = clean.clone();
        long.extend_from_slice(b"xx");
        // Fix up payload_len/checksum so only the decode-length check fires.
        let payload = long[HEADER_LEN..].to_vec();
        long[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        long[24..32].copy_from_slice(&fnv1a(&payload).to_le_bytes());
        fs::write(&path, &long).unwrap();
        assert!(store.load(7, result.config).is_none(), "trailing bytes");

        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn save_surfaces_filesystem_errors_without_panicking() {
        // Root the store under a path whose parent is a regular file:
        // directory creation fails with a typed error, and the caller
        // (the lab treats a failed save as non-fatal) gets an Err, not
        // a panic. Permission-denied is unreliable under root, so the
        // blocking file stands in for every "cannot write here" fault.
        let base = tmpdir("badroot");
        fs::create_dir_all(&base).unwrap();
        let blocker = base.join("blocker");
        fs::write(&blocker, b"file").unwrap();
        let store = CellStore::new(blocker.join("cells"));
        let err = store.save(1, &sample_result()).expect_err("must fail");
        assert_ne!(err.kind(), std::io::ErrorKind::Other);
        assert!(store.load(1, sample_result().config).is_none());
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn saves_leave_no_temp_files_behind() {
        let store = CellStore::new(tmpdir("atomic"));
        let result = sample_result();
        store.save(1, &result).unwrap();
        store.save(1, &result).unwrap(); // overwrite
        let entries: Vec<_> = fs::read_dir(store.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(entries, vec![format!("cell-{:016x}.bin", 1)]);
        let _ = fs::remove_dir_all(store.dir());
    }
}
