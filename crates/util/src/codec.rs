//! The one byte codec and frame layer.
//!
//! Every binary format that reads bytes it did not just write — the
//! serve and dist wires, the run journal, the result codec the cell
//! store persists, and the cell-store and trace-cache headers — goes
//! through this module: [`put_str`]/[`put_bytes`] write fields, the
//! total [`Reader`] reads them, [`encode_frame`]/[`write_frame`]/
//! [`split_frame`]/[`read_frame`] carry payloads, and [`WireError`] is
//! the one error type.
//!
//! ```text
//! frame   := len:u32 payload[len] fnv1a(payload):u64    1 ≤ len ≤ cap
//! string  := len:u16 utf8[len]                          (little-endian)
//! bytes   := len:u32 raw[len]
//! ```
//!
//! Each frame function takes its format's payload cap, so an absurd
//! length is rejected before allocation. A string longer than its
//! `u16` field is cut at the last `char` boundary within 65,535 bytes,
//! so it always decodes. Decoding is total: any input yields a value or
//! a typed [`WireError`], and a [`Reader`] never reserves more memory
//! than its unread input could fill.

use std::fmt;
use std::io::{self, Read, Write};

use crate::checksum::fnv1a;

/// Payload cap of the serve and dist wire frames. A request is tiny and
/// a result carries one encoded `SimResult` (a few hundred bytes plus
/// bounded histograms); anything claiming to be larger than 4 MiB is
/// corruption or abuse.
pub const MAX_FRAME_LEN: u32 = 4 << 20;

/// Longest string a [`put_str`] field holds: the `u16` length prefix.
const MAX_STR_LEN: usize = u16::MAX as usize;

/// Why a byte sequence failed to decode.
///
/// `Io` carries transport errors so stream readers handle one error
/// type end to end.
#[derive(Debug)]
pub enum WireError {
    /// The input ended inside a frame or field.
    Truncated,
    /// A frame checksum did not match its payload.
    Checksum,
    /// A length field was out of range: a frame length of zero or above
    /// the cap, or an element count the format cannot hold.
    BadLength(u32),
    /// A payload's version byte was not the protocol's.
    UnknownVersion(u8),
    /// A kind or code byte matched nothing known.
    UnknownKind(u8),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// The payload decoded but left unconsumed bytes.
    TrailingBytes,
    /// An underlying transport error.
    Io(io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Checksum => write!(f, "frame checksum mismatch"),
            WireError::BadLength(n) => write!(f, "bad frame length {n}"),
            WireError::UnknownVersion(v) => write!(f, "unknown protocol version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            WireError::TrailingBytes => write!(f, "trailing bytes after payload"),
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// Appends a string field: `len:u16 ‖ utf8`, cut at the last `char`
/// boundary within the 65,535 bytes the length field can count.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    let mut len = s.len().min(MAX_STR_LEN);
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..len]);
}

/// Appends a byte field: `len:u32 ‖ raw`.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// A bounds-checked reader over one byte slice: every getter returns
/// [`WireError::Truncated`] instead of reading past the end.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// A reader past a payload's leading version byte, which must be
    /// `version`.
    pub fn versioned(bytes: &'a [u8], version: u8) -> Result<Reader<'a>, WireError> {
        let mut r = Reader::new(bytes);
        match r.u8()? {
            v if v == version => Ok(r),
            other => Err(WireError::UnknownVersion(other)),
        }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(WireError::Truncated)?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Everything not yet consumed.
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        rest
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, WireError> {
        self.array().map(u128::from_le_bytes)
    }

    /// A [`put_str`] field.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = usize::from(self.u16()?);
        let raw = self.take(len)?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| WireError::BadUtf8)
    }

    /// A [`put_bytes`] field.
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// A capacity for `count` elements of at least `min_len` encoded
    /// bytes each, clamped to what the unread input could hold — so a
    /// corrupt count never reserves memory the input cannot fill.
    pub fn capacity_for(&self, count: usize, min_len: usize) -> usize {
        count.min(self.remaining() / min_len.max(1))
    }

    /// Ends decoding: [`WireError::TrailingBytes`] unless every byte
    /// was consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

/// The frame length a prefix claims, if `1 ≤ len ≤ cap`.
fn checked_len(len: u32, cap: u32) -> Result<usize, WireError> {
    if len == 0 || len > cap {
        Err(WireError::BadLength(len))
    } else {
        Ok(len as usize)
    }
}

/// Wraps a payload in one frame: `len ‖ payload ‖ fnv1a(payload)`.
///
/// # Errors
///
/// [`WireError::BadLength`] for an empty payload or one above `cap` —
/// a frame its own reader would reject is never produced.
pub fn encode_frame(payload: &[u8], cap: u32) -> Result<Vec<u8>, WireError> {
    let len = u32::try_from(payload.len()).map_err(|_| WireError::BadLength(u32::MAX))?;
    checked_len(len, cap)?;
    let mut frame = Vec::with_capacity(payload.len() + 12);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
    Ok(frame)
}

/// Writes one frame with a single `write_all`, so a frame reaches the
/// writer whole or (on a short write) as a detectably torn prefix.
///
/// # Errors
///
/// Any writer error, kind preserved; an out-of-range payload (see
/// [`encode_frame`]) as [`io::ErrorKind::InvalidData`].
pub fn write_frame(w: &mut impl Write, payload: &[u8], cap: u32) -> io::Result<()> {
    let frame =
        encode_frame(payload, cap).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    w.write_all(&frame)
}

/// Splits one frame off the front of `bytes`: returns the payload and
/// the bytes consumed. Errors exactly where [`read_frame`] would.
pub fn split_frame(bytes: &[u8], cap: u32) -> Result<(&[u8], usize), WireError> {
    let mut r = Reader::new(bytes);
    let len = checked_len(r.u32()?, cap)?;
    let payload = r.take(len)?;
    if fnv1a(payload) != r.u64()? {
        return Err(WireError::Checksum);
    }
    Ok((payload, r.pos()))
}

/// Reads one frame from a stream. `Ok(None)` is a clean end of stream
/// (the peer closed between frames); EOF *inside* a frame is
/// [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read, cap: u32) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_bytes = [0u8; 4];
    // A clean close before any byte of the next frame is not an error.
    match r.read(&mut len_bytes) {
        Ok(0) => return Ok(None),
        Ok(n) => r
            .read_exact(&mut len_bytes[n..])
            .map_err(eof_as_truncated)?,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => {
            r.read_exact(&mut len_bytes).map_err(eof_as_truncated)?
        }
        Err(e) => return Err(WireError::Io(e)),
    }
    let len = checked_len(u32::from_le_bytes(len_bytes), cap)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(eof_as_truncated)?;
    let mut sum = [0u8; 8];
    r.read_exact(&mut sum).map_err(eof_as_truncated)?;
    if fnv1a(&payload) != u64::from_le_bytes(sum) {
        return Err(WireError::Checksum);
    }
    Ok(Some(payload))
}

fn eof_as_truncated(e: io::Error) -> WireError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        WireError::Truncated
    } else {
        WireError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use proptest::prelude::*;

    /// The caps the workspace's formats use: the wires and the journal.
    const CAPS: [u32; 2] = [MAX_FRAME_LEN, 1 << 20];

    fn frame(payload: &[u8]) -> Vec<u8> {
        encode_frame(payload, MAX_FRAME_LEN).unwrap()
    }

    fn read_all(bytes: &[u8], cap: u32) -> Result<Option<Vec<u8>>, WireError> {
        read_frame(&mut &bytes[..], cap)
    }

    #[test]
    fn strings_are_cut_on_a_char_boundary() {
        // 70,000 bytes of a two-byte character: the u16 field holds
        // 65,535 bytes, which would end mid-character.
        let long = "é".repeat(35_000);
        let mut out = Vec::new();
        put_str(&mut out, &long);
        let mut r = Reader::new(&out);
        let back = r.str().unwrap();
        r.finish().unwrap();
        assert_eq!(back, "é".repeat(32_767));
        // ASCII keeps the full field.
        let mut out = Vec::new();
        put_str(&mut out, &"x".repeat(70_000));
        assert_eq!(Reader::new(&out).str().unwrap().len(), MAX_STR_LEN);
    }

    #[test]
    fn reader_rejects_bad_utf8_and_trailing_bytes() {
        assert!(matches!(
            Reader::new(&[2, 0, 0xC3, 0x28]).str(),
            Err(WireError::BadUtf8)
        ));
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u16().unwrap(), 0x0201);
        assert!(matches!(r.clone().u16(), Err(WireError::Truncated)));
        assert!(matches!(r.finish(), Err(WireError::TrailingBytes)));
    }

    #[test]
    fn reader_never_reserves_past_its_input() {
        let bytes = [0u8; 40];
        let mut r = Reader::new(&bytes);
        r.take(8).unwrap();
        assert_eq!(r.capacity_for(usize::MAX, 8), 4);
        assert_eq!(r.capacity_for(2, 8), 2);
        assert_eq!(r.capacity_for(usize::MAX, 0), 32);
        // A byte field claiming 4 GiB in a 40-byte input is a
        // truncation, not an allocation.
        assert!(matches!(
            Reader::new(&[0xFF; 40]).bytes(),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn frames_outside_the_cap_are_never_encoded() {
        assert!(matches!(
            encode_frame(&[], MAX_FRAME_LEN),
            Err(WireError::BadLength(0))
        ));
        assert!(matches!(
            encode_frame(&[0; 9], 8),
            Err(WireError::BadLength(9))
        ));
        let err = write_frame(&mut Vec::new(), &[0; 9], 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn clean_eof_between_frames_is_not_an_error() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"one", MAX_FRAME_LEN).unwrap();
        write_frame(&mut stream, b"two", MAX_FRAME_LEN).unwrap();
        let mut r = &stream[..];
        assert_eq!(read_frame(&mut r, MAX_FRAME_LEN).unwrap().unwrap(), b"one");
        assert_eq!(read_frame(&mut r, MAX_FRAME_LEN).unwrap().unwrap(), b"two");
        assert!(read_frame(&mut r, MAX_FRAME_LEN).unwrap().is_none());
    }

    proptest! {
        /// Every strict prefix of a frame is `Truncated` on both entry
        /// points, except the empty stream, which is a clean EOF.
        #[test]
        fn every_truncation_is_truncated(payload in proptest::collection::vec(any::<u8>(), 1..200)) {
            let whole = frame(&payload);
            for cap in CAPS {
                for cut in 0..whole.len() {
                    let prefix = &whole[..cut];
                    prop_assert!(matches!(split_frame(prefix, cap), Err(WireError::Truncated)));
                    match read_all(prefix, cap) {
                        Ok(None) => prop_assert_eq!(cut, 0),
                        Err(WireError::Truncated) => prop_assert!(cut > 0),
                        other => prop_assert!(false, "cut {} gave {:?}", cut, other),
                    }
                }
                let (back, used) = split_frame(&whole, cap).unwrap();
                prop_assert_eq!(back, &payload[..]);
                prop_assert_eq!(used, whole.len());
                prop_assert_eq!(read_all(&whole, cap).unwrap().unwrap(), payload.clone());
            }
        }

        /// Flipping any bit of the payload or the checksum is `Checksum`.
        #[test]
        fn a_checksum_flip_is_checksum(
            payload in proptest::collection::vec(any::<u8>(), 1..200),
            at in any::<usize>(),
            bit in 0u8..8,
        ) {
            let mut bytes = frame(&payload);
            let at = 4 + at % (bytes.len() - 4);
            bytes[at] ^= 1 << bit;
            for cap in CAPS {
                prop_assert!(matches!(split_frame(&bytes, cap), Err(WireError::Checksum)));
                prop_assert!(matches!(read_all(&bytes, cap), Err(WireError::Checksum)));
            }
        }

        /// A zero or above-cap length prefix is `BadLength`, before any
        /// payload byte is read.
        #[test]
        fn a_bad_length_is_bad_length(
            payload in proptest::collection::vec(any::<u8>(), 1..64),
            over in 1u32..1024,
        ) {
            for cap in CAPS {
                for len in [0, cap + over, u32::MAX] {
                    let mut bytes = frame(&payload);
                    bytes[..4].copy_from_slice(&len.to_le_bytes());
                    let bad = |e: &WireError| matches!(e, WireError::BadLength(n) if *n == len);
                    prop_assert!(split_frame(&bytes, cap).is_err_and(|e| bad(&e)));
                    prop_assert!(read_all(&bytes, cap).is_err_and(|e| bad(&e)));
                }
            }
        }

        /// Random bytes never panic any entry point.
        #[test]
        fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            for cap in CAPS {
                let _ = split_frame(&bytes, cap);
                let _ = read_all(&bytes, cap);
            }
            let mut r = Reader::new(&bytes);
            while r.remaining() > 0 {
                let step = (r.u8().unwrap() % 7) as usize;
                let _ = match step {
                    0 => r.str().map(drop),
                    1 => r.bytes().map(drop),
                    2 => r.u16().map(drop),
                    3 => r.u32().map(drop),
                    4 => r.u64().map(drop),
                    5 => r.u128().map(drop),
                    _ => r.take(step).map(drop),
                };
            }
            prop_assert!(r.finish().is_ok());
        }

        /// A fault-plan mutation of a frame is rejected with a frame
        /// error, or leaves the frame intact and round-trips.
        #[test]
        fn a_mutation_rejects_or_round_trips(
            payload in proptest::collection::vec(any::<u8>(), 1..200),
            seed in any::<u64>(),
            faults in 1usize..8,
        ) {
            let clean = frame(&payload);
            let mut bytes = clean.clone();
            FaultPlan::seeded(seed, faults, bytes.len()).apply(&mut bytes);
            for cap in CAPS {
                match split_frame(&bytes, cap) {
                    Ok((back, used)) => {
                        prop_assert_eq!(back, &payload[..]);
                        prop_assert_eq!(used, clean.len());
                        prop_assert_eq!(&bytes, &clean);
                    }
                    Err(e) => prop_assert!(
                        matches!(e, WireError::Truncated | WireError::Checksum | WireError::BadLength(_)),
                        "unexpected error class {:?}", e
                    ),
                }
                match read_all(&bytes, cap) {
                    Ok(Some(back)) => prop_assert_eq!(back, payload.clone()),
                    Ok(None) => prop_assert!(bytes.is_empty()),
                    Err(e) => prop_assert!(
                        matches!(e, WireError::Truncated | WireError::Checksum | WireError::BadLength(_)),
                        "unexpected error class {:?}", e
                    ),
                }
            }
        }
    }
}
