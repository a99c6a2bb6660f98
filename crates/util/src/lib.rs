//! Shared utilities for the DDSC (data dependence speculation & collapsing)
//! reproduction.
//!
//! This crate deliberately has no external dependencies: the reproduction
//! must be bit-for-bit deterministic across toolchains and platforms, so the
//! pseudo-random number generators, statistics and formatting helpers used
//! by every other crate live here.
//!
//! # Examples
//!
//! ```
//! use ddsc_util::rng::SplitMix64;
//!
//! let mut rng = SplitMix64::new(42);
//! let a = rng.next_u64();
//! let b = rng.next_u64();
//! assert_ne!(a, b);
//! ```

pub mod bits;
pub mod checksum;
pub mod codec;
pub mod fault;
pub mod fxhash;
pub mod hist;
pub mod journal;
pub mod json;
pub mod publish;
pub mod ring;
pub mod rng;
pub mod rss;
pub mod stats;
pub mod table;

pub use bits::BitSet;
pub use checksum::fnv1a;
pub use fault::{
    Backoff, BackoffDelays, FailingWriter, FaultOp, FaultPlan, FlakyReader, StreamFault,
    StreamFaultPlan,
};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use hist::Histogram;
pub use journal::{read_journal, Journal, JournalRecord};
pub use json::{Json, JsonError};
pub use publish::{publish_atomic, publish_atomic_with};
pub use ring::{RingBitSet, RingVec};
pub use rng::{Pcg32, SplitMix64};
pub use rss::peak_rss_bytes;
pub use stats::{geometric_mean, harmonic_mean, mean, percentile, Percent};
pub use table::TextTable;
