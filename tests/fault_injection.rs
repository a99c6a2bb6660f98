//! Fault-injection integration tests: corrupted trace files, damaged
//! cache entries, transient I/O and failing grid cells, end to end.
//!
//! The contract under test: no input — however damaged — may panic the
//! pipeline. Corruption is either rejected with a typed error
//! (`TraceIoError`, `CacheError`, `ValidationError`) or healed by
//! regeneration; a failing grid cell degrades the run instead of
//! killing it.

use std::io::Read as _;

use ddsc::core::{simulate, PaperConfig, PreparedTrace, SimConfig, TraceValidator};
use ddsc::experiments::{render_all, CacheError, Lab, Suite, SuiteConfig, TraceCache};
use ddsc::trace::fault::TraceFaultPlan;
use ddsc::trace::io::{read_trace, write_trace};
use ddsc::trace::Trace;
use ddsc::util::fault::{is_transient, Backoff, FlakyReader};
use ddsc::workloads::Benchmark;
use proptest::prelude::*;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ddsc-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A zero-instruction trace flows through the whole pipeline: binary
/// round-trip, validation, pre-pass, simulation under every paper
/// configuration, and every paper artifact of a zero-length lab —
/// without panicking anywhere or printing a `NaN`.
#[test]
fn zero_instruction_traces_flow_end_to_end() {
    let empty = Trace::new("empty");
    let mut bytes = Vec::new();
    write_trace(&mut bytes, &empty).unwrap();
    let back = read_trace(bytes.as_slice()).unwrap();
    assert_eq!(back, empty);

    TraceValidator::new().validate(&back).unwrap();
    let prepared = PreparedTrace::try_build(&back).unwrap();
    assert!(prepared.is_empty());

    for c in PaperConfig::ALL {
        let r = simulate(&back, &SimConfig::paper(c, 8));
        assert_eq!(r.instructions, 0, "config {} on the empty trace", c.label());
    }

    let lab = Lab::new(SuiteConfig {
        trace_len: 0,
        widths: vec![4, 8],
        ..SuiteConfig::default()
    });
    let text = render_all(&lab);
    assert!(
        !text.contains("NaN"),
        "a zero-length repro prints NaN:\n{text}"
    );
}

/// The validator accepts every legitimately generated benchmark trace —
/// its rules reject corruption, never the real workloads.
#[test]
fn validator_accepts_all_generated_benchmarks() {
    for b in Benchmark::ALL {
        let trace = b.trace(1996, 5_000).expect("workload runs");
        TraceValidator::new()
            .validate(&trace)
            .unwrap_or_else(|e| panic!("{b} trace rejected: {e}"));
        let p = PreparedTrace::try_build(&trace).expect("builds");
        TraceValidator::new().validate_prepared(&p).unwrap();
    }
}

/// A cache entry whose checksum is intact but whose payload violates a
/// semantic invariant (a load without an effective address) is rejected
/// by validation and healed by regeneration.
#[test]
fn checksum_valid_but_semantically_invalid_cache_entries_are_regenerated() {
    let dir = tmpdir("semantic");
    let cache = TraceCache::new(&dir);
    let cfg = SuiteConfig {
        seed: 3,
        trace_len: 2_000,
        widths: vec![4],
    };

    // Poison the cache: the real compress trace with one load stripped
    // of its address. write_trace encodes the absence faithfully, so
    // the stored file has a *valid* checksum.
    let real = Benchmark::Compress.trace(cfg.seed, cfg.trace_len).unwrap();
    let mut insts = real.insts().to_vec();
    let load_at = insts
        .iter()
        .position(|i| i.is_load())
        .expect("compress has loads");
    insts[load_at].ea = None;
    let poisoned = Trace::from_parts(real.name().to_string(), insts);
    cache
        .store(
            Benchmark::Compress.name(),
            cfg.seed,
            cfg.trace_len,
            &poisoned,
        )
        .unwrap();

    // The checksum layer alone would serve the poisoned trace...
    let served = cache
        .try_load(Benchmark::Compress.name(), cfg.seed, cfg.trace_len)
        .unwrap();
    assert_eq!(served, poisoned);
    // ...but suite generation validates and regenerates instead.
    let suite = Suite::generate_cached(cfg.clone(), &cache);
    assert_eq!(suite.trace(Benchmark::Compress), &real);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Cache files truncated mid-header and mid-payload are classified as
/// corrupt (typed, no panic) and a degraded-to-regeneration run still
/// produces the correct suite.
#[test]
fn truncated_cache_entries_classify_and_heal() {
    let dir = tmpdir("truncate");
    let cache = TraceCache::new(&dir);
    let cfg = SuiteConfig {
        seed: 5,
        trace_len: 1_500,
        widths: vec![4],
    };
    let _ = Suite::generate_cached(cfg.clone(), &cache); // warm
    let path = cache.path_for(Benchmark::Li.name(), cfg.seed, cfg.trace_len);
    let clean = std::fs::read(&path).unwrap();

    for keep in [7usize, 21, clean.len() / 2, clean.len() - 1] {
        std::fs::write(&path, &clean[..keep]).unwrap();
        match cache.try_load(Benchmark::Li.name(), cfg.seed, cfg.trace_len) {
            Err(CacheError::Corrupt(_)) => {}
            other => panic!("keep={keep}: expected Corrupt, got {other:?}"),
        }
        let healed = Suite::generate_cached(cfg.clone(), &cache);
        assert_eq!(
            healed.trace(Benchmark::Li).len(),
            cfg.trace_len,
            "keep={keep}"
        );
        // Healing re-stores a valid entry; re-damage for the next round.
        assert!(cache
            .try_load(Benchmark::Li.name(), cfg.seed, cfg.trace_len)
            .is_ok());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The transient-I/O model end to end: a flaky reader fails reads with
/// a transient error, and a bounded-backoff retry loop recovers exactly
/// like the cache's retry path does.
#[test]
fn transient_reads_recover_under_bounded_retry() {
    let payload = b"trace bytes".to_vec();
    let mut reader = FlakyReader::new(payload.as_slice(), 2);
    let mut delays = Backoff::for_cache().delays();
    let mut buf = Vec::new();
    let mut attempts = 0;
    loop {
        attempts += 1;
        match reader.read_to_end(&mut buf) {
            Ok(_) => break,
            Err(e) => {
                assert!(is_transient(&e), "unexpected hard error: {e}");
                assert!(attempts <= 3, "retry must converge");
                std::thread::sleep(delays.next().unwrap());
            }
        }
    }
    assert_eq!(buf, payload);
    assert_eq!(attempts, 3);
}

/// One failing cell degrades a full-grid run instead of killing it, and
/// the failure is contained to exactly that cell.
#[test]
fn lab_contains_a_failing_cell_while_the_grid_completes() {
    let bad = (Benchmark::Go, PaperConfig::C, 4);
    let lab = Lab::new(SuiteConfig {
        seed: 7,
        trace_len: 1_000,
        widths: vec![4],
    })
    .with_injected_fault(bad);
    let grid = lab.grid();
    let ran = lab.prewarm_degraded(&grid);
    assert_eq!(ran, grid.len() - 1);
    let failed = lab.failed_cells();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].0, bad);
    // Degraded rendering still produces the unaffected artifacts.
    let text = ddsc::experiments::render_all_contained(&lab);
    assert!(text.contains("Table 1"));
    assert!(text.contains("[skipped"));
}

fn sample_trace(n: u32) -> Trace {
    // A small but representative mix so mutated files exercise every
    // record shape: loads, stores, ALU chains, compares and branches.
    use ddsc::isa::{Cond, Opcode, Reg};
    use ddsc::trace::TraceInst;
    let r = Reg::new;
    let mut t = Trace::new("prop");
    for i in 0..n {
        match i % 5 {
            0 => t.push(
                TraceInst::load(4 * i, Opcode::Ld, r(1), r(2), None, Some(0), 0, 64 + 4 * i)
                    .with_value(i),
            ),
            1 => t.push(TraceInst::store(
                4 * i,
                Opcode::St,
                r(1),
                r(2),
                None,
                Some(0),
                0,
                64 + 4 * i,
            )),
            2 => t.push(
                TraceInst::alu(4 * i, Opcode::Add, r(3), r(1), Some(r(4)), None, 0)
                    .with_value(2 * i),
            ),
            3 => t.push(TraceInst::cmp(4 * i, r(3), None, Some(0), 0)),
            _ => t.push(TraceInst::cond_branch(
                4 * i,
                Opcode::Bcc(Cond::Ne),
                i % 2 == 0,
                4 * i,
            )),
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The no-panic guarantee on corrupted trace files: whatever a
    /// seeded fault plan does to the bytes, reading either fails with a
    /// typed error or yields a trace that validation + `try_build`
    /// handle without panicking — and any trace that passes validation
    /// simulates without panicking.
    #[test]
    fn corrupted_traces_never_panic_the_pipeline(
        seed in 0u64..100_000,
        faults in 1usize..8,
        len in 1u32..200,
    ) {
        let trace = sample_trace(len);
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &trace).unwrap();
        TraceFaultPlan::new(seed, faults).apply_named(&mut bytes, "prop");

        let outcome = std::panic::catch_unwind(|| {
            let Ok(mutated) = read_trace(bytes.as_slice()) else {
                return; // typed decode error: contract satisfied
            };
            match PreparedTrace::try_build(&mutated) {
                Err(_) => {} // typed validation error: contract satisfied
                Ok(prepared) => {
                    // Validation passed, so the simulator must accept it.
                    let _ = ddsc::core::simulate_prepared(
                        &prepared,
                        &SimConfig::paper(PaperConfig::D, 8),
                    );
                }
            }
        });
        prop_assert!(outcome.is_ok(), "corrupted input panicked (seed {seed})");
    }

    /// Seeded byte-level faults on *cache* files never panic `try_load`:
    /// every mutation is classified as a typed error or decodes to a
    /// valid entry.
    #[test]
    fn corrupted_cache_entries_never_panic(seed in 0u64..100_000, faults in 1usize..8) {
        let dir = tmpdir(&format!("prop-{seed}-{faults}"));
        let cache = TraceCache::new(&dir);
        let trace = sample_trace(120);
        cache.store("prop", 1, 120, &trace).unwrap();
        let path = cache.path_for("prop", 1, 120);
        let mut bytes = std::fs::read(&path).unwrap();
        ddsc::util::FaultPlan::seeded(seed, faults, bytes.len()).apply(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();

        let outcome = std::panic::catch_unwind(|| cache.try_load("prop", 1, 120));
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert!(outcome.is_ok(), "corrupted cache entry panicked (seed {seed})");
    }
}
