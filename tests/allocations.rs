//! Heap budgets of the pre-pass walk and of a streamed cell, measured
//! by a counting global allocator.
//!
//! The walk runs once per instruction in both pre-pass layouts, so an
//! allocation in it is 250M allocations at paper scale; and a streamed
//! cell exists to hold its memory to one record chunk plus the columns
//! of its window, whatever the trace length. The counters are per
//! thread, so the harness's parallel tests never see each other's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use ddsc::core::{
    simulate_prepared, simulate_stream, PaperConfig, PreparedTrace, SimConfig, StreamingPrepass,
    DEFAULT_CHUNK_SIZE,
};
use ddsc::trace::{Trace, TraceInst};
use ddsc::workloads::Benchmark;

/// The system allocator, counting this thread's allocations and live
/// bytes.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn on_alloc(bytes: usize) {
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
    on_resize(bytes as isize);
}

fn on_resize(delta: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters are plain thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            on_alloc(0);
            on_resize(new_size as isize - layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_resize(-(layout.size() as isize));
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// This thread's heap use while `f` ran.
#[derive(Debug, Clone, Copy)]
struct Usage {
    /// Allocations and reallocations.
    allocs: u64,
    /// The most bytes live at once, above what was live at the start.
    peak_bytes: usize,
}

fn measure<R>(f: impl FnOnce() -> R) -> (R, Usage) {
    let allocs0 = ALLOCS.with(Cell::get);
    let live0 = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live0));
    let r = f();
    let usage = Usage {
        allocs: ALLOCS.with(Cell::get) - allocs0,
        peak_bytes: (PEAK.with(Cell::get) - live0).max(0) as usize,
    };
    (r, usage)
}

const MIB: f64 = (1 << 20) as f64;

fn li(len: usize) -> Trace {
    Benchmark::Li.trace(11, len).expect("li runs")
}

/// Whole-trace builds at two lengths: the columns are sized up front
/// and grow by doubling, so the longer build may add only a handful of
/// allocations, never one per instruction.
#[test]
fn the_whole_trace_prepass_allocates_nothing_per_instruction() {
    let (short, long) = (li(20_000), li(40_000));
    let (_, at_20k) = measure(|| PreparedTrace::build(&short));
    let (_, at_40k) = measure(|| PreparedTrace::build(&long));
    let extra = at_40k.allocs.saturating_sub(at_20k.allocs);
    assert!(
        extra <= 16,
        "PreparedTrace::build allocated {} times at 20k and {} at 40k instructions \
         ({:.3} per added instruction)",
        at_20k.allocs,
        at_40k.allocs,
        extra as f64 / 20_000.0
    );
}

/// Streaming pushes at two lengths, evicting behind a 64-instruction
/// window as the timing loop would: the ring of rows stops growing, so
/// only the walk's store map may add an allocation.
#[test]
fn the_streaming_prepass_allocates_nothing_per_instruction() {
    let config = SimConfig::paper(PaperConfig::D, 8);
    let push_all = |insts: &[TraceInst]| {
        let mut prep = StreamingPrepass::new(&config);
        measure(|| {
            for inst in insts {
                prep.push(inst);
                prep.evict_to(prep.len().saturating_sub(64));
            }
        })
        .1
    };
    let at_20k = push_all(li(20_000).insts());
    let at_40k = push_all(li(40_000).insts());
    let extra = at_40k.allocs.saturating_sub(at_20k.allocs);
    assert!(
        extra <= 16,
        "StreamingPrepass::push allocated {} times over 20k and {} over 40k instructions \
         ({:.3} per added instruction)",
        at_20k.allocs,
        at_40k.allocs,
        extra as f64 / 20_000.0
    );
}

/// Streams a li D/8 cell of `len` instructions, VM included, at the
/// default chunk size.
fn streamed_cell(len: usize) -> Usage {
    let config = SimConfig::paper(PaperConfig::D, 8);
    let (result, usage) = measure(|| {
        simulate_stream(
            &mut Benchmark::Li.source(11, len),
            &config,
            DEFAULT_CHUNK_SIZE,
        )
    });
    assert_eq!(result.expect("li streams").instructions, len as u64);
    usage
}

/// A streamed cell's allocations do not grow with the trace: the
/// window ring, the timing wheel's node arena and the ready sets are
/// sized from the window at set-up, so the longer run may add only a
/// handful (it adds none today), never one per instruction.
#[test]
fn a_streamed_cell_allocates_nothing_per_instruction() {
    let (short, long) = (3 * DEFAULT_CHUNK_SIZE, 6 * DEFAULT_CHUNK_SIZE);
    let (at_short, at_long) = (streamed_cell(short), streamed_cell(long));
    let extra = at_long.allocs.saturating_sub(at_short.allocs);
    assert!(
        extra <= 16,
        "the streamed cell allocated {} times over {short} and {} over {long} instructions \
         ({:.3} per added instruction)",
        at_short.allocs,
        at_long.allocs,
        extra as f64 / (long - short) as f64
    );
}

/// Whole-trace go cells at width 2048 under C, D and E, where collapse
/// inheritance spills pending-producer rows past their inline slots: the
/// spill lists are recycled, so the longer trace may add only a handful
/// of allocations (it adds none today), never one per instruction. The
/// pre-pass and its verdict streams are built before the count starts.
#[test]
fn a_wide_whole_trace_cell_allocates_nothing_per_instruction() {
    for paper in [PaperConfig::C, PaperConfig::D, PaperConfig::E] {
        let config = SimConfig::paper(paper, 2048);
        let cell = |len: usize| {
            let prepared = PreparedTrace::build(&Benchmark::Go.trace(11, len).expect("go runs"));
            simulate_prepared(&prepared, &config);
            measure(|| simulate_prepared(&prepared, &config)).1
        };
        let (at_20k, at_40k) = (cell(20_000), cell(40_000));
        let extra = at_40k.allocs.saturating_sub(at_20k.allocs);
        assert!(
            extra <= 16,
            "a go {} cell allocated {} times over 20k and {} over 40k instructions \
             ({:.3} per added instruction)",
            paper.label(),
            at_20k.allocs,
            at_40k.allocs,
            extra as f64 / 20_000.0
        );
    }
}

/// A streamed cell of six chunks holds its live heap to one record
/// chunk plus 1 MiB: the pre-pass columns span only the timing loop's
/// window.
#[test]
fn a_streamed_cell_peaks_at_one_chunk() {
    let usage = streamed_cell(6 * DEFAULT_CHUNK_SIZE);
    let chunk_bytes = DEFAULT_CHUNK_SIZE * size_of::<TraceInst>();
    let budget = chunk_bytes + (1 << 20);
    assert!(
        usage.peak_bytes < budget,
        "peak live heap {:.2} MiB, budget {:.2} MiB (one {:.2} MiB chunk + 1 MiB)",
        usage.peak_bytes as f64 / MIB,
        budget as f64 / MIB,
        chunk_bytes as f64 / MIB
    );
}

/// The counters see this thread's allocations, so the budgets above
/// cannot pass for want of counting.
#[test]
fn the_counter_sees_this_threads_allocations() {
    let (v, usage) = measure(|| vec![7u8; 1 << 20]);
    assert_eq!(usage.allocs, 1);
    assert!(usage.peak_bytes >= 1 << 20);
    drop(v);
}
