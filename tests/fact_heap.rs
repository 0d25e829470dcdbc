//! Ledger honesty: the shared tier's byte budget must be about the heap
//! its facts really hold.
//!
//! The tier charges each fact `snapshot::value_footprint`'s bytes — a figure
//! derived from the value's wire length — and evicts against that.  A
//! budget that charges a third of what a fact holds bounds nothing, so this
//! test counts every allocation of its own process and requires the ledger
//! to land within [0.75×, 2×] of the live-heap growth the facts cause: after
//! a 500-program fleet run, and after the four Ch. 4 applications.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Arc, Mutex};
use suif_analysis::SharedFactTier;
use suif_benchmarks::{ch4_apps, Scale};
use suif_server::{generated_entries, run_corpus, CorpusEntry, CorpusOptions};

/// The system allocator, counting the bytes currently allocated.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a side effect that touches no memory it hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The two tests measure one process-wide counter, so they take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// Run `entries` into a fresh tier with the reports dropped; return the
/// tier's ledger over the live heap it left behind.
fn ledger_over_heap(entries: Vec<CorpusEntry>) -> f64 {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let opts = CorpusOptions {
        workers: 2,
        ..CorpusOptions::default()
    };
    let before = LIVE.load(Ordering::SeqCst);
    let tier = Arc::new(SharedFactTier::new());
    let run = run_corpus(entries, &opts, &tier, |_| {});
    assert_eq!(
        run.summary.ok, run.summary.programs,
        "every program analyzes"
    );
    drop(run);
    let heap = LIVE.load(Ordering::SeqCst) - before;
    let ledger = tier.stats().resident_bytes as f64;
    let ratio = ledger / heap as f64;
    eprintln!("ledger {ledger:.0} B over live heap {heap} B = {ratio:.3}");
    ratio
}

fn assert_honest(what: &str, ratio: f64) {
    assert!(
        (0.75..=2.0).contains(&ratio),
        "{what}: tier ledger / live heap = {ratio:.3}, outside [0.75, 2]"
    );
}

#[test]
fn fleet_ledger_tracks_the_heap_its_facts_hold() {
    assert_honest(
        "500 generated programs",
        ledger_over_heap(generated_entries(500, 0)),
    );
}

#[test]
fn ch4_ledger_tracks_the_heap_its_facts_hold() {
    let entries = ch4_apps(Scale::Test)
        .into_iter()
        .map(|b| CorpusEntry {
            name: b.name.to_string(),
            source: b.source,
        })
        .collect();
    assert_honest("the four Ch. 4 applications", ledger_over_heap(entries));
}
