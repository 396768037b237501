//! Proves the gateway's per-payload DPI path is allocation-free once
//! warm: `Tokenizer::tokenize_into` into a grown buffer (window memo
//! hits and misses alike) and `EncryptedDpi::inspect` of a clean stream
//! (its per-rule scratch reused) never touch the allocator.
//!
//! A counting wrapper around the system allocator measures allocations
//! across the scans. This file holds exactly one `#[test]` so no
//! parallel test can allocate concurrently and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use xlf_core::dpi::{default_rules, EncryptedDpi};
use xlf_lwcrypto::searchable::Tokenizer;
use xlf_simnet::SimTime;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter increment has no
// effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn clean_payload_scan_allocates_nothing_after_warmup() {
    let tokenizer = Tokenizer::new(b"dpi/thermo").unwrap();
    let mut middlebox = EncryptedDpi::new(default_rules());
    middlebox.bind_tokenizer(&tokenizer);
    let mut tokens = Vec::new();
    let mut scan = |payload: &[u8]| {
        tokenizer.tokenize_into(payload, &mut tokens);
        middlebox.inspect("thermo", &tokens, SimTime::ZERO).len()
    };
    // Warm up: grow the token buffer and the per-rule scratch.
    assert_eq!(scan(&[b' '; 900]), 0);

    let mut hits = 0;
    for (i, reading) in ["Temperature=21.50", "Temperature=21.75", "Humidity=40"]
        .iter()
        .enumerate()
    {
        let mut payload = reading.as_bytes().to_vec();
        payload.resize(48 + 400 * i, b' ');
        let grown = ALLOCS.load(Ordering::Relaxed);
        hits += scan(&payload);
        // Building the payload above may allocate; the scan may not.
        assert_eq!(
            ALLOCS.load(Ordering::Relaxed),
            grown,
            "scan of {reading} allocated"
        );
    }
    assert_eq!(hits, 0, "telemetry must not match a C&C rule");
    assert_eq!(middlebox.stats.streams_inspected, 4);
}
