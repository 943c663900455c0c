//! The tracking allocator's process-global counters. This binary holds a
//! single test so no sibling test allocates while it reads them.

use zkperf_pool::mem::{live_bytes, peak_live_bytes, reset_peak};

#[test]
fn allocator_tracks_live_and_peak() {
    reset_peak();
    let before = live_bytes();
    let buf = vec![0u8; 1 << 20];
    assert!(live_bytes() >= before + (1 << 20));
    assert!(peak_live_bytes() >= before + (1 << 20));
    drop(buf);
    assert!(live_bytes() < before + (1 << 20));
    // The peak survives the free until reset.
    assert!(peak_live_bytes() >= before + (1 << 20));
    reset_peak();
    assert!(peak_live_bytes() < before + (1 << 20));
}
