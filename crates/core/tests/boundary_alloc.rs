//! Region boundaries allocate nothing once a program's working set has
//! been seen: ARC's registration clears and self-invalidation and the
//! MESI family's scrubs reuse their buffers. A counting allocator
//! counts the heap allocations made on this thread inside
//! `Engine::region_boundary`.

use rce_common::{Addr, CoreId, Cycles, MachineConfig, MetaPlacement, ProtocolKind, WordMask};
use rce_core::{engine_for, AccessType, Substrate};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations made on this thread while counting, else `None`.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get().map(|k| k + 1)));
}

// SAFETY: every call is passed on to `System` unchanged; the counter
// only observes that a call happened.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|n| n.set(Some(0)));
    let out = f();
    let n = ALLOCS.with(|n| n.replace(None)).expect("counting was on");
    (out, n)
}

const CORES: usize = 4;

/// Run rounds of regions in which every core reads and writes a shared
/// block (conflicts, invalidations, ARC registrations and recalls) and
/// thrashes its L1 sets (evictions that displace bits); return the
/// allocations each round's boundaries made.
fn boundary_allocations(cfg: &MachineConfig) -> Vec<u64> {
    let mut engine = engine_for(cfg);
    let mut sub = Substrate::new(cfg);
    let stride = sub.cfg.l1.sets() * 64;
    let mut now = Cycles(0);
    let mut per_round = Vec::new();
    for _ in 0..6 {
        for c in 0..CORES as u64 {
            let core = CoreId(c as u16);
            for i in 0..24u64 {
                let addr = Addr(0x10_0000 + i * 64 + 8 * c);
                let kind = if (i + c) % 3 == 0 {
                    AccessType::Write
                } else {
                    AccessType::Read
                };
                let mask = WordMask::span(addr, 8);
                now = engine
                    .access(&mut sub, core, addr, mask, kind, now)
                    .unwrap()
                    .done;
            }
            for i in 0..12u64 {
                let addr = Addr(0x80_0000 + c * 0x10_0000 + i * stride);
                let mask = WordMask::span(addr, 8);
                now = engine
                    .access(&mut sub, core, addr, mask, AccessType::Write, now)
                    .unwrap()
                    .done;
            }
        }
        let mut round = 0;
        for c in 0..CORES {
            let core = CoreId(c as u16);
            let (b, n) = allocations(|| engine.region_boundary(&mut sub, core, now));
            now = b.unwrap().done;
            round += n;
            sub.advance_region(core);
        }
        per_round.push(round);
    }
    per_round
}

#[test]
fn region_boundaries_allocate_nothing_in_steady_state() {
    for (protocol, placement) in [
        (ProtocolKind::Ce, MetaPlacement::Dram),
        (ProtocolKind::CePlus, MetaPlacement::Aim),
        (ProtocolKind::Arc, MetaPlacement::Aim),
    ] {
        let mut cfg = MachineConfig::paper_default(CORES, protocol);
        cfg.meta_placement = placement;
        let rounds = boundary_allocations(&cfg);
        assert!(
            rounds[2..].iter().all(|&n| n == 0),
            "{protocol} boundaries still allocate after warm-up: {rounds:?}"
        );
    }
}
