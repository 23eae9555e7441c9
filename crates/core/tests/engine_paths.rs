//! Targeted tests for less-traveled engine paths: upgrades meeting
//! displaced metadata, recalls of evicted owners, AIM pressure,
//! cross-protocol cost orderings, and the repeat fast path.

use rce_common::{Addr, CoreId, Cycles, MachineConfig, ProtocolKind, WordMask};
use rce_core::{engine_for, find_variant, AccessResult, AccessType, Engine, Substrate, REGISTRY};

const R: AccessType = AccessType::Read;
const W: AccessType = AccessType::Write;

fn setup(cfg: &MachineConfig) -> (Engine, Substrate) {
    (engine_for(cfg), Substrate::new(cfg))
}

/// Bytes between consecutive lines of one L1 set (lines map to sets
/// by their low bits): 1 KiB for the 8 KiB, 8-way, 16-set L1.
fn set_stride(s: &Substrate) -> u64 {
    s.cfg.l1.sets() * 64
}

fn acc(
    e: &mut Engine,
    s: &mut Substrate,
    core: u16,
    addr: u64,
    kind: AccessType,
    now: u64,
) -> AccessResult {
    e.access(
        s,
        CoreId(core),
        Addr(addr),
        WordMask::span(Addr(addr), 8),
        kind,
        Cycles(now),
    )
    .unwrap()
}

/// Upgrade (S→M) must consult displaced metadata: a third core's read
/// bits were evicted to the metadata store; the upgrading writer still
/// sees them.
#[test]
fn upgrade_sees_displaced_metadata() {
    for proto in [ProtocolKind::Ce, ProtocolKind::CePlus] {
        let (mut e, mut s) = setup(&MachineConfig::paper_default(3, proto));
        let base = 0x20_0000u64;
        // Core 2 reads the word, then thrashes its set to evict the
        // line (read bit displaced to the metadata store).
        let mut t = acc(&mut e, &mut s, 2, base, R, 0).done.0;
        let stride = set_stride(&s);
        for i in 1..=8u64 {
            t = acc(&mut e, &mut s, 2, base + i * stride, R, t).done.0;
        }
        assert!(e.check_invariants(&s).is_ok());
        // Core 0 reads the line (S)...
        let r = acc(&mut e, &mut s, 0, base, R, t);
        // ...then upgrades. The conflict with core 2's displaced read
        // must surface at one of the two steps (fetch merges displaced
        // bits into core 0's line; the write checks them).
        let w = acc(&mut e, &mut s, 0, base, W, r.done.0);
        assert_eq!(
            w.exceptions.len(),
            1,
            "{proto}: displaced read bit must reach the upgrade"
        );
        assert_eq!(w.exceptions[0].b().kind, R);
    }
}

/// ARC recall of an owner that already evicted the line: the spilled
/// masks at the AIM still produce the conflict.
#[test]
fn arc_recall_of_evicted_owner_uses_spilled_masks() {
    let (mut e, mut s) = setup(&MachineConfig::paper_default(2, ProtocolKind::Arc));
    let base = 0x30_0000u64;
    // Core 0 writes (private), then evicts the line.
    let mut t = acc(&mut e, &mut s, 0, base, W, 0).done.0;
    let stride = set_stride(&s);
    for i in 1..=8u64 {
        t = acc(&mut e, &mut s, 0, base + i * stride, R, t).done.0;
    }
    // Core 1 reads: recall finds no resident copy; the AIM has the
    // spilled write bit.
    let r = acc(&mut e, &mut s, 1, base, R, t);
    assert_eq!(r.exceptions.len(), 1);
    assert!(r.exceptions[0].involves_write());
}

/// Under severe AIM pressure, CE+ still detects every conflict (spill
/// + refill path), it just pays DRAM for it.
#[test]
fn tiny_aim_remains_sound() {
    let mut cfg = MachineConfig::paper_default(2, ProtocolKind::CePlus);
    cfg.aim.entries = 64; // absurdly small
    cfg.aim.ways = 4;
    let (mut e, mut s) = setup(&cfg);
    let base = 0x40_0000u64;
    // Core 0 writes many lines and evicts them all (bits spill through
    // the tiny AIM to DRAM).
    let mut t = 0;
    for i in 0..32u64 {
        t = acc(&mut e, &mut s, 0, base + i * 1024, W, t).done.0;
    }
    // Core 1 touches every word: each displaced write bit must be
    // found.
    let mut found = 0;
    for i in 0..32u64 {
        let r = acc(&mut e, &mut s, 1, base + i * 1024, W, t);
        t = r.done.0;
        found += r.exceptions.len();
    }
    // Core 0's L1 is 128 lines, so early lines were evicted; late ones
    // are still resident (owner path). Either way: all 32 conflicts.
    assert_eq!(found, 32);
    assert!(
        s.dram.stats().metadata_bytes().0 > 0,
        "a 64-entry AIM must spill"
    );
}

/// Relative cost ordering on one conflicting access: the CE family
/// pays a (modeled) metadata lookup on top of the baseline's probe.
#[test]
fn detection_latency_ordering_on_displaced_path() {
    let lat = |proto| {
        let (mut e, mut s) = setup(&MachineConfig::paper_default(2, proto));
        let base = 0x50_0000u64;
        let mut t = acc(&mut e, &mut s, 0, base, W, 0).done.0;
        let stride = set_stride(&s);
        for i in 1..=8u64 {
            t = acc(&mut e, &mut s, 0, base + i * stride, R, t).done.0;
        }
        let r = acc(&mut e, &mut s, 1, base, R, t);
        r.done.0 - t
    };
    let mesi = lat(ProtocolKind::MesiBaseline);
    let cep = lat(ProtocolKind::CePlus);
    let ce = lat(ProtocolKind::Ce);
    assert!(
        ce > cep,
        "CE's DRAM metadata lookup must cost more than CE+'s AIM ({ce} vs {cep})"
    );
    assert!(cep >= mesi, "detection is not free ({cep} vs {mesi})");
}

/// The boundary work of a core that displaced many lines scales with
/// the displaced count (CE's region-end scrub). Latency grows only
/// sublinearly (scrub messages pipeline through the DRAM channels), so
/// the linear signal is off-chip metadata traffic.
#[test]
fn scrub_cost_scales_with_displacement() {
    let boundary = |lines: u64| {
        let (mut e, mut s) = setup(&MachineConfig::paper_default(2, ProtocolKind::Ce));
        let base = 0x60_0000u64;
        let mut t = 0;
        // Write `lines` distinct lines in one region, then evict them
        // all with reads of a disjoint range.
        for i in 0..lines {
            t = acc(&mut e, &mut s, 0, base + i * 1024, W, t).done.0;
        }
        for i in 0..256u64 {
            t = acc(&mut e, &mut s, 0, 0x70_0000 + i * 64, R, t).done.0;
        }
        let before = s.dram.stats().metadata_bytes().0;
        let b = e.region_boundary(&mut s, CoreId(0), Cycles(t)).unwrap();
        (b.done.0 - t, s.dram.stats().metadata_bytes().0 - before)
    };
    let (small_lat, small_bytes) = boundary(4);
    let (large_lat, large_bytes) = boundary(64);
    // The evictor reads displace their own read bits in both runs (a
    // constant offset), so the written-line contribution shows up as
    // the delta: 60 extra lines x 16 B metadata entries.
    assert!(
        large_bytes >= small_bytes + 60 * 16,
        "scrub traffic must scale with displacement ({large_bytes} vs {small_bytes})"
    );
    assert!(
        large_lat > small_lat,
        "more scrubs take longer even pipelined ({large_lat} vs {small_lat})"
    );
}

/// A line whose L1 set the eviction helper below thrashes.
const REPEAT_BASE: u64 = 0x80_0000;

/// Core 0 reads eight more lines of `REPEAT_BASE`'s set of the 8-way
/// L1, evicting it.
fn evict(e: &mut Engine, s: &mut Substrate, mut t: u64) -> u64 {
    for i in 1..=8u64 {
        t = acc(e, s, 0, REPEAT_BASE + i * set_stride(s), R, t).done.0;
    }
    t
}

/// Core 1 reads another word of the line: a downgrade of core 0's
/// copy under CE+, a recall of core 0's private line under ARC.
fn remote_read(e: &mut Engine, s: &mut Substrate, t: u64) -> u64 {
    acc(e, s, 1, REPEAT_BASE + 8, R, t).done.0
}

/// Core 1 writes another word of the line, invalidating core 0's copy.
fn remote_write(e: &mut Engine, s: &mut Substrate, t: u64) -> u64 {
    acc(e, s, 1, REPEAT_BASE + 8, W, t).done.0
}

/// Core 0's region ends.
fn boundary(e: &mut Engine, s: &mut Substrate, t: u64) -> u64 {
    let b = e.region_boundary(s, CoreId(0), Cycles(t)).unwrap();
    s.advance_region(CoreId(0));
    b.done.0
}

/// Core 0 writes one word twice on the registry variant `name`: the
/// repeat must take the fast path (on by default) at the L1-hit
/// latency. After `disrupt`, the same write must take the slow path
/// again, with no hook beyond the line state itself.
fn repeat_loses_fast_path_after(
    name: &str,
    disrupt: fn(&mut Engine, &mut Substrate, u64) -> u64,
    what: &str,
) {
    let (mut e, mut s) = setup(&find_variant(name).unwrap().config(2));
    let t = acc(&mut e, &mut s, 0, REPEAT_BASE, W, 0).done.0;
    let r = acc(&mut e, &mut s, 0, REPEAT_BASE, W, t);
    assert!(r.fast, "{name}: a private write repeat is fast");
    assert_eq!(r.done.0 - t, s.cfg.l1.latency);
    let t = disrupt(&mut e, &mut s, r.done.0);
    let r = acc(&mut e, &mut s, 0, REPEAT_BASE, W, t);
    assert!(!r.fast, "{name}: the repeat after {what} is slow");
}

#[test]
fn ceplus_repeat_fast_path_follows_line_state() {
    let ce = |disrupt, what| repeat_loses_fast_path_after("CE+", disrupt, what);
    ce(evict, "an L1 eviction");
    ce(remote_read, "a remote read downgrade");
    ce(remote_write, "a remote write invalidation");
    ce(boundary, "a region boundary");
}

#[test]
fn arc_repeat_fast_path_follows_line_state() {
    let arc = |disrupt, what| repeat_loses_fast_path_after("ARC", disrupt, what);
    arc(evict, "an L1 eviction");
    arc(remote_read, "a recall");
    arc(boundary, "a region boundary");
}

/// Every detecting composition reports one provenance path exactly
/// when an access raises exceptions, both for an access to a line the
/// core already holds (an upgrade, or an ARC hit-path registration)
/// and for a miss.
#[test]
fn path_is_set_exactly_when_exceptions_are_raised() {
    for v in REGISTRY
        .iter()
        .filter(|v| v.protocol != ProtocolKind::MesiBaseline)
    {
        let (mut e, mut s) = setup(&v.config(2));
        let (x, y) = (0x90_0000u64, 0xA0_0000u64);
        let mut t = 0;
        let mut step = |core, addr, kind, what: &str| {
            let hits_before = e.l1_totals().0;
            let r = acc(&mut e, &mut s, core, addr, kind, t);
            t = r.done.0;
            assert_eq!(
                r.path.is_some(),
                !r.exceptions.is_empty(),
                "{}: {what}",
                v.cli_name
            );
            (r.exceptions.len(), e.l1_totals().0 > hits_before)
        };
        // Two readers of different words of `x` share the line.
        assert_eq!(step(0, x + 8, R, "first read").0, 0);
        assert_eq!(step(1, x, R, "second read").0, 0);
        // Core 0 writes the word core 1 read, in the line it holds.
        let (raised, hit) = step(0, x, W, "write to a held line");
        assert_eq!((raised, hit), (1, true), "{}", v.cli_name);
        // Core 1 writes a word core 0 wrote, in a line it never held.
        assert_eq!(step(0, y, W, "private write").0, 0);
        let (raised, hit) = step(1, y, W, "write miss");
        assert_eq!((raised, hit), (1, false), "{}", v.cli_name);
    }
}
