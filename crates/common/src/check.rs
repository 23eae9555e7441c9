//! In-tree property-based testing harness.
//!
//! A dependency-free replacement for the slice of `proptest` the test
//! suites actually used: seeded random case generation, a fixed number
//! of cases per property, and shrinking on failure. Generation is built
//! on [`SplitMix64`](crate::rng::SplitMix64), so every run is
//! deterministic; set `RCE_PROP_SEED` to explore a different stream and
//! `RCE_PROP_CASES` to change the case count (default
//! [`DEFAULT_CASES`]).
//!
//! Shrinking is deliberately conservative: we shrink *structure*
//! (vector lengths, by halving) but never *values*, because generators
//! enforce domain invariants (e.g. "address below the shared ceiling")
//! that value-level shrinking could silently violate. See
//! [`Shrink`] for the contract.
//!
//! ```
//! use rce_common::check::{check, Unshrunk};
//! use rce_common::Rng;
//!
//! check("sum is monotone in length", |rng| {
//!     let v: Vec<u64> = (0..rng.gen_range(20)).map(|_| rng.gen_range(100)).collect();
//!     Unshrunk(v)
//! }, |Unshrunk(v)| {
//!     let s: u64 = v.iter().sum();
//!     rce_common::prop_assert!(s >= v.last().copied().unwrap_or(0), "sum {s} too small");
//!     Ok(())
//! });
//! ```

use crate::rng::SplitMix64;

/// Default number of generated cases per property.
pub(crate) const DEFAULT_CASES: u32 = 64;

/// Upper bound on shrink iterations, to keep failing runs fast.
const MAX_SHRINK_STEPS: usize = 1000;

/// Types that can propose structurally smaller versions of themselves.
///
/// `shrink` returns candidate reductions, most aggressive first; the
/// harness keeps any candidate that still fails the property and
/// repeats until a fixed point. The default is "cannot shrink", which
/// is always sound — implementations must only return candidates that
/// stay inside the generator's domain (the harness cannot re-check
/// generator invariants).
pub trait Shrink: Sized {
    /// Candidate smaller values, most aggressive first.
    fn shrink(&self) -> Vec<Self> {
        Vec::new()
    }
}

/// Wrapper opting a generated case out of shrinking. Useful for scalar
/// cases (seeds, sizes) where any reduction could leave the domain.
#[derive(Debug, Clone)]
pub struct Unshrunk<T>(pub T);

impl<T> Shrink for Unshrunk<T> {}

impl Shrink for bool {}
impl Shrink for u8 {}
impl Shrink for u16 {}
impl Shrink for u32 {}
impl Shrink for u64 {}
impl Shrink for usize {}
impl Shrink for i64 {}
impl Shrink for f64 {}
impl Shrink for String {}

/// Vectors shrink by halving: drop the back half, drop the front half,
/// and (for short vectors) drop single elements. Subsequences preserve
/// any per-element domain invariant, so this is safe for op traces.
impl<T: Clone> Shrink for Vec<T> {
    fn shrink(&self) -> Vec<Self> {
        let n = self.len();
        if n == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        if n > 1 {
            out.push(self[..n / 2].to_vec());
            out.push(self[n.div_ceil(2)..].to_vec());
        }
        if n <= 8 {
            for i in 0..n {
                let mut v = self.clone();
                v.remove(i);
                out.push(v);
            }
        }
        out
    }
}

impl<A: Shrink + Clone, B: Shrink + Clone> Shrink for (A, B) {
    fn shrink(&self) -> Vec<Self> {
        let mut out: Vec<Self> = self
            .0
            .shrink()
            .into_iter()
            .map(|a| (a, self.1.clone()))
            .collect();
        out.extend(self.1.shrink().into_iter().map(|b| (self.0.clone(), b)));
        out
    }
}

impl<A: Shrink + Clone, B: Shrink + Clone, C: Shrink + Clone> Shrink for (A, B, C) {
    fn shrink(&self) -> Vec<Self> {
        let mut out: Vec<Self> = self
            .0
            .shrink()
            .into_iter()
            .map(|a| (a, self.1.clone(), self.2.clone()))
            .collect();
        out.extend(
            self.1
                .shrink()
                .into_iter()
                .map(|b| (self.0.clone(), b, self.2.clone())),
        );
        out.extend(
            self.2
                .shrink()
                .into_iter()
                .map(|c| (self.0.clone(), self.1.clone(), c)),
        );
        out
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

fn name_seed(name: &str) -> u64 {
    // FNV-1a, so each property gets its own stream without the test
    // author picking seeds.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Run `property` against cases drawn from `generate`, panicking with
/// the seed and a shrunk minimal counterexample on failure.
///
/// `generate` receives a fresh substream per case, so cases are
/// independent and reproducible from `(property name, seed, index)`.
/// The property returns `Err(description)` to reject a case — use the
/// [`prop_assert!`](crate::prop_assert!) /
/// [`prop_assert_eq!`](crate::prop_assert_eq!) macros.
pub fn check<T, G, P>(name: &str, mut generate: G, property: P)
where
    T: Clone + std::fmt::Debug + Shrink,
    G: FnMut(&mut SplitMix64) -> T,
    P: Fn(&T) -> Result<(), String>,
{
    let cases = env_u64("RCE_PROP_CASES").map_or(DEFAULT_CASES, |c| c as u32);
    let seed = env_u64("RCE_PROP_SEED").unwrap_or_else(|| name_seed(name));
    let root = SplitMix64::new(seed);
    for i in 0..cases {
        let case = generate(&mut root.split(u64::from(i)));
        if let Err(msg) = property(&case) {
            let (minimal, final_msg, steps) = shrink_failure(case, msg, &property);
            panic!(
                "property `{name}` failed (case {i}/{cases}, seed {seed:#x}, \
                 {steps} shrink steps)\n  error: {final_msg}\n  minimal case: {minimal:#?}\n\
                 rerun with RCE_PROP_SEED={seed}"
            );
        }
    }
}

/// Like [`check`] but with an explicit case count (for expensive
/// properties such as whole-machine simulations).
pub fn check_n<T, G, P>(name: &str, cases: u32, mut generate: G, property: P)
where
    T: Clone + std::fmt::Debug + Shrink,
    G: FnMut(&mut SplitMix64) -> T,
    P: Fn(&T) -> Result<(), String>,
{
    let cases = env_u64("RCE_PROP_CASES").map_or(cases, |c| c as u32);
    let seed = env_u64("RCE_PROP_SEED").unwrap_or_else(|| name_seed(name));
    let root = SplitMix64::new(seed);
    for i in 0..cases {
        let case = generate(&mut root.split(u64::from(i)));
        if let Err(msg) = property(&case) {
            let (minimal, final_msg, steps) = shrink_failure(case, msg, &property);
            panic!(
                "property `{name}` failed (case {i}/{cases}, seed {seed:#x}, \
                 {steps} shrink steps)\n  error: {final_msg}\n  minimal case: {minimal:#?}\n\
                 rerun with RCE_PROP_SEED={seed}"
            );
        }
    }
}

fn shrink_failure<T, P>(mut case: T, mut msg: String, property: &P) -> (T, String, usize)
where
    T: Clone + Shrink,
    P: Fn(&T) -> Result<(), String>,
{
    let mut steps = 0;
    'outer: while steps < MAX_SHRINK_STEPS {
        for candidate in case.shrink() {
            steps += 1;
            if let Err(m) = property(&candidate) {
                case = candidate;
                msg = m;
                continue 'outer;
            }
            if steps >= MAX_SHRINK_STEPS {
                break;
            }
        }
        break;
    }
    (case, msg, steps)
}

/// Property-failure assertion: evaluates to `return Err(...)` instead
/// of panicking, so the harness can shrink the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Equality flavor of [`prop_assert!`](crate::prop_assert!).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: `{} == {}`\n  left: {l:?}\n  right: {r:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                file!(),
                line!()
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            let detail = format!($($fmt)+);
            return Err(format!(
                "{detail}\n  left: {l:?}\n  right: {r:?}"
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut seen = 0;
        check(
            "trivially true",
            |rng| Unshrunk(rng.gen_range(100)),
            |_| {
                // Count via an UnsafeCell-free trick: the closure is Fn,
                // so count in the generator instead? Simpler: nothing to
                // assert; just pass.
                Ok(())
            },
        );
        // Case count is observable through the generator.
        check(
            "generator invoked per case",
            |rng| {
                seen += 1;
                Unshrunk(rng.next_u64())
            },
            |_| Ok(()),
        );
        assert_eq!(seen, DEFAULT_CASES);
    }

    #[test]
    fn failing_property_panics_with_seed() {
        let err = std::panic::catch_unwind(|| {
            check(
                "always false",
                |rng| Unshrunk(rng.gen_range(10)),
                |_| Err("nope".to_string()),
            );
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("always false"));
        assert!(msg.contains("RCE_PROP_SEED="));
        assert!(msg.contains("nope"));
    }

    #[test]
    fn vectors_shrink_to_minimal_failing_subsequence() {
        // Property: "no vector contains an odd number". Failing cases
        // shrink to a single odd element.
        let err = std::panic::catch_unwind(|| {
            check(
                "all even",
                |rng| {
                    (0..rng.gen_range(50) + 1)
                        .map(|_| rng.gen_range(1000))
                        .collect::<Vec<u64>>()
                },
                |v| {
                    for x in v {
                        crate::prop_assert!(x % 2 == 0, "odd element {x}");
                    }
                    Ok(())
                },
            );
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        // The minimal case debug-prints as a one-element vector.
        let minimal = msg.split("minimal case:").nth(1).unwrap();
        let elements = minimal.matches(',').count();
        assert!(
            elements <= 1,
            "expected a near-singleton minimal case, got: {minimal}"
        );
    }

    #[test]
    fn shrinking_preserves_subsequence_domain() {
        // Every shrink candidate of a sorted vector is still sorted.
        let v: Vec<u64> = (0..16).collect();
        for cand in v.shrink() {
            assert!(cand.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn tuple_shrink_varies_one_component() {
        let case = (vec![1u64, 2, 3, 4], vec![9u64, 8]);
        for (a, b) in case.shrink() {
            let a_same = a == case.0;
            let b_same = b == case.1;
            assert!(a_same || b_same, "both components changed at once");
        }
    }

    #[test]
    fn checks_are_deterministic() {
        let collect = || {
            let mut cases = Vec::new();
            check(
                "determinism probe",
                |rng| {
                    let c = rng.next_u64();
                    cases.push(c);
                    Unshrunk(c)
                },
                |_| Ok(()),
            );
            cases
        };
        assert_eq!(collect(), collect());
    }
}
