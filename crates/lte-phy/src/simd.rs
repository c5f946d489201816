//! Runtime-dispatched SIMD tier selection for the PHY kernels.
//!
//! The hot kernels (max-log-MAP, soft demapper, MRC, FFT butterflies) exist
//! in up to three tiers:
//!
//! * **lane-form scalar** — fixed-width, branchless `[f32; 8]` loops that
//!   LLVM autovectorizes on any target (this is the `portable_simd`-style
//!   fallback: on AArch64 the same lane forms compile to NEON); the
//!   reference the intrinsic tiers are tested against,
//! * **AVX2** — explicit 8-lane `core::arch::x86_64` intrinsics, and
//! * **AVX-512** — 16-lane intrinsics (`avx512f` + `avx512bw`), used by the
//!   paired-trellis batched turbo decoder; every other kernel runs its
//!   AVX2 form on this tier.
//!
//! All tiers are **bit-exact** with each other: every kernel restricts
//! itself to the same adds, multiplies by exact constants, `max`/`min`
//! reductions and permutations in every form, so dispatch never changes a
//! single output bit (see `DESIGN.md` §"SIMD strategy").
//!
//! Detection runs once per process ([`active_tier`] caches it); tests and
//! benchmarks can pin a tier with [`force_tier`] / [`try_force_tier`] or
//! the `RTOPEX_SIMD` environment variable (`scalar`, `lanes`, `avx2` or
//! `avx512`, checked at first use). Unknown names and tiers the CPU cannot
//! run are rejected with an explicit error instead of silently falling
//! back to detection.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// The instruction-set tier a kernel invocation will use.
///
/// Ordered by width: `Scalar < Avx2 < Avx512`. A CPU that supports a tier
/// supports every smaller one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Portable lane-form scalar code (autovectorized by LLVM; NEON on
    /// AArch64).
    Scalar,
    /// Explicit AVX2 intrinsics (8 × f32 lanes).
    Avx2,
    /// Explicit AVX-512 intrinsics (16 × f32 lanes; `avx512f`+`avx512bw`).
    Avx512,
}

impl SimdTier {
    /// Every tier, narrowest first.
    pub const ALL: [SimdTier; 3] = [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512];

    /// The canonical lowercase name (what `RTOPEX_SIMD` accepts and the
    /// bench JSON records).
    pub const fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }
}

/// Tier override: 0 = none, 1 = scalar, 2 = AVX2, 3 = AVX-512.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// One-time resolution of `RTOPEX_SIMD` + hardware detection.
static DETECTED: OnceLock<SimdTier> = OnceLock::new();

/// One-time pure hardware capability probe (ignores `RTOPEX_SIMD`).
static HARDWARE: OnceLock<SimdTier> = OnceLock::new();

/// The widest tier this CPU can execute, independent of any override.
pub fn hardware_tier() -> SimdTier {
    *HARDWARE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
            {
                return SimdTier::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdTier::Avx2;
            }
        }
        SimdTier::Scalar
    })
}

/// Whether this CPU can execute `tier`.
pub fn supports(tier: SimdTier) -> bool {
    tier <= hardware_tier()
}

/// Every tier this CPU can execute, narrowest first (always starts with
/// [`SimdTier::Scalar`]). Drives the per-tier bench rows and the
/// all-tier equivalence tests.
pub fn supported_tiers() -> impl Iterator<Item = SimdTier> {
    SimdTier::ALL.into_iter().filter(|&t| supports(t))
}

/// Parses a `RTOPEX_SIMD`-style tier name. `lanes` is an alias for
/// `scalar` (the portable lane form).
pub fn parse_tier(name: &str) -> Result<SimdTier, String> {
    match name {
        "scalar" | "lanes" => Ok(SimdTier::Scalar),
        "avx2" => Ok(SimdTier::Avx2),
        "avx512" => Ok(SimdTier::Avx512),
        // analyze: allow(alloc): error construction on the once-per-process env-parse path (inside `DETECTED.get_or_init`), never in the steady state
        other => Err(format!(
            "unknown SIMD tier `{other}` (valid: scalar, lanes, avx2, avx512)"
        )),
    }
}

/// The tier the hardware (and `RTOPEX_SIMD`, if set) selects, resolved
/// once per process.
///
/// # Panics
/// Panics on first use if `RTOPEX_SIMD` names an unknown tier or one this
/// CPU cannot execute — a misconfigured forcing must fail loudly, not
/// silently bench the wrong tier.
pub fn detected_tier() -> SimdTier {
    *DETECTED.get_or_init(|| match std::env::var("RTOPEX_SIMD") {
        Ok(name) => {
            let tier = parse_tier(&name)
                // analyze: allow(panic): once-per-process env validation; silently benching the wrong tier is worse than a crash
                .unwrap_or_else(|e| panic!("RTOPEX_SIMD: {e}"));
            // analyze: allow(panic): once-per-process env validation; silently benching the wrong tier is worse than a crash
            assert!(
                supports(tier),
                "RTOPEX_SIMD={name}: this CPU does not support the {} tier (widest supported: {})",
                tier.name(),
                hardware_tier().name()
            );
            tier
        }
        Err(_) => hardware_tier(),
    })
}

/// The tier kernels will actually dispatch to right now: the programmatic
/// override if one is set, else the detected tier.
#[inline]
pub fn active_tier() -> SimdTier {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => SimdTier::Scalar,
        2 => SimdTier::Avx2,
        3 => SimdTier::Avx512,
        _ => detected_tier(),
    }
}

/// Forces every subsequent kernel dispatch to `tier` (process-wide), or
/// restores detection with `None`. Returns an error — leaving the current
/// dispatch unchanged — when the CPU cannot execute `tier`.
pub fn try_force_tier(tier: Option<SimdTier>) -> Result<(), String> {
    let v = match tier {
        None => 0,
        Some(t) => {
            if !supports(t) {
                return Err(format!(
                    "cannot force SIMD tier {}: this CPU supports at most {}",
                    t.name(),
                    hardware_tier().name()
                ));
            }
            match t {
                SimdTier::Scalar => 1,
                SimdTier::Avx2 => 2,
                SimdTier::Avx512 => 3,
            }
        }
    };
    OVERRIDE.store(v, Ordering::Relaxed);
    Ok(())
}

/// [`try_force_tier`] for call sites that treat an unsupported forcing as
/// a bug.
///
/// # Panics
/// Panics with a clear message when the CPU cannot execute `tier`.
pub fn force_tier(tier: Option<SimdTier>) {
    try_force_tier(tier).expect("force_tier");
}

/// Serializes tests (across modules) that mutate the process-wide override.
/// Poisoning is ignored: the override is valid in any state.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_override_routes_to_scalar() {
        let _g = test_guard();
        force_tier(Some(SimdTier::Scalar));
        assert_eq!(active_tier(), SimdTier::Scalar);
        force_tier(None);
        assert_eq!(active_tier(), detected_tier());
    }

    #[test]
    fn forcing_an_unsupported_tier_errors_and_keeps_dispatch() {
        let _g = test_guard();
        force_tier(None);
        let before = active_tier();
        for tier in SimdTier::ALL {
            if !supports(tier) {
                let err = try_force_tier(Some(tier)).unwrap_err();
                assert!(err.contains(tier.name()), "{err}");
                assert_eq!(active_tier(), before, "failed forcing must not stick");
            }
        }
    }

    #[test]
    fn forcing_every_supported_tier_sticks() {
        let _g = test_guard();
        for tier in supported_tiers() {
            try_force_tier(Some(tier)).expect("supported tier");
            assert_eq!(active_tier(), tier);
        }
        force_tier(None);
    }

    #[test]
    fn tier_names_roundtrip_and_unknown_names_are_rejected() {
        for tier in SimdTier::ALL {
            assert_eq!(parse_tier(tier.name()), Ok(tier));
        }
        assert_eq!(parse_tier("lanes"), Ok(SimdTier::Scalar));
        let err = parse_tier("sse9").unwrap_err();
        assert!(err.contains("sse9") && err.contains("avx512"), "{err}");
    }

    #[test]
    fn supported_tiers_is_a_prefix_of_all() {
        let sup: Vec<_> = supported_tiers().collect();
        assert_eq!(sup[0], SimdTier::Scalar);
        assert_eq!(sup.last().copied(), Some(hardware_tier()));
        assert!(sup.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn detection_is_stable() {
        let _g = test_guard();
        assert_eq!(detected_tier(), detected_tier());
        assert!(supports(detected_tier()));
    }
}
