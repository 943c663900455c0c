//! One-time caches for per-type constants.
//!
//! `QuadExt`/`CubicExt` apply `x ↦ x^(p^k)` coefficient-wise with a
//! constant `β^((p^k−1)/d)` per coefficient. That constant only depends on
//! the extension parameters and `k`, but computing it is a multi-hundred-
//! bit exponentiation in the base field — recomputing it per call made
//! Frobenius cost more than a full extension inverse and dominated the
//! pairing final exponentiation. The registry below computes such
//! constants once per (key type, value type) and serves them from a leaked
//! static; `zkperf-circuit` keeps its Poseidon constants here too.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use zkperf_trace as trace;

/// Highest Frobenius power with a cached coefficient; larger powers (none
/// occur in the towers we build — `p^6` already generates every Galois
/// conjugate we use) fall back to direct computation.
pub(crate) const MAX_POWER: usize = 6;

type Registry = Mutex<HashMap<(TypeId, TypeId), &'static (dyn Any + Send + Sync)>>;

/// Returns the cached `T` for key type `K`, building it on first use.
///
/// The build runs outside the registry lock, so it may safely recurse into
/// other field arithmetic; a race at first use builds twice and keeps one.
/// It also runs [`trace::untraced`]: a one-time build is not part of the
/// measured stage that happens to trigger it.
pub fn get_or_build<K: 'static, T: Any + Send + Sync>(build: impl FnOnce() -> T) -> &'static T {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (TypeId::of::<K>(), TypeId::of::<T>());
    let lock = || registry.lock().expect("constant registry poisoned");
    if let Some(cached) = lock().get(&key) {
        return cached.downcast_ref::<T>().expect("registry entries are keyed by type");
    }
    let built: &'static T = Box::leak(Box::new(trace::untraced(build)));
    let mut guard = lock();
    guard
        .entry(key)
        .or_insert(built as &'static (dyn Any + Send + Sync))
        .downcast_ref::<T>()
        .expect("registry entries are keyed by type")
}
