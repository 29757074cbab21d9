//! Input families shared by the reducer ≡ reference suites
//! (`index_equivalence.rs` and `fast_path_equivalence.rs`), which include
//! this file with `#[path]`.

use proptest::prelude::*;

use trace_reduce::{Method, MethodConfig};
use trace_sim::specgen::SegmentSpec;

/// Every method at its default threshold plus its full paper grid.
pub fn all_configs() -> Vec<MethodConfig> {
    Method::ALL
        .into_iter()
        .flat_map(|method| {
            std::iter::once(MethodConfig::with_default_threshold(method)).chain(
                method
                    .threshold_grid()
                    .into_iter()
                    .map(move |t| MethodConfig::new(method, t)),
            )
        })
        .collect()
}

/// Random traces of one to three ranks, each up to eleven segments drawn
/// from four shapes with up to 2 µs of jitter.
pub fn specs_strategy() -> impl Strategy<Value = Vec<Vec<SegmentSpec>>> {
    prop::collection::vec(
        prop::collection::vec((0u8..4, 0u8..4, 0u16..2000), 0..12),
        1..4,
    )
}
