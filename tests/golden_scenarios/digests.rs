//! Absolute pins for whole online results: a 64-bit FNV-1a digest of every
//! decision a run made, for the tiny catalog under the sweep's default
//! online columns.
//!
//! The values were produced by the per-task simulator loop and the batch
//! engine loop this repository had before both became front-ends of
//! `StreamEngine`, except `tiny-rush`'s two batched cells: they were
//! re-pinned once when early-flush epochs began counting only drivers on
//! shift at an order's publication. Comparing two surfaces to each other
//! proves nothing once they share one implementation; comparing each to
//! these constants still does. `golden_scenarios` checks the materialized front-end
//! against them, `stream_equivalence` the bare stream.

use rideshare::online::SimulationResult;

/// Digests the `dispatch` vector (length, then `driver index + 1` or `0`
/// per task), then every event field in dispatch order — floats by bit
/// pattern, so any moved decision, timestamp or margin changes the value.
pub fn result_digest(result: &SimulationResult) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    feed(result.dispatch.len() as u64);
    for slot in &result.dispatch {
        feed(slot.map_or(0, |d| d.index() as u64 + 1));
    }
    for e in &result.events {
        feed(e.task.index() as u64);
        feed(e.driver.index() as u64);
        feed(e.arrival.as_secs() as u64);
        feed(e.decision_time.as_secs() as u64);
        feed(e.wait.as_secs() as u64);
        feed(e.deadhead_km.to_bits());
        feed(e.candidates as u64);
        feed(e.margin.to_bits());
    }
    hash
}

/// `(scenario, policy column, digest)`. Columns are `PolicySpec` labels
/// (`nearest` is tie-break seed 0, batched columns hold for 3 minutes);
/// `maxMargin/value-sorted` is the §V-B descending-price variant.
const PINNED: [(&str, &str, u64); 17] = [
    ("tiny-rides", "maxMargin", 0x409f5d3c5b1edb66),
    ("tiny-rides", "nearest", 0x46e7b203ce12c8f2),
    ("tiny-rides", "batch-3m", 0x17d3e4e0d5e637e8),
    ("tiny-rides", "batch-opt-3m", 0x17d3e4e0d5e637e8),
    ("tiny-rides", "maxMargin/value-sorted", 0x27eecf393eff19fc),
    ("tiny-delivery", "maxMargin", 0x0b18cfc8fe6735be),
    ("tiny-delivery", "nearest", 0xaf79ebcf5fb9e5b9),
    ("tiny-delivery", "batch-3m", 0x4191b49e089f7618),
    ("tiny-delivery", "batch-opt-3m", 0xc52c957156fe4e5d),
    ("tiny-rush", "maxMargin", 0x27fe687cfbee660e),
    ("tiny-rush", "nearest", 0x27fe687cfbee660e),
    ("tiny-rush", "batch-3m", 0xf69d4153d9928284),
    ("tiny-rush", "batch-opt-3m", 0xf69d4153d9928284),
    ("tightness-d4", "maxMargin", 0x68dda75953e6588a),
    ("tightness-d4", "nearest", 0x5cce6b5f90417bb5),
    ("tightness-d4", "batch-3m", 0x2d6a25d43260e652),
    ("tightness-d4", "batch-opt-3m", 0x2d6a25d43260e652),
];

/// The pinned digest of `scenario` under `policy`, if that cell is pinned.
pub fn pinned(scenario: &str, policy: &str) -> Option<u64> {
    PINNED
        .iter()
        .find(|(s, p, _)| *s == scenario && *p == policy)
        .map(|&(_, _, digest)| digest)
}
