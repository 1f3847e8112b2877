//! Memory guard for the factors a lazy out-of-core session holds.
//!
//! A lazy CSR session runs ISVD2, ISVD3 and ISVD4 at the default target
//! (option b) and keeps all three results. Its stages cache four `n × r`
//! outputs (the two recovered left factors of ISVD2, and the aligned
//! solve's interval `U†`), and each result holds one scalar left factor:
//! option b's `U` is degenerate (`lo == hi`) and stored once. Target
//! assembly reads the aligned factors in place instead of copying them.
//! So the peak live heap over the three runs stays below nine `n × r`
//! `f64` matrices; storing each scalar factor twice, or copying a factor
//! to align it, crosses that line.
//!
//! Live and peak bytes come from the counting global allocator in
//! `tests/support/counting_alloc.rs`. This binary holds this one test,
//! so nothing else allocates while it measures.

use std::sync::atomic::Ordering;

use ivmf_core::{IsvdAlgorithm, IsvdConfig, Pipeline};
use ivmf_data::stream::{CsrShardReader, CsrShardWriter};
use ivmf_data::synthetic::{generate_power_law, PowerLawConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
#[path = "support/temp_path.rs"]
mod temp_path;
use counting_alloc::{LIVE, PEAK};
use temp_path::TempPath;

const ROWS: usize = 60_000;
const COLS: usize = 64;
const RANK: usize = 8;
const SHARD_ROWS: usize = 4096;

#[test]
fn lazy_session_holds_each_tall_factor_once() {
    let path = TempPath::new("ooc_factor_memory");
    let mut rng = SmallRng::seed_from_u64(29);
    let csr = generate_power_law(
        &PowerLawConfig::ratings_like(ROWS, COLS).with_nnz_per_row(8),
        &mut rng,
    );
    // Several records: a reader decodes one whole record at a time.
    let mut writer = CsrShardWriter::create(&path, ROWS, COLS).unwrap();
    for start in (0..ROWS).step_by(SHARD_ROWS) {
        let shard = csr
            .row_slice(start, (start + SHARD_ROWS).min(ROWS))
            .unwrap();
        writer.push_shard(&shard).unwrap();
    }
    writer.finish().unwrap();
    drop(csr);

    let reader = CsrShardReader::open(&path, SHARD_ROWS).unwrap();
    let mut session = Pipeline::new_streaming_csr(Box::new(reader), IsvdConfig::new(RANK)).unwrap();

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let results: Vec<_> = [
        IsvdAlgorithm::Isvd2,
        IsvdAlgorithm::Isvd3,
        IsvdAlgorithm::Isvd4,
    ]
    .into_iter()
    .map(|alg| session.run(alg).unwrap())
    .collect();
    let peak = PEAK.load(Ordering::SeqCst);

    for r in &results {
        assert_eq!(r.factors.u.shape(), (ROWS, RANK));
        assert!(r.factors.u.is_scalar());
    }
    let tall = (ROWS * RANK * std::mem::size_of::<f64>()) as f64;
    let held = (peak - before) as f64 / tall;
    assert!(
        held < 9.0,
        "ISVD2-4 peaked at {held:.2} {ROWS} x {RANK} f64 matrices above the session's start"
    );
}
