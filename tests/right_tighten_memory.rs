//! Allocation guard for ISVD4's right-factor tightening on a lazy CSR
//! session.
//!
//! The stage builds the projector `Σ⁻¹ · pinv(mid U†)` in row blocks
//! inside the streamed reduction, so nothing it allocates grows with the
//! row count `n`. Once ISVD3 has cached the aligned solve, the stage is
//! run on its own ([`Pipeline::right_tighten`]); the guard asserts that
//! its peak live heap exceeds its starting point by less than one
//! `n × r` `f64` matrix. Materializing `mid(U†)`, the pseudo-inverse
//! (with its SVD left factor) or the projector would each cost a full
//! `n × r`. Nothing is credited: the stage's own output is `m × r`.
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
fn isvd4_right_tighten_allocates_nothing_that_grows_with_rows() {
    let path = TempPath::new("right_tighten_memory");
    let mut rng = SmallRng::seed_from_u64(19);
    let csr = generate_power_law(
        &PowerLawConfig::ratings_like(ROWS, COLS).with_nnz_per_row(8),
        &mut rng,
    );
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
    session.run(IsvdAlgorithm::Isvd3).unwrap();

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let tightened = session.right_tighten().unwrap();
    let peak = PEAK.load(Ordering::SeqCst);

    assert_eq!(tightened.0.shape(), (COLS, RANK));
    let tall = ROWS * RANK * std::mem::size_of::<f64>();
    let transient = peak - before;
    assert!(
        transient < tall,
        "the right tightening peaked {transient} bytes above its start; \
         one {ROWS} x {RANK} f64 matrix is {tall} bytes"
    );
}
