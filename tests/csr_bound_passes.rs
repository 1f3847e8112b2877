//! Allocation guard for the CSR bound passes: the upper bound of a CSR
//! interval shard is its hi payload read against the shard's one pattern,
//! and the midpoint–radius Gram forms its two payloads per stored entry
//! as rows enter the stream's buffer. Neither copies a shard's pattern,
//! so no allocation of an upper-bound product or of the Gram is as large
//! as one shard's `col_idx`.
//!
//! The largest allocation comes from the counting global allocator in
//! `tests/support/counting_alloc.rs` (per thread, while armed); one
//! compute thread keeps every kernel on the measured thread.

use ivmf_data::synthetic::{generate_power_law, PowerLawConfig};
use ivmf_interval::{CsrShardedIntervalMatrix, StreamingIntervalGram};
use ivmf_linalg::{matmul_left_streamed_t, matmul_streamed, Matrix};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::largest_allocation;

const SHARD_ROWS: usize = 8192;
const ROWS: usize = 2 * SHARD_ROWS;
const COLS: usize = 64;

#[test]
fn bound_passes_and_the_mid_rad_gram_copy_no_pattern() {
    let mut rng = SmallRng::seed_from_u64(31);
    let csr = generate_power_law(
        &PowerLawConfig::ratings_like(ROWS, COLS).with_nnz_per_row(16),
        &mut rng,
    );
    let sharded = CsrShardedIntervalMatrix::from_csr(&csr, SHARD_ROWS).unwrap();
    let pattern = sharded
        .shards()
        .iter()
        .map(|s| std::mem::size_of_val(s.lo_shard().col_idx()))
        .min()
        .unwrap();
    let one_thread = ivmf_env::Settings {
        threads: 1,
        ..ivmf_env::Settings::default()
    };
    one_thread.scope(|| {
        let rhs = Matrix::filled(COLS, 2, 0.5);
        let lhs = Matrix::filled(2, ROWS, 0.25);
        let (_, right) = largest_allocation(|| matmul_streamed(&sharded.hi_blocks(), &rhs).unwrap());
        let (_, left) =
            largest_allocation(|| matmul_left_streamed_t(&lhs, &sharded.hi_blocks()).unwrap());
        let (gram, in_gram) = largest_allocation(|| {
            let mut acc = StreamingIntervalGram::with_flavour_csr(COLS, true);
            for shard in sharded.shards() {
                acc.push(shard).unwrap();
            }
            acc.finish().unwrap()
        });
        assert_eq!(gram.shape(), (COLS, COLS));
        for (what, largest) in [
            ("upper-bound right product", right),
            ("upper-bound left product", left),
            ("midpoint-radius Gram", in_gram),
        ] {
            assert!(
                largest < pattern,
                "the {what} made a {largest}-byte allocation; one shard's col_idx is {pattern} bytes"
            );
        }
    });
}
